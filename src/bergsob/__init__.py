"""Weighted Bergman projections on a singular Reinhardt model domain.

Special functions, domain geometry, weighted moments, orthonormal
Bergman bases, and sharp Sobolev-regularity certificates for the
projection at form degrees 0, 1, 2.
"""

from .errors import DomainError, NonIntegrableTermError
from .geometry import CoverPoint, DomainParams, FrameAt, ModelPoint
from .measure import GrowthFit, MomentArgs
from .bergman import BasisIndex, Component, RadialTerm, RadialTermFunction
from .regularity import (
    ContinuityCertificate,
    DivergenceWitness,
    ThresholdReport,
    continuity_certificate,
    divergence_witness,
    mu_for_threshold,
    smooth_counterexample,
    threshold,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "NonIntegrableTermError",
    "DomainParams",
    "ModelPoint",
    "CoverPoint",
    "FrameAt",
    "MomentArgs",
    "GrowthFit",
    "BasisIndex",
    "Component",
    "RadialTerm",
    "RadialTermFunction",
    "ThresholdReport",
    "ContinuityCertificate",
    "DivergenceWitness",
    "threshold",
    "mu_for_threshold",
    "continuity_certificate",
    "divergence_witness",
    "smooth_counterexample",
    "__version__",
]
