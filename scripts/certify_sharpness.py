#!/usr/bin/env python3
"""Produce the full sharpness table: for each target exponent r and each
form degree p, the domain parameter realizing the threshold, a
continuity certificate just below it, and a divergence witness at it.

Writes one JSON document; each entry records the certificate sup and
bound, the witness index, and the fitted truncation-growth mode.

Example:
    python scripts/certify_sharpness.py --r 0.1 0.2 0.3 0.4 \
        --gap 0.02 --output sharpness.json
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bergsob import regularity
from bergsob.errors import DomainError
from bergsob.geometry import DomainParams
from bergsob.quadrature import QuadratureError


def entry(r: float, p: int, gap: float) -> tuple[dict, bool]:
    """The table entry of (r, p), and whether both of its checks pass."""
    mu = regularity.mu_for_threshold(r, p)
    params = DomainParams(mu)
    cert = regularity.continuity_certificate(params, p, r - gap)
    wit = regularity.divergence_witness(params, p, r)
    within, fits = regularity.sharpness_checks(cert, wit, ratio_slack=1e-9, growth_tol=0.05)
    return {
        "r": r,
        "p": p,
        "mu": mu,
        "certificate": {
            "s": cert.s,
            "sup_ratio": cert.sup_ratio,
            "bound": cert.bound_used,
            "argmax": [cert.sup_attained_at.j, cert.sup_attained_at.k],
            "within_bound": within,
        },
        "witness": {
            "index": [wit.index.j, wit.index.k],
            "component": wit.index.component.value,
            "analytic_exponent": wit.analytic_exponent,
            "growth_kind": wit.growth.kind,
            "growth_exponent": wit.growth.exponent,
            "fit_residual": wit.growth.residual,
        },
    }, within and fits


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--r", type=float, nargs="+",
                        default=[0.1, 0.2, 0.3, 0.4])
    parser.add_argument("--gap", type=float, default=0.02)
    parser.add_argument("--output", default=None)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    table = []
    ok = True
    for r in args.r:
        for p in (0, 1, 2):
            try:
                row, passed = entry(r, p, args.gap)
            except (DomainError, QuadratureError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            table.append(row)
            ok = ok and passed
            print(f"done r={r} p={p} ({time.perf_counter() - started:.1f}s)",
                  file=sys.stderr)
    doc = json.dumps({"schema_version": 1, "entries": table},
                     indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(doc + "\n", encoding="utf-8")
    else:
        print(doc)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
