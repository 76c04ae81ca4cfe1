"""The settable surface and the layering of the package: every defaulted
parameter of a public function or method, every command-line option,
every module's public names (``__all__``), every module's imports from the
package, every caller of the adaptive quadrature and every public function
that the package itself never calls, pinned, so that a new knob, flag,
public path, dependency, integrator or test-only surface is added on
purpose."""

import argparse
import ast
import dataclasses
from pathlib import Path

from bergsob import cli, measure

SRC = Path(__file__).resolve().parents[1] / "src" / "bergsob"

KNOBS = {
    "cli.main(argv)",
    "geometry.inverse_map(k)",
    "quadrature.integrate(max_level)",
    "quadrature.integrate(rtol)",
    "regularity.continuity_certificate(lattice)",
    "special.alpha_quadrature(tol)",
    "special.beta_quadrature(tol)",
    "special.beta_recursion_residual(scale)",
    "suites.check_special(recursion_scale)",
    "suites.run_suites(names)",
    "suites.run_suites(self_test)",
    "suites.suite_special(recursion_scale)",
}


def _defaulted(args: ast.arguments) -> list[str]:
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    return names + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def _knobs() -> set[str]:
    """module.function(parameter) for each defaulted parameter of a module-level
    function or a method of a module-level class, skipping private names
    (a leading underscore, dunder methods excepted)."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        def visit(body, prefix):
            for node in body:
                private = node.name.startswith("_") if hasattr(node, "name") else True
                if isinstance(node, ast.FunctionDef) and (not private or node.name.endswith("__")):
                    found.update(f"{prefix}{node.name}({a})" for a in _defaulted(node.args))
                elif isinstance(node, ast.ClassDef) and not private:
                    visit(node.body, f"{prefix}{node.name}.")

        visit(ast.parse(path.read_text(encoding="utf-8")).body, f"{path.stem}.")
    return found


def test_knobs_pinned():
    assert _knobs() == KNOBS
    assert len(KNOBS) == 12


# each subcommand's option strings, besides --help
OPTIONS = {
    "threshold": {"--mu", "--invert", "--p", "--output"},
    "lambda": {"--mu", "--x", "--y", "--s", "--truncate-fit", "--output"},
    "scan": {"--mu", "--p", "--s-grid", "--lattice", "--format", "--output"},
    "sharpness": {"--r", "--output"},
    "verify": {"--suite", "--seed", "--self-test", "--output"},
}


def test_cli_options_pinned():
    (commands,) = [a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    got = {name: {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
           for name, sub in commands.choices.items()}
    assert got == OPTIONS


# each module's public names; errors declares none
EXPORTS = {
    "__init__": {"DomainError", "NonIntegrableTermError", "DomainParams", "ModelPoint", "CoverPoint",
                 "FrameAt", "MomentArgs", "GrowthFit", "BasisIndex", "Component",
                 "RadialTerm", "RadialTermFunction", "ThresholdReport", "ContinuityCertificate",
                 "DivergenceWitness", "threshold", "mu_for_threshold", "continuity_certificate",
                 "divergence_witness", "smooth_counterexample", "__version__"},
    "bergman": {"Component", "FAMILIES", "BasisIndex", "RadialTerm", "RadialTermFunction",
                "ProjectionResult", "basis_norm_sq", "membership_min_j", "basis_indices",
                "project", "gram_matrix"},
    "cli": {"main", "build_parser"},
    "geometry": {"DomainParams", "ModelPoint", "CoverPoint", "FrameAt", "contains", "radial_bounds",
                 "delta0", "rho_tilde", "levi_form_boundary", "forward_map",
                 "inverse_map", "isometry_apply", "frame_at", "dw1_in_frame", "volume_density",
                 "sample_interior", "sample_boundary_cover"},
    "measure": {"MomentArgs", "GrowthFit", "S_CLAUSE", "X_CLAUSE", "integrability_margin",
                "is_integrable", "violated_clause", "lambda_closed", "lambda_quadrature",
                "lambda_ratio_bound", "lambda_ratio_family", "lambda_truncated",
                "lambda_truncated_oracle", "truncation_growth_fit", "radial_moment"},
    "quadrature": {"QuadratureError", "QuadResult", "nodes", "new_nodes", "integrate", "unsettled"},
    "regularity": {"ThresholdReport", "ContinuityCertificate", "DivergenceWitness", "threshold",
                   "mu_for_threshold", "sharpness_checks", "continuity_certificate",
                   "divergence_witness", "smooth_counterexample", "witness_index"},
    "special": {"alpha_eval", "alpha_quadrature", "alpha_tail", "beta_eval", "beta_quadrature",
                "log_abs_gamma", "log_beta", "alpha_recursion_residual", "beta_recursion_residual",
                "alpha_holder_margin", "beta_holder_margin"},
    "suites": {"SuiteResult", "SUITES", "run_suites", "check_special", "check_moments",
               "check_geometry", "check_gram", "check_sharpness", "check_threshold_jumps",
               "check_counterexample_transport"},
}


def _exports(tree: ast.Module):
    """The names listed in a module's ``__all__``, or None when it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            names = ast.literal_eval(node.value)
            assert len(set(names)) == len(names)
            return set(names)
    return None


def test_exports_pinned():
    got = {path.stem: _exports(ast.parse(path.read_text(encoding="utf-8")))
           for path in sorted(SRC.glob("*.py"))}
    assert got == {**{stem: None for stem in ("__main__", "errors")}, **EXPORTS}


# the fields of the public growth fit, whose values `lambda --truncate-fit` and
# `sharpness` print: the measured mode and the coefficient against its closed form
GROWTH_FIT_FIELDS = ("kind", "exponent", "coefficient", "closed_form", "gap_bound", "eps_grid",
                     "shells")


def test_growth_fit_fields_pinned():
    assert tuple(f.name for f in dataclasses.fields(measure.GrowthFit)) == GROWTH_FIT_FIELDS


# each module's imports from the package; bergman is algebra over measure's
# integrals and builds no quadrature of its own
IMPORTS = {
    "__init__": {"bergman", "errors", "geometry", "measure", "regularity"},
    "__main__": {"cli"},
    "bergman": {"errors", "geometry", "measure"},
    "cli": {"errors", "geometry", "measure", "quadrature", "regularity", "suites"},
    "errors": set(),
    "geometry": {"errors"},
    "measure": {"errors", "geometry", "quadrature", "special"},
    "quadrature": set(),
    "regularity": {"bergman", "errors", "geometry", "measure"},
    "special": {"errors", "quadrature"},
    "suites": {"bergman", "errors", "geometry", "measure", "regularity", "special"},
}


def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules that a module imports; the package imports
    itself only relatively."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module.split(".")[0]] if node.module else
                         [alias.name for alias in node.names])  # from . import a, b
        elif isinstance(node, ast.ImportFrom):
            assert node.module.split(".")[0] != "bergsob"
        elif isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "bergsob" for alias in node.names)
    return found


def test_module_imports_pinned():
    got = {path.stem: _package_imports(ast.parse(path.read_text(encoding="utf-8")))
           for path in sorted(SRC.glob("*.py"))}
    assert got == IMPORTS


# the callers of the adaptive 1-d rule are the oracles; every other integral
# over the domain runs on measure's one loop in r1 (NESTED_R1_CALLERS)
ADAPTIVE_CALLERS = {
    "measure.lambda_truncated_oracle",
    "special._alpha_lower_half",
    "special._beta_half",
    "special.alpha_quadrature",
    "special.beta_quadrature",
}


# the integrals over the domain on measure's one loop in r1 over the
# closed-form fibers, all through radial_moment: the truncated moments' top
# piece, the Gram tables and the projection's radial moments
NESTED_R1_CALLERS = {"measure.radial_moment"}

# the two loops that settle integrals, each returning its own QuadResult of
# arrays: one result convention, which no caller rebuilds
QUAD_RESULT_MAKERS = {"quadrature.integrate", "measure._nested_r1"}


# the closed-form fibers are evaluated on the loop in r1 and on the dyadic
# shells, which a growth fit and a truncated moment share
FIBER_CALLERS = {"measure._nested_r1", "measure._shells"}


def _callers(is_target) -> set[str]:
    """module.function for each module-level function whose body, nested
    functions included, makes a call whose callee node satisfies is_target."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.FunctionDef):
                continue
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and is_target(call.func):
                    found.add(f"{path.stem}.{node.name}")
    return found


def _is_adaptive(func) -> bool:
    """quadrature.integrate."""
    return (isinstance(func, ast.Attribute) and func.attr == "integrate"
            and isinstance(func.value, ast.Name) and func.value.id == "quadrature")


def test_adaptive_quadrature_callers_pinned():
    assert _callers(_is_adaptive) == ADAPTIVE_CALLERS


def _named(name: str):
    """A callee test for the function ``name``, by bare name or as an
    attribute such as measure._nested_r1."""
    return lambda func: name in (getattr(func, "id", None), getattr(func, "attr", None))


def test_nested_r1_callers_pinned():
    assert _callers(_named("_nested_r1")) == NESTED_R1_CALLERS


def test_quad_result_makers_pinned():
    assert _callers(_named("QuadResult")) == QUAD_RESULT_MAKERS


def test_fiber_callers_pinned():
    assert _callers(_named("_fiber")) == FIBER_CALLERS


# the public functions that no module of the package calls, each with the
# reason it is kept: a new one is test-only surface, added on purpose
UNCALLED = {
    "geometry.radial_bounds": "the |w2| fiber over |w1| = r1, for tying moments to geometry",
    "geometry.dw1_in_frame": "dw1 in the frame (theta1, theta2), for tying moments to geometry",
    "geometry.volume_density": "the push-forward volume density, for tying moments to geometry",
    "measure.lambda_truncated_oracle": "the independent (u1, u2) reference of the r1 shells",
    "special.log_abs_gamma": "the tested entry of the log-Gamma kernel that log_beta shares",
}


def test_uncalled_public_functions_pinned():
    """module.function for each module-level function in its module's
    ``__all__`` whose name is the callee of no call anywhere in the package,
    by bare name or as an attribute (as _named)."""
    called, public = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exports = _exports(tree) or set()
        public.update(f"{path.stem}.{node.name}" for node in tree.body
                      if isinstance(node, ast.FunctionDef) and node.name in exports)
        called.update(getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                      for call in ast.walk(tree) if isinstance(call, ast.Call))
    assert {name for name in public if name.split(".")[1] not in called} == set(UNCALLED)
