"""The settable surface and the layering of the package: every defaulted
parameter of a public function or method, and every module's imports from
the package, pinned, so that a new knob or dependency is added on purpose."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bergsob"

KNOBS = {
    "bergman.kernel_eval(truncation)",
    "bergman.project(truncation)",
    "cli.main(argv)",
    "config.load_config(path)",
    "errors.NonIntegrableTermError.__init__(reason)",
    "geometry.inverse_map(k)",
    "measure.lambda_quadrature(tol)",
    "measure.lambda_truncated_oracle(rtol)",
    "measure.radial_moment(rtol)",
    "measure.truncation_growth_fit(m_hi)",
    "measure.truncation_growth_fit(m_lo)",
    "quadrature.integrate(max_level)",
    "quadrature.integrate(min_level)",
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
    assert len(KNOBS) == 22


# each module's imports from the package; bergman is algebra over measure's
# integrals and builds no quadrature of its own
IMPORTS = {
    "__init__": {"bergman", "errors", "geometry", "measure", "regularity"},
    "__main__": {"cli"},
    "bergman": {"errors", "geometry", "measure"},
    "cli": {"config", "errors", "geometry", "measure", "quadrature", "regularity", "suites"},
    "config": {"errors"},
    "errors": set(),
    "geometry": {"errors"},
    "measure": {"errors", "geometry", "quadrature", "special"},
    "quadrature": set(),
    "regularity": {"bergman", "errors", "geometry", "measure"},
    "special": {"errors", "quadrature"},
    "suites": {"bergman", "config", "errors", "geometry", "measure", "regularity", "special"},
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
