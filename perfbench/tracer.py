"""Span tracer for the public functions of bergsob, installed from outside.

``Tracer.install`` wraps every plain function named in the ``__all__`` of
the traced modules and rebinds each wrapper at every place the original is
bound: module attributes, names copied by ``from ... import`` into other
bergsob modules (``regularity.basis_norm_sq``, ``bergman.contains``) and
the suite table ``suites.SUITES``.  ``uninstall`` restores every binding.
``quadrature.nodes`` is an ``lru_cache`` object, not a plain function; it
stays unwrapped so that its ``cache_info()`` remains the program's own.

The suite functions, which ``suites.__all__`` does not name, are traced
as ``suites.suite_<name>`` through their entries in ``SUITES``.

A span is (name id, parent span, start, end, op, is_call); spans live in
memory and are written once, by ``write``, after the run.  Self time is a
span's duration minus the durations of its child spans.  The two
quadrature entry points also count what their integrand callables are
asked for, and time each integrand call as a child span (is_call 0)
charged to the nearest enclosing function outside ``quadrature``: an
integrand is that function's own code, run from inside the quadrature
loop, so ``measure.lambda_truncated.self_s`` includes its integrand and
``quadrature.integrate.self_s`` is the rule's own work only.

Every span's self time is charged to exactly one per-layer metric: its own
``<module>.<function>.self_s`` when the function is reported, and
``other.self_s`` otherwise (the workload's glue code around the program
call, the suite bodies and wrapped functions that are not reported, such
as ``geometry.contains``).  So the self times of one op add up to its time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import Counter
from pathlib import Path

import numpy as np

MARK = "_perfbench_traced"

# Per-layer metrics: the functions whose calls and self time are reported.
REPORTED = {
    "quadrature": ("integrate", "integrate_family"),
    "special": (
        "alpha_eval",
        "beta_eval",
        "beta_family",
        "alpha_recursion_residual",
        "beta_recursion_residual",
        "alpha_holder_margin",
        "beta_holder_margin",
    ),
    "geometry": (
        "sample_interior",
        "sample_boundary_cover",
        "inverse_map",
        "forward_map",
        "rho_tilde",
        "delta0",
        "isometry_apply",
        "frame_at",
        "levi_form_boundary",
    ),
    "measure": (
        "lambda_closed",
        "lambda_quadrature",
        "lambda_ratio_family",
        "lambda_truncated",
        "truncation_growth_fit",
        "radial_moment",
    ),
    "bergman": ("basis_norm_sq", "basis_indices", "gram_matrix", "kernel_eval", "project"),
    "regularity": ("continuity_certificate", "divergence_witness"),
}
SUITE_NAMES = ("special", "geometry", "measure", "bergman", "regularity")
TRACED_MODULES = tuple(REPORTED) + ("suites",)

# name -> unit of every per-layer metric, in report order
LAYER_UNITS: dict[str, str] = {}
for _mod, _fns in REPORTED.items():
    for _fn in _fns:
        LAYER_UNITS[f"{_mod}.{_fn}.calls"] = "count/op"
        LAYER_UNITS[f"{_mod}.{_fn}.self_s"] = "s/op"
LAYER_UNITS.update(
    {
        "quadrature.integrate.nodes": "count/op",
        "quadrature.integrate.nonconverged": "count/op",
        "quadrature.integrate.final_level_mean": "level",
        "quadrature.integrate_family.row_nodes": "count/op",
        "quadrature.nodes.cache_hit_frac": "fraction",
        "measure.lambda_truncated.calls_per_fit": "count",
        "other.self_s": "s/op",
    }
)
for _suite in SUITE_NAMES:
    LAYER_UNITS[f"suites.suite_{_suite}.wall_s"] = "s/op"
LAYER_UNITS["trace_overhead_frac"] = "fraction"


def bergsob_modules() -> list[types.ModuleType]:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "bergsob" or name.startswith("bergsob."))
    ]


def binding_sites():
    """Every (namespace dict, key, value) where bergsob binds a function."""
    for mod in bergsob_modules():
        for key, value in list(vars(mod).items()):
            yield vars(mod), key, value
    suites = sys.modules.get("bergsob.suites")
    if suites is not None:
        for key, value in list(suites.SUITES.items()):
            yield suites.SUITES, key, value


def installed_wrappers() -> list[str]:
    """Binding sites that currently hold a tracer wrapper (empty when none)."""
    return [key for _, key, value in binding_sites() if getattr(value, MARK, False)]


class Tracer:
    """Spans of the traced functions; installed only inside ``with tracer:``,
    which may be entered many times and accumulates into the same spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[tuple[int, int]] = []  # open spans: (index, name id)
        self._op = -1
        self._restore: list = []
        self._op_span = self._wrap("op", lambda fn, x: fn(x))
        for short in TRACED_MODULES:
            importlib.import_module(f"bergsob.{short}")
        targets = []
        for short in TRACED_MODULES:
            mod = sys.modules[f"bergsob.{short}"]
            targets += [(short, name, getattr(mod, name)) for name in mod.__all__]
        suite_table = sys.modules["bergsob.suites"].SUITES
        targets += [("suites", fn.__name__, fn) for fn in suite_table.values()]
        self._wrappers = {}
        for short, name, fn in targets:
            if isinstance(fn, types.FunctionType) and fn not in self._wrappers:
                wrapped = self._wrap(f"{short}.{name}", self._observed(short, name, fn))
                self._wrappers[fn] = wrapped

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for ns, key, value in binding_sites():
            if isinstance(value, types.FunctionType) and value in self._wrappers:
                self._restore.append((ns, key, value))
                ns[key] = self._wrappers[value]

    def uninstall(self) -> None:
        for ns, key, value in reversed(self._restore):
            ns[key] = value
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            i = len(spans)
            spans.append(None)
            stack.append((i, nid))
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[i] = (nid, parent, t0, t1, self._op, 1)

        setattr(traced, MARK, True)
        return traced

    def _integrand(self, f, count_key: str):
        """f timed as a child span charged to the nearest enclosing function
        outside quadrature, counting the values it returns."""
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter, self.counts
        owner = next(
            (nid for _, nid in reversed(stack) if not self.names[nid].startswith("quadrature.")),
            stack[-1][1],
        )

        def integrand(x, da, db):
            parent = stack[-1][0]
            i = len(spans)
            spans.append(None)
            stack.append((i, owner))
            t0 = clock()
            try:
                vals = f(x, da, db)
            finally:
                t1 = clock()
                stack.pop()
                spans[i] = (owner, parent, t0, t1, self._op, 0)
            counts[count_key] += np.size(vals)
            return vals

        return integrand

    def _observed(self, module: str, name: str, fn):
        """The quadrature entry points with their integrand counted."""
        counts = self.counts
        if module == "quadrature" and name == "integrate":

            def integrate(f, a, b, **kw):
                res = fn(self._integrand(f, "integrate.nodes"), a, b, **kw)
                counts["integrate.results"] += 1
                counts["integrate.level_sum"] += res.level
                counts["integrate.nonconverged"] += not res.converged
                return res

            return integrate
        if module == "quadrature" and name == "integrate_family":

            def integrate_family(fmat, a, b, **kw):
                return fn(self._integrand(fmat, "integrate_family.row_nodes"), a, b, **kw)

            return integrate_family
        return fn

    # -- ops ---------------------------------------------------------------

    def run_op(self, op_index: int, fn, x):
        """Run one workload op, fn(x), as a root span tagged with its index."""
        self._op = op_index
        return self._op_span(fn, x)

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        if self._stack or any(s is None for s in self.spans):
            raise RuntimeError("spans still open")
        arr = np.array(self.spans, dtype=float).reshape(-1, 6)
        return {
            "name": arr[:, 0].astype(np.int32),
            "parent": arr[:, 1].astype(np.int64),
            "start": arr[:, 2],
            "end": arr[:, 3],
            "op": arr[:, 4].astype(np.int64),
            "is_call": arr[:, 5].astype(bool),
            "names": np.array(self.names),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, **self.arrays())

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Every per-layer metric except trace_overhead_frac, per traced op.
        The nodes cache hit fraction covers the whole process, set-up included."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        n_names = len(self.names)
        calls = np.bincount(a["name"][a["is_call"]], minlength=n_names)
        self_s = np.bincount(a["name"], weights=dur - child, minlength=n_names)
        wall = np.bincount(a["name"], weights=dur * a["is_call"], minlength=n_names)
        index = {name: i for i, name in enumerate(self.names)}

        def per(name: str, values) -> float:
            i = index.get(name)
            return float(values[i]) / n_ops if i is not None else 0.0

        out: dict[str, float] = {}
        reported_self = 0.0
        for mod, fns in REPORTED.items():
            for fn in fns:
                out[f"{mod}.{fn}.calls"] = per(f"{mod}.{fn}", calls)
                out[f"{mod}.{fn}.self_s"] = per(f"{mod}.{fn}", self_s)
                reported_self += out[f"{mod}.{fn}.self_s"]
        out["other.self_s"] = float(self_s.sum()) / n_ops - reported_self
        c = self.counts
        out["quadrature.integrate.nodes"] = c["integrate.nodes"] / n_ops
        out["quadrature.integrate.nonconverged"] = c["integrate.nonconverged"] / n_ops
        out["quadrature.integrate.final_level_mean"] = (
            c["integrate.level_sum"] / c["integrate.results"] if c["integrate.results"] else 0.0
        )
        out["quadrature.integrate_family.row_nodes"] = c["integrate_family.row_nodes"] / n_ops
        info = sys.modules["bergsob.quadrature"].nodes.cache_info()
        lookups = info.hits + info.misses
        out["quadrature.nodes.cache_hit_frac"] = info.hits / lookups if lookups else 0.0
        fit, trunc = index.get("measure.truncation_growth_fit"), index.get("measure.lambda_truncated")
        fits = int(calls[fit]) if fit is not None else 0
        in_fit = 0
        if fits and trunc is not None:
            is_trunc = (a["name"] == trunc) & a["is_call"]
            in_fit = int(np.sum(a["name"][a["parent"][is_trunc & has_parent]] == fit))
        out["measure.lambda_truncated.calls_per_fit"] = in_fit / fits if fits else 0.0
        for suite in SUITE_NAMES:
            out[f"suites.suite_{suite}.wall_s"] = per(f"suites.suite_{suite}", wall)
        return out
