"""Self-test of the benchmark's tracer and of its agreement with BENCHMARK.json.

    python3 perfbench/selftest.py

Runs a few ops of each workload in this process and checks that
  * an untraced run installs no wrapper at any binding site, no op fails,
    and every defect probe answers;
  * while the tracer is installed, the from-import sites it must reach
    (regularity.basis_norm_sq, bergman.contains, suites.SUITES) hold wrappers,
    and uninstalling restores every original object;
  * each reported function is called on exactly the workloads predicted in
    REACHES below, the quadrature counters are nonzero where predicted, and
    beta_family (scan_sweep) and lambda_truncated (witness_fit) take most of
    the op time;
  * the per-layer self times, other.self_s included, add up to the op time;
  * the metric, unit and workload names agree with BENCHMARK.json.
Exits 0 when every check passes and 1 otherwise.
"""

from __future__ import annotations

import json
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from worker import ROOT, import_program  # noqa: E402

import_program()

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Outcomes, run_one  # noqa: E402

OPS = {"scan_sweep": 6, "witness_fit": 6, "verify_full": 1}

_SCAN = {
    "regularity.continuity_certificate",
    "measure.lambda_ratio_family",
    "special.alpha_eval",
    "special.beta_family",
    "quadrature.integrate_family",
}
_WITNESS = {
    "regularity.divergence_witness",
    "measure.truncation_growth_fit",
    "measure.lambda_truncated",
    "measure.lambda_closed",
    "bergman.basis_norm_sq",
    "special.alpha_eval",
    "special.beta_eval",
    "quadrature.integrate",
}
# verify's special suite checks the beta recursion inline, so no workload
# calls special.beta_recursion_residual
UNREACHED = {"special.beta_recursion_residual"}
_ALL = {f"{m}.{f}" for m, fns in tracer.REPORTED.items() for f in fns}
REACHES = {"scan_sweep": _SCAN, "witness_fit": _WITNESS, "verify_full": _ALL - UNREACHED}
# the function whose self time is most of the op time on the workload
DOMINANT = {"scan_sweep": "special.beta_family", "witness_fit": "measure.lambda_truncated"}
COUNTERS = {
    "quadrature.integrate.nodes": {"witness_fit", "verify_full"},
    "quadrature.integrate_family.row_nodes": {"scan_sweep", "verify_full"},
    "measure.lambda_truncated.calls_per_fit": {"witness_fit", "verify_full"},
}


def main() -> int:
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for name, workload in WORKLOADS.items():
        ops = workload.inputs(1, OPS[name])
        plain = Outcomes()
        for x in ops:
            run_one(workload, x, plain)
        expect(not tracer.installed_wrappers(), f"{name}: untraced run installs no wrapper")
        expect(not plain.failures, f"{name}: no op failed {plain.failures}")
        for tag, probe in workload.defect_probes.items():
            expect(isinstance(probe(), bool), f"{name}: defect probe {tag} answers")

        before = [(ns, key, value) for ns, key, value in tracer.binding_sites()]
        traced = Outcomes()
        with tracer.Tracer() as tr:
            sites = (
                sys.modules["bergsob.regularity"].basis_norm_sq,
                sys.modules["bergsob.bergman"].contains,
                sys.modules["bergsob.suites"].SUITES["special"],
                sys.modules["bergsob.suites"].suite_special,
            )
            for i, x in enumerate(ops):
                run_one(workload, x, traced, lambda fn, x, i=i: tr.run_op(i, fn, x))
        expect(
            all(getattr(site, tracer.MARK, False) for site in sites),
            f"{name}: from-import sites and SUITES hold wrappers while installed",
        )
        expect(
            all(ns[key] is value for ns, key, value in before) and not tracer.installed_wrappers(),
            f"{name}: uninstall restores every binding",
        )
        expect(traced.attempted == plain.attempted == len(ops), f"{name}: traced replay ran every op")

        layers = tr.layer_metrics(len(ops))
        reached = {fn for fn in _ALL if layers[f"{fn}.calls"] > 0}
        expect(
            reached == REACHES[name],
            f"{name}: reaches the predicted functions "
            f"(missing {sorted(REACHES[name] - reached)}, unexpected {sorted(reached - REACHES[name])})",
        )
        self_total = sum(v for k, v in layers.items() if k.endswith(".self_s")) * len(ops)
        expect(
            abs(self_total / traced.elapsed - 1.0) < 0.02,
            f"{name}: self times add up to {self_total:.3f} s of {traced.elapsed:.3f} s op time",
        )
        if name in DOMINANT:
            share = layers[f"{DOMINANT[name]}.self_s"] * len(ops) / traced.elapsed
            expect(share > 0.5, f"{name}: {DOMINANT[name]} takes {share:.0%} of op time")
        for counter, where in COUNTERS.items():
            expect((layers[counter] > 0) == (name in where), f"{name}: {counter} = {layers[counter]}")
        suites_reached = any(layers[f"suites.suite_{s}.wall_s"] > 0 for s in tracer.SUITE_NAMES)
        expect(suites_reached == (name == "verify_full"), f"{name}: suite spans only under verify")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(per_layer == tracer.LAYER_UNITS, "BENCHMARK.json per_layer matches the tracer's metrics")
    expect(
        [m["name"] for m in bench["end_to_end"]] == list(run.CONTRACT_E2E),
        "BENCHMARK.json end_to_end matches run.py",
    )
    expect(
        {w["name"] for w in bench["workloads"]} == set(WORKLOADS) == set(run.SETUP_SAMPLES),
        "BENCHMARK.json workloads match workloads.py and run.py",
    )
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
