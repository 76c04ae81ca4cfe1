"""One workload process: a fresh interpreter with one client.

Started by run.py with the BLAS thread pins already in its environment.
It imports bergsob from the checkout's src/, generates the seeded inputs,
runs the first op (which ends the set-up interval that began when run.py
launched this process), then starts over at the first input and runs ops
closed-loop until their timed total reaches --seconds, and last runs the
workload's defect probes.  With --trace 1 it
runs each op twice in a row, untraced and then under the tracer, until the
timed total of both reaches --seconds.
It prints one JSON object as its last line of standard output.

    python3 perfbench/worker.py --workload scan_sweep --seed 1 --seconds 10 \
        --trace 0 --launched-at "$(python3 -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INPUTS = 4096  # about 60 s of the fastest ops today; runs cycle through them


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import bergsob

    if Path(bergsob.__file__).resolve().parent != ROOT / "src" / "bergsob":
        raise SystemExit(f"bergsob imported from {bergsob.__file__}, not from {ROOT / 'src'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launched-at", type=float, required=True,
                    help="time.monotonic() of the launching process at launch")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after the first op (a set-up sample)")
    ap.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = ap.parse_args(argv)

    import_program()
    from workloads import WORKLOADS, Outcomes, run_for, run_one

    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed, INPUTS)
    first = Outcomes()
    run_one(workload, inputs[0], first)
    setup_s = time.monotonic() - args.launched_at
    report = {"setup_s": setup_s, "first_op": first.summary()}
    if args.trace and not args.setup_only:
        report.update(_traced(workload, inputs, args.seconds, args.spans))
    elif not args.setup_only:
        measured = Outcomes()
        run_for(workload, inputs, args.seconds, measured)
        report["measured"] = measured.summary()
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.setup_only:
        # after every measurement: True while the defect still reproduces
        report["defect_probes"] = {tag: probe() for tag, probe in workload.defect_probes.items()}
    report["environment"] = _environment()
    print(json.dumps(report))
    return 0


def _traced(workload, inputs, seconds: float, spans_path) -> dict:
    """Each op runs twice in a row, untraced and then traced, so that drift
    in machine speed cancels from the tracing overhead."""
    from tracer import LAYER_UNITS, Tracer
    from workloads import Outcomes, run_one

    plain, traced = Outcomes(), Outcomes()
    tracer = Tracer()
    for i, x in enumerate(itertools.cycle(inputs)):
        if plain.elapsed + traced.elapsed >= seconds:
            break
        run_one(workload, x, plain)
        with tracer:
            run_one(workload, x, traced, lambda fn, x, i=i: tracer.run_op(i, fn, x))
    layers = tracer.layer_metrics(traced.attempted)
    layers["trace_overhead_frac"] = traced.elapsed / plain.elapsed - 1.0
    if spans_path:
        tracer.write(Path(spans_path))
    return {
        "measured": plain.summary(),
        "traced": {
            "layers": {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layers.items()},
            "outcomes": traced.summary(),
            "spans": len(tracer.spans),
        },
    }


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


if __name__ == "__main__":
    raise SystemExit(main())
