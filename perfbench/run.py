"""The bergsob benchmark: one command, three seeded closed-loop workloads.

    python3 perfbench/run.py --workload scan_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its src/.
Each workload runs in fresh interpreters with one client and BLAS pinned to
one thread (see workloads.py for what each op is and why).  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The line before it records the environment and every
metric with its unit and sample count.

--trace 0 reports the end-to-end metrics that BENCHMARK.json bounds:
  ops_per_s    successful ops per second of timed op time (checks excluded)
  op_p50_s     median latency of the successful ops
  setup_s      median over several fresh interpreters of the time from launch
               through `import bergsob` and input generation to the end of
               the first op
The detail line adds, unbounded:
  op_p90_s     only when at least 100 ops succeeded
  failed_frac  failed ops over attempted ops, among the first 60 measured
  peak_rss_mb  ru_maxrss of the measured workload process.  It is the
               footprint of the single largest op, and on witness_fit it
               moved from 71 to 99 MB across ten seeds with the rare costly
               op, so it is reported but cannot hold a bound across seeds.
--trace 1 reports the per-layer metrics of tracer.py.  Each op runs twice
in a row, untraced and then traced; the untraced runs give the tracing
overhead.  The spans are written to perfbench/out/.

`correct` is false when any op fails, the set-up ops included.  The detail
line also says whether each known defect of the program (workloads.py,
DEFECT_PROBES) still reproduces; the workloads' inputs avoid them.
The exit code is 0 when a result was printed, 1 when the run could not
produce one, and 2 when the checkout holds no src/bergsob.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src" / "bergsob"
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# fresh interpreters timed for setup_s, the measured process included; a
# verify_full set-up costs one whole verify, so it gets fewer
SETUP_SAMPLES = {"scan_sweep": 7, "witness_fit": 7, "verify_full": 3}
CONTRACT_E2E = ("ops_per_s", "op_p50_s", "setup_s")  # the end_to_end of BENCHMARK.json
DEADLINE_S = 170.0
P90_MIN_SAMPLES = 100
# failed_frac covers the first ops of the input list only, so that it repeats
# exactly for a seed whatever the machine speed (a 30 s run does ~150 ops on
# scan_sweep and witness_fit, ~8 on verify_full)
FAILED_FRAC_OPS = 60


class RunFailed(RuntimeError):
    pass


def launch(args, deadline: float, *extra: str) -> dict:
    """Run one worker process to completion and return its report."""
    env = dict(os.environ, **BLAS_PINS)
    started = time.monotonic()
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--launched-at", repr(started),
        *extra,
    ]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise RunFailed("worker did not finish before the deadline") from None
    if proc.returncode != 0:
        raise RunFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(args) -> dict:
    files = sorted(SRC.glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def metric(value: float, unit: str, n: int) -> dict:
    return {"value": value, "unit": unit, "n": n}


def end_to_end(main: dict, setup: list[float]) -> dict:
    m = main["measured"]
    lat = m["latencies_s"]
    ok = m["ok"][:FAILED_FRAC_OPS]
    if not lat:
        raise RunFailed("no op succeeded")
    out = {
        "ops_per_s": metric(len(lat) / m["elapsed_s"], "1/s", m["attempted"]),
        "op_p50_s": metric(statistics.median(lat), "s", len(lat)),
        "setup_s": metric(statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": metric(main["peak_rss_mb"], "MB", 1),
        "failed_frac": metric(ok.count(False) / len(ok), "fraction", len(ok)),
    }
    if len(lat) >= P90_MIN_SAMPLES:
        out["op_p90_s"] = metric(statistics.quantiles(lat, n=10)[8], "s", len(lat))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", required=True, choices=sorted(SETUP_SAMPLES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"error: no program to measure at {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.npz"
            runs = [launch(args, deadline, "--spans", str(spans))]
        else:
            runs = [
                launch(args, deadline, "--setup-only")
                for _ in range(SETUP_SAMPLES[args.workload] - 1)
            ]
            runs.append(launch(args, deadline))
        main_run = runs[-1]
        measured = [main_run["measured"]]
        if args.trace:
            measured.append(main_run["traced"]["outcomes"])
            metrics = main_run["traced"]["layers"]
            detail = {**metrics, "spans": main_run["traced"]["spans"]}
        else:
            detail = end_to_end(main_run, [r["setup_s"] for r in runs])
            metrics = {
                k: {"value": detail[k]["value"], "unit": detail[k]["unit"]}
                for k in CONTRACT_E2E
            }
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    phases = [r["first_op"] for r in runs] + measured
    record = {
        "environment": {**environment(args), **main_run["environment"]},
        "metrics": detail,
        "known_defects_reproduce": main_run["defect_probes"],
        "failures": [f for ph in phases for f in ph["failures"]],
    }
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": not any(ph["failed"] for ph in phases),
        "attempted": sum(ph["attempted"] for ph in measured),
        "failed": sum(ph["failed"] for ph in measured),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
