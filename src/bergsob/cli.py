"""Batch front end: evaluations, scans, certificates, verification.

Subcommands
-----------
threshold   sharp exponent for (mu, p), or the mu realizing a target r
lambda      one moment: closed form, independent quadrature, verdict
scan        continuity certificates over an s grid (CSV or JSON rows)
sharpness   the sharpness table: verify's sharpness check at each target r
verify      run the invariant suites; exit 0 only if all pass

Exit codes: 0 success, 1 property failure, 2 usage error or a value the
quadrature could not certify.  JSON output
is deterministic for a fixed seed (keys sorted, floats via repr);
wall-clock timings go to stderr only.

CSV columns of ``scan``: s, status, sup_ratio, bound, argmax_j, argmax_k.
Rows with s at or above the threshold carry status DIVERGENT and empty
numeric fields; a negative or non-finite s, or a start:stop:step grid of
10000 or more steps, is a usage error.

JSON ``entries`` of ``sharpness``, one per (r, p): r, p, the mu realizing
threshold r, the certificate at s = r - min(0.02, r/2) and the witness at
r; exit 1 when either fails regularity.sharpness_checks.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from typing import Optional

import numpy as np

from . import measure, quadrature, regularity, suites
from .errors import DomainError
from .geometry import DomainParams

__all__ = ["main", "build_parser"]

SCHEMA_VERSION = 1  # version stamp of every machine-readable payload


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_threshold(args) -> int:
    mu = args.mu if args.invert is None else regularity.mu_for_threshold(args.invert, args.p)
    report = regularity.threshold(DomainParams(mu), args.p)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "threshold",
        "mu": report.mu,
        "p": report.p,
        "r": report.r,
        "binding": report.binding,
        "clause_value": report.clause_value,
    }
    if args.invert is not None:
        payload["inverted_from_r"] = args.invert
    _emit(_json(payload), args.output)
    return 0


def cmd_lambda(args) -> int:
    params = DomainParams(args.mu)
    if not all(map(math.isfinite, (args.x, args.y, args.s))):
        raise DomainError(f"x, y and s must be finite, got ({args.x}, {args.y}, {args.s})")
    m = measure.MomentArgs(args.x, args.y, args.s, params)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "lambda",
        "mu": args.mu,
        "x": args.x,
        "y": args.y,
        "s": args.s,
        "integrable": measure.is_integrable(m),
    }
    if measure.is_integrable(m):
        closed = measure.lambda_closed(m)
        quad, quad_err = measure.lambda_quadrature(m)
        payload.update(
            {
                "closed": closed,
                "quadrature": quad,
                "quadrature_err_estimate": quad_err,
                "rel_difference": abs(closed - quad) / closed,
                "verdict": "finite",
            }
        )
    else:
        payload.update(
            {"verdict": "divergent", "violated_condition": f"{measure.violated_clause(m)} violated"}
        )
        if args.truncate_fit:
            fit = measure.truncation_growth_fit(m)
            payload["growth_fit"] = {
                "kind": fit.kind,
                "exponent": fit.exponent,
                "coefficient": fit.coefficient,
                "closed_form_coefficient": fit.closed_form,
            }
    _emit(_json(payload), args.output)
    return 0


_MAX_S_STEPS = 10000


def _parse_s_grid(spec: str) -> list[float]:
    try:
        parts = [float(p) for p in spec.split(":" if ":" in spec else ",") if p.strip()]
    except ValueError as exc:
        raise DomainError(f"bad s grid {spec!r}: {exc}") from None
    if not all(map(math.isfinite, parts)):
        raise DomainError(f"s grid values must be finite, got {spec!r}")
    if ":" in spec:
        if len(parts) != 3:
            raise DomainError(f"s grid must be start:stop:step, got {spec!r}")
        start, stop, step = parts
        if step <= 0 or stop < start:
            raise DomainError(f"empty s grid {spec!r}")
        if (stop - start) / step >= _MAX_S_STEPS:  # before np.arange allocates them
            raise DomainError(f"s grid {spec!r} has {_MAX_S_STEPS} or more steps")
        values = [float(v) for v in np.arange(start, stop + 0.5 * step, step)]
    else:
        values = parts
    if not values:
        raise DomainError("empty s grid")
    if not all(v >= 0.0 for v in values):
        raise DomainError(f"s grid values must be >= 0, got {spec!r}")
    return values


_SCAN_COLUMNS = ("s", "status", "sup_ratio", "bound", "argmax_j", "argmax_k")


def cmd_scan(args) -> int:
    params = DomainParams(args.mu)
    jmax, kmax = args.lattice
    rows = []
    thr = regularity.threshold(params, args.p)
    for s in _parse_s_grid(args.s_grid):
        row = dict.fromkeys(_SCAN_COLUMNS)
        row.update(s=s, status="DIVERGENT")
        if s < thr.r:
            cert = regularity.continuity_certificate(params, args.p, s, (jmax, kmax))
            row.update(
                status="OK",
                sup_ratio=float(cert.sup_ratio),
                bound=float(cert.bound_used),
                argmax_j=cert.sup_attained_at.j,
                argmax_k=cert.sup_attained_at.k,
            )
        rows.append(row)
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "scan",
            "mu": args.mu,
            "p": args.p,
            "threshold": thr.r,
            "lattice": [jmax, kmax],
            "rows": rows,
        }
        _emit(_json(payload), args.output)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(_SCAN_COLUMNS)
        for row in rows:
            writer.writerow(
                ["" if v is None else repr(v) if isinstance(v, float) else v for v in row.values()]
            )
        _emit(buf.getvalue(), args.output)
    return 0


def cmd_verify(args) -> int:
    names = [args.suite] if args.suite else None
    started = resumed = time.perf_counter()
    results = []
    for result in suites.run_suites(args.seed, names, self_test=args.self_test):
        done = time.perf_counter()
        results.append(result)
        print(
            f"[verify] {result.name}: {'pass' if result.passed else 'FAIL'} "
            f"({result.checks} checks in {done - resumed:.2f}s, {done - started:.1f}s elapsed)",
            file=sys.stderr,
        )
        resumed = time.perf_counter()
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "seed": args.seed,
        "self_test": args.self_test,
        "suites": [r.to_dict() for r in results],
        "all_passed": all(r.passed for r in results),
    }
    _emit(_json(payload), args.output)
    if not payload["all_passed"]:
        first = next(r for r in results if not r.passed)
        print(f"[verify] first failure: {first.failures[0]}", file=sys.stderr)
        return 1
    return 0


def cmd_sharpness(args) -> int:
    res = suites.SuiteResult("sharpness")
    pairs = suites.check_sharpness(res, args.r, (40, 40), ratio_slack=1e-9, growth_tol=0.05)
    entries = [
        {
            "r": wit.s, "p": wit.p, "mu": wit.mu,
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
                "growth_coefficient": wit.growth.coefficient,
                "closed_form_coefficient": wit.growth.closed_form,
            },
        }
        for cert, wit, within in pairs
    ]
    payload = {"schema_version": SCHEMA_VERSION, "command": "sharpness", "entries": entries}
    _emit(_json(payload), args.output)
    return 0 if res.passed else 1


def _lattice(text: str) -> tuple[int, int]:
    try:
        j, k = (int(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"lattice must be Jmax,Kmax: {exc}")
    return j, k


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors are one stderr line, without the usage."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bergsob",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_thr = sub.add_parser("threshold", help="sharp Sobolev exponent for (mu, p)")
    p_thr.add_argument("--p", type=int, choices=(0, 1, 2), required=True)
    which = p_thr.add_mutually_exclusive_group(required=True)
    which.add_argument("--mu", type=float)
    which.add_argument("--invert", type=float, metavar="R", help="find mu whose threshold is R")
    p_thr.add_argument("--output", default=None)
    p_thr.set_defaults(func=cmd_threshold)

    p_lam = sub.add_parser("lambda", help="evaluate one weighted moment both ways")
    p_lam.add_argument("--mu", type=float, required=True)
    p_lam.add_argument("--x", type=float, required=True)
    p_lam.add_argument("--y", type=float, required=True)
    p_lam.add_argument("--s", type=float, required=True)
    p_lam.add_argument("--truncate-fit", action="store_true",
                       help="fit the truncation growth of a divergent moment")
    p_lam.add_argument("--output", default=None)
    p_lam.set_defaults(func=cmd_lambda)

    p_scan = sub.add_parser("scan", help="continuity certificates over an s grid")
    p_scan.add_argument("--mu", type=float, required=True)
    p_scan.add_argument("--p", type=int, choices=(0, 1, 2), required=True)
    p_scan.add_argument("--s-grid", required=True,
                        help="start:stop:step or comma-separated values")
    p_scan.add_argument("--lattice", type=_lattice, default=(40, 40), metavar="J,K")
    p_scan.add_argument("--format", choices=("csv", "json"), default="csv")
    p_scan.add_argument("--output", default=None)
    p_scan.set_defaults(func=cmd_scan)

    p_sharp = sub.add_parser("sharpness", help="certificate and witness at each target threshold")
    p_sharp.add_argument("--r", type=float, nargs="+", default=[0.1, 0.2, 0.3, 0.4])
    p_sharp.add_argument("--output", default=None)
    p_sharp.set_defaults(func=cmd_sharpness)

    p_ver = sub.add_parser("verify", help="run the invariant suites")
    p_ver.add_argument("--suite", default=None, choices=sorted(suites.SUITES),
                       help="run a single suite instead of all")
    p_ver.add_argument("--seed", type=int, default=20240901)
    p_ver.add_argument("--self-test", action="store_true",
                       help="inject a wrong recursion constant; must exit 1")
    p_ver.add_argument("--output", default=None)
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except quadrature.QuadratureError as exc:
        print(f"not certified: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
