#!/usr/bin/env python3
"""Sweep the continuity certificate up to the sharp threshold.

Emits one CSV row per weight s: the lattice sup of the normalized moment
ratio, the analytic bound, and the argmax index.  The sup blowing up as
s approaches the threshold (and the DIVERGENT rows past it) is the
numerical face of the sharp regularity statement; plot sup_ratio
against s to see it.

Example:
    python scripts/scan_blowup.py --mu 4.285714285714286 --p 0 \
        --points 16 --output blowup.csv
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bergsob import cli, regularity
from bergsob.errors import DomainError
from bergsob.geometry import DomainParams
from bergsob.quadrature import QuadratureError


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mu", type=float, required=True)
    parser.add_argument("--p", type=int, choices=(0, 1, 2), required=True)
    parser.add_argument("--points", type=int, default=12)
    parser.add_argument("--overshoot", type=float, default=0.04,
                        help="extend the grid this far past the threshold")
    parser.add_argument("--lattice", default="40,40")
    parser.add_argument("--output", default=None)
    args = parser.parse_args(argv)
    if args.points < 1 or not math.isfinite(args.overshoot):
        print(f"error: need --points >= 1 and a finite --overshoot, got {args.points} "
              f"and {args.overshoot}", file=sys.stderr)
        return 2
    try:
        thr = regularity.threshold(DomainParams(args.mu), args.p)
    except (DomainError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stop = min(0.499, thr.r + args.overshoot)
    step = stop / args.points
    grid = f"0:{stop}:{step}"
    print(f"threshold r = {thr.r} (binding: {thr.binding}); scanning {grid}",
          file=sys.stderr)
    scan_argv = ["scan", "--mu", str(args.mu), "--p", str(args.p),
                 "--s-grid", grid, "--lattice", args.lattice]
    if args.output:
        scan_argv += ["--output", args.output]
    return cli.main(scan_argv)


if __name__ == "__main__":
    raise SystemExit(main())
