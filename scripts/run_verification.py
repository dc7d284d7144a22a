#!/usr/bin/env python3
"""Run the seeded verification corpora and print slack statistics.

Usage: python scripts/run_verification.py [--seed N] [--count N]
"""

import argparse
import sys
import time
from collections import Counter
from fractions import Fraction

from staircase.cli import _int_at_least
from staircase.invariants import (
    codim2_corpus,
    verify_codim2,
    verify_zero_dim,
    zero_dim_corpus,
)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=_int_at_least(0), default=500)
    args = ap.parse_args()

    t0 = time.perf_counter()
    dims = Counter()
    min_slack = {"length_volume": None, "mult_diagonal": None}
    equalities = 0
    failures = 0
    for J in zero_dim_corpus(args.seed, args.count, dims=(2, 3, 4)):
        r = verify_zero_dim(J, fatal=False)
        failures += bool(r.violations())
        dims[J.n] += 1
        equalities += r.closure_equality
        for key, slack in (
            ("length_volume", r.length_volume_lhs - r.length_volume_rhs),
            ("mult_diagonal", r.mult_diagonal_lhs - r.mult_diagonal_rhs),
        ):
            if min_slack[key] is None or slack < min_slack[key]:
                min_slack[key] = slack
    print(f"zero-dimensional suite: {args.count} ideals {dict(dims)} in {time.perf_counter()-t0:.1f}s")
    print(f"  violations: {failures}")
    print(f"  closure-power equality cases: {equalities}")
    for key, slack in min_slack.items():
        print(f"  smallest {key} slack: {slack}")

    t0 = time.perf_counter()
    failures = 0
    sharp_eq = 0
    worst_gap = Fraction(0)
    for J in codim2_corpus(args.seed, args.count):
        r = verify_codim2(J, fatal=False)
        failures += bool(r.violations())
        sharp_eq += r.sharp_equality
        gap = (r.mult_bound_lhs - r.mult_bound_rhs) - (r.sharp_bound_lhs - r.sharp_bound_rhs)
        worst_gap = max(worst_gap, gap)
    print(f"two-variable suite: {args.count} ideals in {time.perf_counter()-t0:.1f}s")
    print(f"  violations: {failures}")
    print(f"  sharp-bound equality cases: {sharp_eq}")
    print(f"  largest sharpening over the weak bound: {worst_gap}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
