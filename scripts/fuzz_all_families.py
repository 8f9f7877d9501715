#!/usr/bin/env python3
"""Run the seeded criterion-vs-oracle fuzzer over every registered family
and print a per-family outcome summary plus a global tally.

Each trial draws a valid, perturbed, or deliberately invalid parameter set,
builds the instance, and compares the algebraic criterion's verdict with an
exhaustive brute-force check.  Each distinct instance is built and checked
once per family, so "N comparisons (M distinct)" counts the trials that
compared verdicts and the distinct instances among them.  A healthy run
ends with zero disagreements.

Usage:
    python3 scripts/fuzz_all_families.py
    python3 scripts/fuzz_all_families.py --seed 7 --trials 100 --lines
"""
import argparse
import sys
from time import perf_counter

from ncyclepp.oracle import FUZZ_FAMILIES, random_family_fuzz


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trials", type=int, default=40,
                    help="trials per family")
    ap.add_argument("--families", nargs="*", default=sorted(FUZZ_FAMILIES),
                    help="subset of families to run")
    ap.add_argument("--lines", action="store_true",
                    help="also emit the raw per-trial JSON lines")
    args = ap.parse_args(argv)

    t0 = perf_counter()
    total = {"comparisons": 0, "distinct": 0, "disagreements": 0,
             "failures": 0}
    width = max(len(f) for f in args.families)
    for fam in args.families:
        summary = random_family_fuzz(fam, args.seed, args.trials)
        if args.lines:
            for line in summary.to_json_lines():
                print(line)
        counts = summary.counts()
        total["comparisons"] += summary.comparisons
        total["distinct"] += summary.distinct
        total["disagreements"] += len(summary.disagreements)
        total["failures"] += len(summary.failures)
        shown = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(f"{fam:<{width}}  {summary.comparisons:>4} comparisons "
              f"({summary.distinct:>4} distinct)  [{shown}]")

    elapsed = perf_counter() - t0
    print(f"\n{total['comparisons']} comparisons "
          f"({total['distinct']} distinct), "
          f"{total['disagreements']} disagreements, "
          f"{total['failures']} failed trials "
          f"({elapsed:.2f}s, seed {args.seed})")
    return 1 if total["disagreements"] or total["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
