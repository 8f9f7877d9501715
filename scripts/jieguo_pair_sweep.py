#!/usr/bin/env python3
"""Sweep every (t, m) solution of the order-3 congruence system for a
given q, build the trinomial for each pair, cross-check it against the
brute-force oracle, and print one table row per pair.

Usage:
    python3 scripts/jieguo_pair_sweep.py --q 64
    python3 scripts/jieguo_pair_sweep.py --q 64 --threads 4 --json
"""
import argparse
import json
import sys
from time import perf_counter

from ncyclepp.errors import NcycleError
from ncyclepp.families import (
    build_jieguo, check_jieguo_q, solve_jieguo_congruences,
)
from ncyclepp.field import make_field
from ncyclepp.oracle import cross_check


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q", type=int, default=64,
                    help="base field order; the map lives over GF(q^2)")
    ap.add_argument("--threads", type=int, default=None,
                    help="thread count for oracle evaluation")
    ap.add_argument("--json", action="store_true",
                    help="emit one JSON object per pair instead of a table")
    args = ap.parse_args(argv)

    t0 = perf_counter()
    try:   # the shape of q, then the field and its cap, then the scan
        check_jieguo_q(args.q)
        ctx = make_field(2, 2 * (args.q.bit_length() - 1))
        pairs = solve_jieguo_congruences(args.q)
    except NcycleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if not args.json:
        print(f"{len(pairs)} congruence solutions for q = {args.q} "
              f"over GF({ctx.p}^{ctx.n})")
        print(f"{'t':>4} {'m':>4} {'degenerate':>10} {'order':>6} "
              f"{'status':>18}  polynomial")

    bad = 0
    for t, m in pairs:
        inst = build_jieguo(args.q, t, m, ctx=ctx)
        rep = cross_check(inst, threads=args.threads)
        if not rep.agree:
            bad += 1
        if args.json:
            print(json.dumps({"t": t, "m": m,
                              "degenerate": inst.degenerate,
                              "poly": inst.poly.to_text(),
                              "cross_check": rep.to_json()},
                             sort_keys=True))
        else:
            print(f"{t:>4} {m:>4} {str(inst.degenerate):>10} "
                  f"{rep.oracle.order!s:>6} {rep.status:>18}  "
                  f"{inst.poly.to_text()}")

    elapsed = perf_counter() - t0
    print(f"checked {len(pairs)} pairs in {elapsed:.2f}s, "
          f"{bad} disagreements", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
