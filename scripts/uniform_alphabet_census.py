#!/usr/bin/env python3
"""Tabulate the least alphabet size admitting an unambiguous 1-uniform
morphism, across all canonical patterns of a given length.

Fixed points never admit one and are counted separately.  For every other
pattern the census records the least k for which the search succeeds.
Needing the full alphabet k = |var(pattern)| is routine below 4 variables
but conjectured impossible from 4 on, so those cases are flagged.

Exit codes: 0 no flagged pattern, 1 some pattern needs the full alphabet
despite at least 4 variables, 4 an internal inconsistency (a bug).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from unambig.errors import InconsistencyError
from unambig.explorer import enumerate_canonical_patterns, search_1uniform
from unambig.solver import DEFAULT_BUDGET, fixed_point_verdict


def least_alphabet(pattern, budget: int) -> int:
    for k in range(1, len(pattern.variables) + 1):
        if search_1uniform(pattern, k, budget=budget) is not None:
            return k
    raise InconsistencyError(f"renaming must be unambiguous off fixed points: {pattern}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, required=True)
    parser.add_argument("--min-vars", type=int, default=1)
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    parser.add_argument(
        "--jsonl",
        type=argparse.FileType("w"),
        default=None,
        help="also write one record per pattern",
    )
    args = parser.parse_args(argv)

    census: Counter[tuple[int, int]] = Counter()
    fixed_points = 0
    tight = []
    for pattern in enumerate_canonical_patterns(args.length, min_vars=args.min_vars):
        if fixed_point_verdict(pattern, budget=args.budget):
            fixed_points += 1
            continue
        n = len(pattern.variables)
        try:
            k = least_alphabet(pattern, args.budget)
        except InconsistencyError as exc:
            print(f"internal inconsistency: {exc}", file=sys.stderr)
            return 4
        census[n, k] += 1
        if k == n and n >= 4:
            tight.append(pattern)
        if args.jsonl:
            args.jsonl.write(json.dumps({"pattern": str(pattern), "vars": n, "least_k": k}) + "\n")

    print(f"length {args.length}: {fixed_points} fixed points (no unambiguous 1-uniform morphism)")
    print(f"{'vars':>4} {'least_k':>7} {'patterns':>8}")
    for (n, k), count in sorted(census.items()):
        print(f"{n:>4} {k:>7} {count:>8}")
    for pattern in tight:
        print(f"ATTENTION: needs the full alphabet despite >= 4 variables: {pattern}")
    return 1 if tight else 0


if __name__ == "__main__":
    sys.exit(main())
