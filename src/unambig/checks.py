"""The paper's statements as bundles of exact checks.

Each bundle yields ``(ok, description)`` pairs in a fixed order.  ``unambig
verify`` prints them and the acceptance criteria assert them, so each check
is written once, here.  Every decision runs at the callees' default budget;
a decision that runs out of it is a BudgetError, never a failed check.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .conditions import candidate_pairs
from .errors import BudgetError, DomainError, ResourceError
from .explorer import check_enumeration, enumerate_canonical_patterns, search_1uniform
from .generators import (
    _check_length,
    debruijn_patterns,
    debruijn_word,
    shortest_non_fixed_point,
    squares_pattern,
    thue_morphism,
    thue_word,
)
from .morphisms import Morphism, merge_morphism
from .solver import DEFAULT_BUDGET, _ambiguity_verdict, fixed_point_verdict
from .words import Pattern, parse_pattern

Check = tuple[bool, str]

# smallest m for which the squares-pattern statement holds; below it a
# binary 1-uniform morphism is unambiguous on 1 1 2 2 ... m m
THUE_MIN_M = 4
# known prefix of the ternary square-free word
THUE_PREFIX_21 = "abcacbabcbacabcacbaca"
DEBRUIJN_3_2 = "aabacbbcca"
# obtained from aabacbbcca by replacing each letter's occurrences with
# fresh variables, two blocks for the a's and one for each other letter
DB_PATTERN_SAMPLE = "1 1 2 3 4 2 2 4 4 3"


def _unambiguous(sigma: Morphism, pattern: Pattern) -> bool:
    images = {v: sigma[v] for v in pattern.variables}
    verdict = _ambiguity_verdict(pattern.symbols, sigma.apply(pattern), images, DEFAULT_BUDGET)
    if verdict is None:
        raise BudgetError(f"ambiguity check of {sigma} on {pattern} exceeded {DEFAULT_BUDGET} nodes")
    return not verdict


def _fixed_point(pattern: Pattern) -> bool:
    verdict = fixed_point_verdict(pattern)
    if verdict is None:
        raise BudgetError(f"fixed-point check of {pattern} exceeded {DEFAULT_BUDGET} nodes")
    return verdict


def thue_checks(ms: range) -> Iterator[Check]:
    """Over two letters no 1-uniform morphism is unambiguous on the squares
    pattern 1 1 2 2 ... m m for m >= THUE_MIN_M; the ternary square-free
    morphism is.  Before the first check, an m below that range is a
    DomainError and an m whose squares pattern is past the generators'
    length bound a ResourceError.  Only the ascending span's two ends are
    read, so a span of any size is refused at once."""
    if ms:
        if ms[0] < THUE_MIN_M:
            raise DomainError(f"the squares-pattern statement needs m >= {THUE_MIN_M}, got m={ms[0]}")
        _check_length("the squares pattern", 2 * ms[-1])
    yield thue_word(21) == THUE_PREFIX_21, "square-free word prefix of length 21"
    for m in ms:
        alpha = squares_pattern(m)
        yield (
            search_1uniform(alpha, 2) is None,
            f"no binary unambiguous 1-uniform morphism for the m={m} squares pattern",
        )
        sigma = thue_morphism(m)
        yield sigma.letters <= {"a", "b", "c"}, f"square-free morphism at m={m} uses only a, b, c"
        yield (
            _unambiguous(sigma, alpha),
            f"ternary square-free morphism unambiguous at m={m}",
        )


def shortest_checks(ns: Iterable[int]) -> Iterator[Check]:
    """The shortest n-variable non-fixed-point pattern has a binary
    unambiguous morphism."""
    for n in ns:
        pattern, sigma = shortest_non_fixed_point(n)
        yield not _fixed_point(pattern), f"n={n} pattern is not a fixed point"
        yield (
            len(pattern.variables) == n and all(pattern.multiplicity(v) == 2 for v in pattern.variables),
            f"n={n} pattern has {n} variables, each twice",
        )
        yield sigma.letters <= {"a", "b"}, f"n={n} morphism uses only a, b"
        yield _unambiguous(sigma, pattern), f"n={n} binary morphism unambiguous"


def pi_db_checks(k: int) -> Iterator[Check]:
    """The patterns built from the de Bruijn words B'(k, 2) have the expected
    variable count, and each one's natural morphism is unambiguous.  Only
    k = 3 is in reach: the k = 4 family runs past 1.6 million patterns, and
    the bundle lists it whole, so any other k is a ResourceError before the
    first check."""
    if k != 3:
        raise ResourceError(f"the pi-db bundle supports k = 3 only, got {k}")
    yield debruijn_word(3, 2) == DEBRUIJN_3_2, "de Bruijn word for k=3, n=2"
    items = list(debruijn_patterns(k))
    expected_vars = (k - 1) * (k // 2) + (k + 1) // 2
    yield (
        all(len(item.pattern.variables) == expected_vars for item in items),
        f"every pattern has exactly {expected_vars} variables",
    )
    distinct = {item.pattern for item in items}
    yield len(distinct) >= 36, f"at least 36 distinct patterns (got {len(distinct)})"
    yield parse_pattern(DB_PATTERN_SAMPLE) in distinct, "sample pattern emitted"
    natural = dict.fromkeys((item.pattern, item.natural_morphism) for item in items)
    yield (
        all(_unambiguous(sigma, pattern) for pattern, sigma in natural),
        f"all {len(natural)} natural morphisms unambiguous",
    )


def pair_theorem_checks(max_len: int) -> Iterator[Check]:
    """Off fixed points, every ordered pair passing the pair condition gives
    an unambiguous merging morphism, on every canonical pattern of uniform
    multiplicity >= 2 up to ``max_len``.  A failure names the first
    violating pattern and pair.  A ``max_len`` beyond the enumeration guard
    is a ResourceError before the first check, not after the sweep.

    Each pair i < j is solved once and counts for both orders, which is
    exact: the pair condition is symmetric, and merge(j, i) is merge(i, j)
    with one letter renamed, so the two morphisms have the same verdict.
    Violations are then symmetric too, and since (i, j) precedes (j, i) for
    i < j, the first violating ordered pair is the first violating i < j."""
    check_enumeration(max_len)
    patterns = checked_pairs = 0
    violation = None
    for length in range(2, max_len + 1):
        for mult in range(2, length + 1):
            if length % mult:
                continue
            for pattern in enumerate_canonical_patterns(length, uniform_multiplicity=mult):
                if _fixed_point(pattern):
                    continue
                patterns += 1
                for i, j in candidate_pairs(pattern):
                    checked_pairs += 2
                    sigma = merge_morphism(pattern.variables, i, j)
                    if violation is None and not _unambiguous(sigma, pattern):
                        violation = f" (first violation: pattern {pattern}, pair ({i}, {j}))"
    yield (
        violation is None,
        f"{checked_pairs} passing pairs across {patterns} uniform non-fixed-point "
        f"patterns of length <= {max_len} all verify unambiguous{violation or ''}",
    )
