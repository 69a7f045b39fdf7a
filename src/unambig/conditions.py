"""Structural conditions that certify fixed points or unambiguity cheaply.

Each check here is a sound shortcut for a question the solver could settle by
exhaustive search: a neighbourhood shape that forces a pattern to be a fixed
point and a pair condition that forces the pair-merging morphism to be
unambiguous.  ``image_is_fixed_point`` is a public check the other way: a
pair whose merged image word is itself a fixed point has an ambiguous
pair-merging morphism.  The neighbourhood shape is defined in ``words``, next
to :func:`~unambig.words.neighbourhoods`, and re-exported here.  The solver does
not use it: its search decides the same keys, and over every key of a length
the check costs more than the searches it saves.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, count
from typing import Sequence

from .errors import BudgetError, DomainError
from .morphisms import merge_morphism
from .solver import (
    DEFAULT_BUDGET,
    _covers_search_tree,
    _key_verdict,
    _validate_budget,
    fixed_point_verdict,
)
from .words import (
    BOUNDARY,
    Pattern,
    canonical_symbols,
    factor_multiplicity,
    first_occurrence_order,
    fixed_point_by_neighbourhoods,
    word_to_pattern,
)


@dataclass(frozen=True)
class PairConditionReport:
    """Outcome of the pair condition for an ordered variable pair (i, j).

    ``passes`` is true iff all variables share one multiplicity m >= 2, no
    variable sees both i and j on the same side, and the pattern does not
    contain disjoint occurrences of the factors i j and j i (in either
    order).  All three clauses are symmetric in i and j.
    """

    uniform_multiplicity: int | None
    covered_by_left: int | None
    covered_by_right: int | None
    has_ij_then_ji: bool
    passes: bool


def _pair_clauses(pattern: Pattern):
    """A function of a pair (i, j) giving the fields of its
    PairConditionReport, in order.

    What does not depend on the pair is computed once, here: each
    variable's positions and the symbol before and after every position,
    the boundary at the ends.  A variable k sees both i and j on its left
    iff it follows an occurrence of each, so the clauses are read from the
    symbols after (or before) i's and j's positions; no neighbourhood set
    is built.
    """
    counts = set(pattern.multiplicities.values())
    uniform = counts.pop() if len(counts) == 1 else None
    uniform_ok = uniform is not None and uniform >= 2
    symbols = pattern.symbols
    before = (BOUNDARY,) + symbols
    after = symbols[1:] + (BOUNDARY,)
    positions: dict[int, list[int]] = {}
    for p, s in enumerate(symbols):
        positions.setdefault(s, []).append(p)

    def least_shared(neighbours: tuple[int, ...], at_i: list[int], at_j: list[int]) -> int | None:
        # the boundary is next to one position only, so two distinct
        # variables never share it
        shared = {neighbours[a] for a in at_i}.intersection([neighbours[b] for b in at_j])
        return min(shared, default=None)

    def clauses(i: int, j: int) -> tuple[int | None, int | None, int | None, bool, bool]:
        at_i = positions[i]
        at_j = positions[j]
        left = least_shared(after, at_i, at_j)
        right = least_shared(before, at_i, at_j)
        # Disjoint occurrences only; overlapping ones like i j i share the
        # middle symbol and do not count.  Erasing j and doubling i (or vice
        # versa) re-parses the merged image exactly when both orientations
        # occur apart, so the test must be blind to which orientation comes
        # first.
        ij = [a for a in at_i if after[a] == j]
        ji = [b for b in at_j if after[b] == i]
        apart = bool(ij and ji) and (ji[-1] >= ij[0] + 2 or ij[-1] >= ji[0] + 2)
        return uniform, left, right, apart, uniform_ok and left is None and right is None and not apart

    return clauses


def pair_condition(pattern: Pattern, i: int, j: int) -> PairConditionReport:
    if i not in pattern.variables or j not in pattern.variables:
        raise DomainError(f"variables {i}, {j} must both occur in the pattern")
    if i == j:
        raise DomainError("the pair must consist of two distinct variables")
    return PairConditionReport(*_pair_clauses(pattern)(i, j))


def candidate_pairs(pattern: Pattern) -> list[tuple[int, int]]:
    """All pairs (i, j) with i < j passing the pair condition, lexicographically.

    The condition is symmetric, so the i < j representatives lose nothing.
    """
    if len(pattern.variables) < 2:
        return []
    clauses = _pair_clauses(pattern)
    return [pair for pair in combinations(sorted(pattern.variables), 2) if clauses(*pair)[-1]]


def image_is_fixed_point(pattern: Pattern, i: int, j: int, *, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether the pair-merged image word, read as a pattern, is a fixed point.

    A true result means the pair-merging morphism for (i, j) is certainly
    ambiguous.
    """
    word = merge_morphism(pattern.variables, i, j).apply(pattern)
    verdict = fixed_point_verdict(word_to_pattern(word), budget=budget)
    if verdict is None:
        raise BudgetError(f"fixed-point check of the merged image exceeded {budget} nodes")
    return verdict


def has_unique_2_factors(word: str) -> bool:
    """True iff every length-2 factor of the word occurs exactly once."""
    if len(word) < 2:
        raise DomainError("the word must have length at least 2")
    return all(count == 1 for count in factor_multiplicity(word, 2).values())


@dataclass(frozen=True)
class BillaudReport:
    """Fixed-point statuses of a pattern and its single-variable deletions.

    The conjecture under test: if deleting any one variable always leaves a
    fixed point, the pattern itself is one.  ``conjecture_instance_ok`` is
    false exactly on counterexamples.
    """

    delta_fixed_point: dict[int, bool]
    hypothesis_holds: bool
    alpha_is_fixed_point: bool
    conjecture_instance_ok: bool


def billaud_instance(pattern: Pattern, *, budget: int = DEFAULT_BUDGET) -> BillaudReport:
    """Decide the pattern and each of its single-variable deletions.

    The pattern is canonicalised once.  Deleting the variable with
    canonical symbol r leaves a canonical key at once: every later symbol
    moves down by one.  No deletion is built as a pattern, and none is
    canonicalised again.

    A deletion is answered from the pattern's own multiplicities when that
    is exact: deleting v leaves every other multiplicity as it is and at
    least two variables, so the deletion has a variable occurring once, and
    is a fixed point, iff some u != v occurs once in the pattern.  The
    pattern itself is answered the same way when one of its variables
    occurs once, so when two occur once the whole report is true at once.
    Such an answer is taken only when the budget covers the search tree of
    the deletion or the pattern it answers for, where the search could not
    run out either.  Every other deletion, and the pattern itself, is
    answered as :func:`fixed_point_verdict` answers its canonical key.
    """
    names = first_occurrence_order(pattern)
    if len(names) < 3:
        raise DomainError("the conjecture instance needs at least 3 distinct variables")
    _validate_budget(budget)
    return _billaud_report(canonical_symbols(pattern.symbols), names, budget)


def _billaud_report(key: tuple[int, ...], names: Sequence[int], budget: int) -> BillaudReport:
    """The report of :func:`billaud_instance` on a canonical key with at
    least 3 distinct symbols, whose canonical symbol r names the variable
    ``names[r - 1]``."""
    # counts[r]: the occurrences of canonical symbol r, in one pass
    counts = [0] * (len(names) + 1)
    for s in key:
        counts[s] += 1
    singletons = counts.count(1)
    covered = _covers_search_tree(len(key), budget)
    if covered and singletons >= 2:
        # every deletion keeps a variable occurring once, and so does the
        # pattern: all are fixed points; a deletion is shorter than the
        # pattern, so its tree is covered too
        return BillaudReport(dict.fromkeys(sorted(names), True), True, True, True)
    delta_status: dict[int, bool] = {}
    for var, r in sorted(zip(names, count(1))):
        # the deletion has a variable occurring once iff another one does,
        # and that answers before the verdict cache when the budget covers
        # the deletion's own tree
        if singletons > (counts[r] == 1) and (
            covered or _covers_search_tree(len(key) - counts[r], budget)
        ):
            delta_status[var] = True
            continue
        deleted = tuple([s if s < r else s - 1 for s in key if s != r])
        verdict = _key_verdict(deleted, budget)
        if verdict is None:
            raise BudgetError(f"fixed-point check after deleting {var} exceeded {budget} nodes")
        delta_status[var] = verdict
    if covered and singletons:
        alpha_fp = True
    else:
        alpha_fp = _key_verdict(key, budget)
    if alpha_fp is None:
        raise BudgetError(f"fixed-point check of the pattern exceeded {budget} nodes")
    hypothesis = all(delta_status.values())
    return BillaudReport(
        delta_fixed_point=delta_status,
        hypothesis_holds=hypothesis,
        alpha_is_fixed_point=alpha_fp,
        conjecture_instance_ok=(not hypothesis) or alpha_fp,
    )
