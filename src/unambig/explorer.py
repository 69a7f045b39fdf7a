"""Pattern-space searches: per-pattern morphism hunts and bulk scans.

The per-pattern searches look for an unambiguous 1-uniform morphism, either
among the pair-merging morphisms or among all letter assignments up to
symmetry.  The bulk scans sweep every canonical pattern up to a length bound
and emit one JSON-serializable record per pattern; they are the desk-scale
evidence gatherers for the open conjectures, and they abort loudly if a
result ever contradicts a proven statement.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import partial
from multiprocessing import Pool
from typing import Iterator

from .conditions import BillaudReport, _pair_clauses, billaud_instance
from .errors import BudgetError, DomainError, InconsistencyError, ResourceError
from .morphisms import Morphism, merge_morphism
from .solver import DEFAULT_BUDGET, BudgetExhausted, NoWitness, fixed_point_verdict, is_ambiguous
from .words import ALPHABET, Pattern, _canonical_sequences, first_occurrence_order, parse_pattern

MAX_ENUMERATION_LENGTH = 16
MAX_SCAN_LENGTH = 14

SCAN_TARGETS = ("conjecture1", "conjecture2", "conjecture3", "theorem7")


def search_sigma_ij(
    pattern: Pattern, *, budget: int = DEFAULT_BUDGET
) -> tuple[int, int, Morphism] | None:
    """The first ordered pair (i, j) whose pair-merging morphism is
    unambiguous with respect to the pattern, or None.

    Fixed points are rejected outright (every nonerasing morphism is
    ambiguous there).  Pairs iterate lexicographically; each is
    fast-accepted when the pair condition certifies unambiguity, and only
    otherwise decided by the solver.  A solver verdict is reused for the
    mirrored pair, whose merged image is the same word up to renaming.
    """
    variables = sorted(pattern.variables)
    if len(variables) < 2:
        raise DomainError("the pattern needs at least 2 distinct variables")
    own = fixed_point_verdict(pattern, budget=budget)
    if own is None:
        raise BudgetError(f"fixed-point check of the pattern exceeded {budget} nodes")
    if own:
        return None
    settled: set[tuple[int, int]] = set()
    clauses = None  # the pair condition, built at the first pair that needs it
    for i in variables:
        for j in variables:
            if i == j or (j, i) in settled:
                continue
            sigma = merge_morphism(variables, i, j)
            if clauses is None:
                clauses = _pair_clauses(pattern)
            if clauses(i, j)[-1]:
                return (i, j, sigma)
            verdict = is_ambiguous(sigma, pattern, budget=budget)
            if isinstance(verdict, BudgetExhausted):
                raise BudgetError(f"solver run for the pair ({i}, {j}) exceeded {budget} nodes")
            if isinstance(verdict, NoWitness):
                return (i, j, sigma)
            settled.add((i, j))
    return None


def canonical_colorings(items: int, colors: int) -> Iterator[tuple[int, ...]]:
    """Assignments of ``items`` slots to at most ``colors`` colors, one per
    symmetry class: each new color first appears in increasing order."""
    if items < 0 or colors < 0:
        raise DomainError(f"items and colors must be >= 0, got items={items}, colors={colors}")
    for colored in _canonical_sequences(items, max_vars=colors):
        yield tuple(c - 1 for c in colored)


def search_1uniform(
    pattern: Pattern, alphabet_size: int, *, budget: int = DEFAULT_BUDGET
) -> Morphism | None:
    """The first 1-uniform morphism over at most ``alphabet_size`` letters
    that is unambiguous with respect to the pattern, or None.

    Fixed points are rejected outright, since every nonerasing morphism is
    ambiguous there: the answer is None and no coloring reaches the solver.
    The check is :func:`fixed_point_verdict`: a renaming class is searched
    at most once, and not at all when a certificate or the memo entry of the
    reversed pattern answers.  A check that runs out of budget falls through
    to the sweep; so on a fixed point, a budget that covers the check but not
    the sweep gives None, not BudgetError.

    Colorings of the variables (ordered by first occurrence) are enumerated
    up to letter-renaming symmetry, which is lossless: ambiguity depends only
    on the image word, which a renaming does not change in substance.
    """
    if not pattern:
        raise DomainError("the pattern must be non-empty")
    if not 1 <= alphabet_size <= len(ALPHABET):
        raise DomainError(f"alphabet size must be between 1 and {len(ALPHABET)}, got {alphabet_size}")
    if fixed_point_verdict(pattern, budget=budget):
        return None
    colorings = _canonical_sequences(len(pattern.variables), max_vars=alphabet_size)
    return _first_unambiguous(pattern, colorings, budget)


def _first_unambiguous(
    pattern: Pattern, colorings: Iterator[tuple[int, ...]], budget: int
) -> Morphism | None:
    """The 1-uniform morphism of the first coloring, in the given order, that
    is unambiguous with respect to the pattern, or None.  Colorings are
    canonical sequences: the i-th symbol is the letter number, from 1, of the
    i-th variable in first-occurrence order."""
    ordered = first_occurrence_order(pattern)
    for coloring in colorings:
        sigma = Morphism.of({var: ALPHABET[c - 1] for var, c in zip(ordered, coloring)})
        verdict = is_ambiguous(sigma, pattern, budget=budget)
        if isinstance(verdict, BudgetExhausted):
            shown = tuple(c - 1 for c in coloring)
            raise BudgetError(f"solver run for coloring {shown} exceeded {budget} nodes")
        if isinstance(verdict, NoWitness):
            return sigma
    return None


def least_uniform_alphabet(pattern: Pattern, max_k: int, *, budget: int = DEFAULT_BUDGET) -> int | None:
    """The least alphabet size k <= ``max_k`` over which some 1-uniform
    morphism is unambiguous with respect to the pattern, or None.

    The answer is that of the least k with ``search_1uniform(pattern, k)``
    not None, BudgetError included, but each coloring is tried once: the
    fixed-point check runs once, and size k runs the solver only on the
    canonical colorings that use exactly k letters, in the same order; they
    are generated directly.  Those with fewer letters were all found
    ambiguous at a smaller size.
    """
    top = min(max_k, len(ALPHABET))
    if top >= 1 and not fixed_point_verdict(pattern, budget=budget):
        items = len(pattern.variables)
        for k in range(1, top + 1):
            exact = _canonical_sequences(items, min_vars=k, max_vars=k)
            if _first_unambiguous(pattern, exact, budget) is not None:
                return k
    if max_k > len(ALPHABET):
        raise DomainError(f"alphabet size must be between 1 and {len(ALPHABET)}, got {len(ALPHABET) + 1}")
    return None


def check_enumeration(length: int, **bounds: int | None) -> None:
    """Raise what :func:`enumerate_canonical_patterns` raises for these
    arguments, at once rather than at the first pattern asked for."""
    if length < 0:
        raise DomainError(f"length must be >= 0, got {length}")
    if length > MAX_ENUMERATION_LENGTH:
        raise ResourceError(
            f"pattern enumeration supports length <= {MAX_ENUMERATION_LENGTH}, got {length}"
        )
    for name, bound in bounds.items():
        if bound is not None and bound < 1:
            raise DomainError(f"{name} must be >= 1, got {bound}")


def enumerate_canonical_patterns(
    length: int,
    *,
    min_vars: int | None = None,
    max_vars: int | None = None,
    uniform_multiplicity: int | None = None,
    min_multiplicity: int | None = None,
) -> Iterator[Pattern]:
    """All canonical patterns of the given length, lexicographically.

    Canonical means variables are numbered 1, 2, 3, ... by first occurrence,
    so the stream contains exactly one representative per renaming class.
    Every bound holds: a pattern has between ``min_vars`` and ``max_vars``
    variables, each occurring at least ``min_multiplicity`` times and, when
    ``uniform_multiplicity`` is given, exactly that often.
    """
    check_enumeration(
        length,
        min_vars=min_vars,
        max_vars=max_vars,
        uniform_multiplicity=uniform_multiplicity,
        min_multiplicity=min_multiplicity,
    )
    least = max(uniform_multiplicity or 1, min_multiplicity or 1)
    for symbols in _canonical_sequences(length, min_vars or 0, max_vars, least, uniform_multiplicity):
        yield Pattern(symbols)


@dataclass(frozen=True)
class ScanRecord:
    """One scanned pattern: its verdicts and whether it is a finding.

    ``finding`` flags a counterexample to the scanned conjecture; scans of
    proven statements never set it (they raise instead).  ``is_fixed_point``
    is None only when the budget ran out before the verdict.
    """

    pattern: Pattern
    is_fixed_point: bool | None
    var_count: int
    best_sigma_ij: tuple[int, int] | None = None
    best_uniform_k: int | None = None
    budget_hit: bool = False
    finding: bool = False
    billaud: BillaudReport | None = None

    def to_json(self) -> str:
        record: dict = {
            "pattern": str(self.pattern),
            "is_fixed_point": self.is_fixed_point,
            "var_count": self.var_count,
            "best_sigma_ij": list(self.best_sigma_ij) if self.best_sigma_ij else None,
            "best_uniform_k": self.best_uniform_k,
            "budget_hit": self.budget_hit,
            "finding": self.finding,
        }
        if self.billaud is not None:
            record["billaud"] = {
                "delta_fixed_point": {str(v): fp for v, fp in sorted(self.billaud.delta_fixed_point.items())},
                "hypothesis_holds": self.billaud.hypothesis_holds,
                "alpha_is_fixed_point": self.billaud.alpha_is_fixed_point,
                "conjecture_instance_ok": self.billaud.conjecture_instance_ok,
            }
        return json.dumps(record)

    @classmethod
    def from_json(cls, line: str) -> "ScanRecord":
        data = json.loads(line)
        data["pattern"] = parse_pattern(data["pattern"])
        if data["best_sigma_ij"]:
            data["best_sigma_ij"] = tuple(data["best_sigma_ij"])
        if "billaud" in data:
            report = data["billaud"]
            report["delta_fixed_point"] = {int(v): fp for v, fp in report["delta_fixed_point"].items()}
            data["billaud"] = BillaudReport(**report)
        return cls(**data)


def _scan_pattern(pattern: Pattern, target: str, budget: int) -> ScanRecord:
    var_count = len(pattern.variables)
    try:
        if target == "conjecture3":
            # billaud_instance decides the pattern itself too
            report = billaud_instance(pattern, budget=budget)
            return ScanRecord(
                pattern,
                report.alpha_is_fixed_point,
                var_count,
                finding=not report.conjecture_instance_ok,
                billaud=report,
            )
        alpha_fp = fixed_point_verdict(pattern, budget=budget)
        if alpha_fp is None:
            raise BudgetError(f"fixed-point check of the pattern exceeded {budget} nodes")
        if alpha_fp:
            # every nonerasing morphism is ambiguous on a fixed point, so there
            # is nothing to search and nothing to flag
            return ScanRecord(pattern, True, var_count)
        if target == "conjecture1":
            k = least_uniform_alphabet(pattern, var_count - 1, budget=budget)
            return ScanRecord(pattern, False, var_count, best_uniform_k=k, finding=k is None)
        found = search_sigma_ij(pattern, budget=budget)
    except BudgetError:
        # the pattern's own verdict, None or a bool, asked for again: a memo
        # hit, the same shortcut or the same search gives the same answer
        return ScanRecord(pattern, fixed_point_verdict(pattern, budget=budget), var_count, budget_hit=True)
    pair = (found[0], found[1]) if found else None
    if target == "theorem7" and pair is None:
        raise InconsistencyError(
            f"no unambiguous pair-merging morphism for the non-fixed-point pattern {pattern}"
        )
    # only conjecture2 gets here without a pair: theorem7 is proven
    return ScanRecord(pattern, False, var_count, best_sigma_ij=pair, finding=pair is None)


def _scan_scope(max_len: int, target: str) -> Iterator[Pattern]:
    if target == "theorem7":
        for length in range(8, max_len + 1, 2):
            yield from enumerate_canonical_patterns(length, min_vars=4, uniform_multiplicity=2)
        return
    min_vars = 3 if target == "conjecture3" else 4
    for length in range(min_vars, max_len + 1):
        yield from enumerate_canonical_patterns(length, min_vars=min_vars)


def conjecture_scan(
    max_len: int, target: str, *, budget: int = DEFAULT_BUDGET, workers: int = 1
) -> Iterator[ScanRecord]:
    """Scan every canonical pattern in the target's scope up to ``max_len``.

    Scopes: conjectures 1 and 2 take patterns with at least 4 distinct
    variables, conjecture 3 at least 3, and theorem7 takes patterns with more
    than 3 variables all of multiplicity 2.  Records stream in enumeration
    order regardless of the worker count, which may not exceed the CPU count.
    The arguments are checked when the scan is called, before the first
    record is asked for.
    """
    if target not in SCAN_TARGETS:
        raise DomainError(f"unknown scan target {target!r}; expected one of {', '.join(SCAN_TARGETS)}")
    if max_len > MAX_SCAN_LENGTH:
        raise ResourceError(f"scans support max_len <= {MAX_SCAN_LENGTH}, got {max_len}")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    cpus = os.cpu_count() or 1
    if workers > cpus:
        # the pool forks every worker at once
        raise DomainError(f"workers must be <= {cpus}, the CPU count, got {workers}")
    return _scan_records(_scan_scope(max_len, target), target, budget, workers)


def _scan_records(
    patterns: Iterator[Pattern], target: str, budget: int, workers: int
) -> Iterator[ScanRecord]:
    if workers == 1:
        for pattern in patterns:
            yield _scan_pattern(pattern, target, budget)
        return
    job = partial(_scan_pattern, target=target, budget=budget)
    with Pool(workers) as pool:
        yield from pool.imap(job, patterns, chunksize=64)

