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
from functools import lru_cache, partial
from itertools import combinations
from typing import Iterator

from .conditions import BillaudReport, _billaud_report, _pair_clauses
from .errors import BudgetError, DomainError, InconsistencyError, ResourceError
from .morphisms import Morphism, merge_morphism
from .solver import (
    DEFAULT_BUDGET,
    _ambiguity_verdict,
    _canonical_verdict,
    _validate_budget,
    fixed_point_verdict,
)
from .words import ALPHABET, Pattern, _canonical_sequences, parse_pattern

MAX_ENUMERATION_LENGTH = 16
MAX_SCAN_LENGTH = 14

SCAN_TARGETS = ("conjecture1", "conjecture2", "conjecture3", "theorem7")

# JSON spellings of a record's flags and verdicts
_JSON_LITERAL = {True: "true", False: "false", None: "null"}
# the text of every symbol an enumerated pattern can hold, by value
_SYMBOL_TEXT = tuple(map(str, range(MAX_ENUMERATION_LENGTH + 1)))


def search_sigma_ij(
    pattern: Pattern, *, budget: int = DEFAULT_BUDGET
) -> tuple[int, int, Morphism] | None:
    """The first pair (i, j), i < j, whose pair-merging morphism is
    unambiguous with respect to the pattern, or None.

    Fixed points are rejected outright (every nonerasing morphism is
    ambiguous there).  Pairs iterate lexicographically; each is
    fast-accepted when the pair condition certifies unambiguity, and only
    otherwise decided by the solver.  The mirrored pair (j, i) is never
    tried: its merged image is the same word up to renaming, so it has the
    same verdict, and it comes after (i, j).
    """
    if len(pattern.variables) < 2:
        raise DomainError("the pattern needs at least 2 distinct variables")
    own = fixed_point_verdict(pattern, budget=budget)
    if own is None:
        raise BudgetError(f"fixed-point check of the pattern exceeded {budget} nodes")
    if own:
        return None
    if len(pattern.variables) > len(ALPHABET):
        # what merge_morphism raises at the first pair
        raise DomainError(f"alphabet too small: construction needs {len(pattern.variables)} letters")
    found = _sigma_ij_pair(pattern, budget)
    if found is None:
        return None
    i, j = found
    return (i, j, merge_morphism(pattern.variables, i, j))


def _sigma_ij_pair(pattern: Pattern, budget: int) -> tuple[int, int] | None:
    """The pair of :func:`search_sigma_ij` on a pattern that is not a fixed
    point and has at most 26 variables, with no morphism built.

    Each pair's merged image is the pattern spelt with one letter per
    variable, by rank as :func:`merge_morphism` assigns them, with j's
    letter replaced by i's; the solver gives only its verdict, with the
    lookahead walk under a budget that covers the search tree wherever the
    merged image has three or more letters.
    """
    variables = sorted(pattern.variables)
    symbols = pattern.symbols
    letters = {var: ALPHABET[rank] for rank, var in enumerate(variables)}
    spelt = "".join([letters[s] for s in symbols])
    # no pair passes the pair condition unless every variable occurs the
    # same m >= 2 times
    multiplicities = set(pattern.multiplicities.values())
    uniform = len(multiplicities) == 1 and min(multiplicities) >= 2
    clauses = _pair_clauses(pattern) if uniform else None
    for i, j in combinations(variables, 2):
        if clauses is not None and clauses(i, j)[-1]:
            return (i, j)
        merged = spelt.replace(letters[j], letters[i])
        verdict = _ambiguity_verdict(symbols, merged, {**letters, j: letters[i]}, budget)
        if verdict is None:
            raise BudgetError(f"solver run for the pair ({i}, {j}) exceeded {budget} nodes")
        if not verdict:
            return (i, j)
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

    Fixed points are rejected outright by :func:`fixed_point_verdict`, since
    every nonerasing morphism is ambiguous there: the answer is None and no
    coloring reaches the solver.  A check that runs out of budget falls
    through to the sweep; so on a fixed point, a budget that covers the
    check but not the sweep gives None, not BudgetError.

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
    images = _first_unambiguous(pattern.symbols, colorings, budget)
    return None if images is None else Morphism.of(images)


def _first_unambiguous(
    symbols: tuple[int, ...], colorings: Iterator[tuple[int, ...]], budget: int
) -> dict[int, str] | None:
    """The images of the first coloring, in the given order, whose 1-uniform
    morphism is unambiguous with respect to the symbols, or None.  Colorings
    are canonical sequences: the i-th symbol is the letter number, from 1, of
    the i-th variable in first-occurrence order.  The image word is spelt
    from the images, and the solver gives only its verdict."""
    ordered = tuple(dict.fromkeys(symbols))
    for coloring in colorings:
        images = dict(zip(ordered, [ALPHABET[c - 1] for c in coloring]))
        verdict = _ambiguity_verdict(symbols, "".join([images[s] for s in symbols]), images, budget)
        if verdict is None:
            shown = tuple(c - 1 for c in coloring)
            raise BudgetError(f"solver run for coloring {shown} exceeded {budget} nodes")
        if not verdict:
            return images
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
    # a fixed-point check that runs out of budget sweeps the colorings, as
    # search_1uniform does
    if top >= 1 and not fixed_point_verdict(pattern, budget=budget):
        k = _least_alphabet(pattern.symbols, top, budget)
        if k is not None:
            return k
    if max_k > len(ALPHABET):
        raise DomainError(f"alphabet size must be between 1 and {len(ALPHABET)}, got {len(ALPHABET) + 1}")
    return None


def _least_alphabet(symbols: tuple[int, ...], top: int, budget: int) -> int | None:
    """:func:`least_uniform_alphabet` for sizes up to ``top`` <= 26, on a
    pattern whose fixed-point check said no or ran out of budget."""
    items = len(set(symbols))
    for k in range(1, top + 1):
        exact = _canonical_sequences(items, min_vars=k, max_vars=k)
        if _first_unambiguous(symbols, exact, budget) is not None:
            return k
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
        """One JSON line, keys in field order: what ``json.dumps`` gives for
        the record's dict, written out directly.  A Billaud report's object
        is written once per report shape (:func:`_billaud_json`).  Symbols
        are read from a table; a record read back with larger ones, which
        :meth:`from_json` accepts, writes them with ``str``."""
        symbols = self.pattern.symbols
        try:
            text = " ".join(map(_SYMBOL_TEXT.__getitem__, symbols))
        except IndexError:
            text = " ".join(map(str, symbols))
        pair = self.best_sigma_ij
        k = self.best_uniform_k
        line = (
            f'{{"pattern": "{text}", "is_fixed_point": {_JSON_LITERAL[self.is_fixed_point]}, '
            f'"var_count": {self.var_count}, "best_sigma_ij": {f"[{pair[0]}, {pair[1]}]" if pair else "null"}, '
            f'"best_uniform_k": {"null" if k is None else k}, "budget_hit": {_JSON_LITERAL[self.budget_hit]}, '
            f'"finding": {_JSON_LITERAL[self.finding]}'
        )
        report = self.billaud
        if report is None:
            return line + "}"
        billaud = _billaud_json(
            tuple(report.delta_fixed_point.items()),
            report.hypothesis_holds,
            report.alpha_is_fixed_point,
            report.conjecture_instance_ok,
        )
        return f'{line}, "billaud": {billaud}}}'

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


@lru_cache(maxsize=1024)
def _billaud_json(
    delta: tuple[tuple[int, bool], ...], hypothesis: bool, alpha_fp: bool, instance_ok: bool
) -> str:
    """The JSON object of a Billaud report with these delta items, in any
    order, and flags.  It depends on nothing else, and a scan's reports take
    few such shapes (37 up to length 8, 81 up to length 10), so each is
    written once; the reports of a scan hold their items sorted, so a shape
    takes one entry."""
    items = ", ".join(f'"{v}": {_JSON_LITERAL[fp]}' for v, fp in sorted(delta))
    return (
        f'{{"delta_fixed_point": {{{items}}}, '
        f'"hypothesis_holds": {_JSON_LITERAL[hypothesis]}, '
        f'"alpha_is_fixed_point": {_JSON_LITERAL[alpha_fp]}, '
        f'"conjecture_instance_ok": {_JSON_LITERAL[instance_ok]}}}'
    )


def _scan_pattern(key: tuple[int, ...], target: str, budget: int) -> ScanRecord:
    """The record of one canonical key.  The record's Pattern is the only
    one built; the fixed-point verdict is asked for by key, and the searches
    give a pair or an alphabet size, never a morphism."""
    pattern = Pattern(key)
    var_count = max(key)
    if target == "conjecture3":
        try:
            # the report decides the pattern itself too
            report = _billaud_report(key, range(1, var_count + 1), budget)
        except BudgetError:
            # a budget hit in the report gives the pattern's own verdict
            return ScanRecord(pattern, _canonical_verdict(key, budget), var_count, budget_hit=True)
        ok = report.conjecture_instance_ok
        return ScanRecord(pattern, report.alpha_is_fixed_point, var_count, finding=not ok, billaud=report)
    alpha_fp = _canonical_verdict(key, budget)
    if alpha_fp is None:
        return ScanRecord(pattern, None, var_count, budget_hit=True)
    if alpha_fp:
        # every nonerasing morphism is ambiguous on a fixed point, so there
        # is nothing to search and nothing to flag
        return ScanRecord(pattern, True, var_count)
    try:
        if target == "conjecture1":
            k = _least_alphabet(key, var_count - 1, budget)
            return ScanRecord(pattern, False, var_count, best_uniform_k=k, finding=k is None)
        pair = _sigma_ij_pair(pattern, budget)
    except BudgetError:
        return ScanRecord(pattern, False, var_count, budget_hit=True)
    if target == "theorem7" and pair is None:
        raise InconsistencyError(
            f"no unambiguous pair-merging morphism for the non-fixed-point pattern {pattern}"
        )
    # only conjecture2 gets here without a pair: theorem7 is proven
    return ScanRecord(pattern, False, var_count, best_sigma_ij=pair, finding=pair is None)


def _scan_scope(max_len: int, target: str) -> Iterator[tuple[int, ...]]:
    """The canonical keys of the target's scope, as the enumerator gives them."""
    if target == "theorem7":
        for length in range(8, max_len + 1, 2):
            yield from _canonical_sequences(length, min_vars=4, min_occ=2, max_occ=2)
        return
    min_vars = 3 if target == "conjecture3" else 4
    for length in range(min_vars, max_len + 1):
        yield from _canonical_sequences(length, min_vars=min_vars)


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
    # type(), not isinstance(): True is an int to isinstance
    if type(max_len) is not int:
        raise DomainError(f"max_len must be an int, got {max_len!r}")
    if max_len < 0:
        raise DomainError(f"max_len must be >= 0, got {max_len}")
    if max_len > MAX_SCAN_LENGTH:
        raise ResourceError(f"scans support max_len <= {MAX_SCAN_LENGTH}, got {max_len}")
    _validate_budget(budget)
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    cpus = os.cpu_count() or 1
    if workers > cpus:
        # the pool forks every worker at once
        raise DomainError(f"workers must be <= {cpus}, the CPU count, got {workers}")
    return _scan_records(_scan_scope(max_len, target), target, budget, workers)


def _scan_records(
    keys: Iterator[tuple[int, ...]], target: str, budget: int, workers: int
) -> Iterator[ScanRecord]:
    if workers == 1:
        for key in keys:
            yield _scan_pattern(key, target, budget)
        return
    # imported here: a one-worker run, the common case, never loads it
    from multiprocessing import Pool

    job = partial(_scan_pattern, target=target, budget=budget)
    with Pool(workers) as pool:
        yield from pool.imap(job, keys, chunksize=64)

