"""Patterns, words, and their elementary combinatorics.

A pattern is a finite sequence of variables (positive integers).  A word is a
plain ``str`` over lowercase ASCII letters; the alphabet of size k is the
first k letters ``a, b, c, ...``.  Everything downstream (morphisms, the
ambiguity solver, the generators) is built on these two representations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from .errors import DomainError, ParseError

ALPHABET = "abcdefghijklmnopqrstuvwxyz"

# Marker standing in for the word boundary inside neighbourhood sets.
# Variables are >= 1, so 0 can never collide with one.
BOUNDARY = 0


@dataclass(frozen=True, order=True)
class Pattern:
    """An immutable sequence of variables.

    Variables are positive integers; a pattern does not have to be in
    canonical form (see :func:`canonical_form`).
    """

    symbols: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        symbols = tuple(self.symbols)
        for s in symbols:
            if type(s) is not int or s < 1:
                raise DomainError(f"pattern variables must be positive integers, got {s!r}")
        object.__setattr__(self, "symbols", symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __getitem__(self, index):
        return self.symbols[index]

    def __add__(self, other: "Pattern") -> "Pattern":
        return Pattern(self.symbols + other.symbols)

    def __bool__(self) -> bool:
        return bool(self.symbols)

    def __str__(self) -> str:
        return " ".join(map(str, self.symbols))

    @cached_property
    def variables(self) -> frozenset[int]:
        return frozenset(self.symbols)

    @cached_property
    def multiplicities(self) -> dict[int, int]:
        return dict(Counter(self.symbols))

    def multiplicity(self, var: int) -> int:
        return self.multiplicities.get(var, 0)


def parse_pattern(text: str) -> Pattern:
    """Parse whitespace- or dot-separated variables; empty input is the empty pattern."""
    symbols = []
    for token in text.replace(".", " ").split():
        try:
            value = int(token)
        except ValueError:
            raise ParseError(f"invalid pattern token {token!r}") from None
        if value < 1:
            raise ParseError(f"pattern variables must be >= 1, got {token!r}")
        symbols.append(value)
    return Pattern(tuple(symbols))


def first_occurrence_order(pattern: Pattern) -> tuple[int, ...]:
    """The pattern's distinct variables, in order of first occurrence."""
    return tuple(dict.fromkeys(pattern.symbols))


def canonical_symbols(symbols: tuple[int, ...]) -> tuple[int, ...]:
    """The symbols relabelled 1, 2, 3, ... in order of first occurrence."""
    relabel: dict[int, int] = {}
    out = []
    for s in symbols:
        if s not in relabel:
            relabel[s] = len(relabel) + 1
        out.append(relabel[s])
    return tuple(out)


def canonical_form(pattern: Pattern) -> Pattern:
    """Relabel variables as 1, 2, 3, ... in order of first occurrence."""
    return Pattern(canonical_symbols(pattern.symbols))


def _canonical_sequences(
    length: int, min_vars: int = 0, max_vars: int | None = None, min_occ: int = 1, max_occ: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Every canonical symbol sequence of the given length, lexicographically.

    These are the restricted growth strings: symbols 1, 2, 3, ... numbered by
    first occurrence, here with between ``min_vars`` and ``max_vars``
    distinct symbols, each occurring between ``min_occ`` and ``max_occ``
    times (None: no upper bound).  The same sequences are the patterns up to
    renaming, the colorings up to permuting the colors and the set
    partitions with blocks ordered by least element.

    Upper bounds are kept at each step.  The prefix grows only while the
    occurrences it still owes fit into the positions left: min_occ - c for
    each symbol with c < min_occ occurrences, and min_occ for each symbol that
    min_vars still needs.  So every sequence that reaches the full length
    meets the lower bounds too, and no sequence is filtered afterwards.
    """
    top = length if max_vars is None else max_vars
    cap = length if max_occ is None else max_occ
    owed = min_occ * min_vars
    if owed > length or (length and min_occ > cap):  # the empty sequence has no symbol to bound
        return
    seq: list[int] = []
    counts = [0] * (length + 1)
    used = 0
    start = 1
    while True:
        pos = len(seq)
        if pos == length:
            yield tuple(seq)
        else:
            room = length - pos - 1  # positions left after this one
            # owed <= room + 1 holds here, so a symbol below min_occ always fits
            for v in range(start, used + 1):
                c = counts[v]
                if c < min_occ:
                    owed -= 1
                    break
                if c < cap and owed <= room:
                    break
            else:
                v = used + 1  # a new symbol, if it fits
                grow = -1 if used < min_vars else min_occ - 1
                if start <= v <= top and owed + grow <= room:
                    used = v
                    owed += grow
                else:
                    v = 0
            if v:
                seq.append(v)
                counts[v] += 1
                start = 1
                continue
        if not seq:
            return
        v = seq.pop()
        counts[v] -= 1
        c = counts[v]
        if not c:
            used -= 1
            owed -= -1 if used < min_vars else min_occ - 1
        elif c < min_occ:
            owed += 1
        start = v + 1


@dataclass(frozen=True)
class Neighbourhoods:
    """Per-variable sets of immediately adjacent symbols.

    ``left[x]`` holds every variable occurring directly left of an occurrence
    of x, plus BOUNDARY iff the pattern starts with x; ``right`` is symmetric.
    """

    left: dict[int, frozenset[int]]
    right: dict[int, frozenset[int]]


def neighbourhoods(pattern: Pattern) -> Neighbourhoods:
    if not pattern:
        raise DomainError("neighbourhoods are undefined for the empty pattern")
    symbols = pattern.symbols
    left: dict[int, set[int]] = {v: set() for v in pattern.variables}
    right: dict[int, set[int]] = {v: set() for v in pattern.variables}
    for p, s in enumerate(symbols):
        left[s].add(symbols[p - 1] if p > 0 else BOUNDARY)
        right[s].add(symbols[p + 1] if p + 1 < len(symbols) else BOUNDARY)
    return Neighbourhoods(
        left={v: frozenset(xs) for v, xs in left.items()},
        right={v: frozenset(xs) for v, xs in right.items()},
    )


def fixed_point_by_neighbourhoods(pattern: Pattern) -> tuple[int, int] | None:
    """A variable certifying fixed-point-ness by its neighbourhoods, if any.

    Returns ``(i, 1)`` for the least i whose every left neighbour k satisfies
    R_k = {i} with the boundary absent from L_i, else ``(i, 2)`` for the least
    i satisfying the mirrored condition, else None.  Presence implies the
    pattern is a fixed point of a nontrivial morphism; absence proves nothing.
    """
    nbh = neighbourhoods(pattern)
    for side, inner, outer in ((1, nbh.left, nbh.right), (2, nbh.right, nbh.left)):
        held = [i for i, ks in inner.items() if BOUNDARY not in ks and all(outer[k] == {i} for k in ks)]
        if held:
            return (min(held), side)
    return None


def is_square_free(word: Sequence) -> bool:
    """True iff no factor of the form vv with v non-empty occurs.

    Works on any sliceable sequence (words as ``str``, exponent lists as
    tuples).  Quadratically many slice comparisons; fine at desk scale.
    """
    n = len(word)
    for length in range(1, n // 2 + 1):
        for start in range(0, n - 2 * length + 1):
            if word[start : start + length] == word[start + length : start + 2 * length]:
                return False
    return True


def factor_multiplicity(word: Sequence, length: int) -> Counter:
    """Multiset of factors of the given length (empty for too-short words)."""
    if length < 1:
        raise DomainError(f"factor length must be >= 1, got {length}")
    return Counter(word[i : i + length] for i in range(len(word) - length + 1))


def alphabet(size: int) -> str:
    """The first ``size`` lowercase letters."""
    if not 1 <= size <= len(ALPHABET):
        raise DomainError(f"alphabet size must be between 1 and {len(ALPHABET)}, got {size}")
    return ALPHABET[:size]


def validate_word(word: str) -> str:
    if not isinstance(word, str):
        raise DomainError(f"words must be str, got {type(word).__name__}")
    for ch in word:
        if ch not in ALPHABET:
            raise DomainError(f"words may only contain lowercase ASCII letters, got {ch!r}")
    return word


def word_to_pattern(word: str) -> Pattern:
    """Read a word as a pattern, letter ``a`` becoming variable 1 and so on."""
    validate_word(word)
    return Pattern(tuple(ord(ch) - ord("a") + 1 for ch in word))
