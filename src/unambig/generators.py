"""Generators for the words, patterns, and morphisms used by the sweeps.

Covers the square-free Thue word and its letter-doubled companion, the
pattern of adjacent variable squares, exponent patterns, the shortest
patterns avoiding fixed-point structure for a given variable count,
non-cyclic de Bruijn sequences (lexicographically least and full
enumeration), patterns carved out of de Bruijn sequences together with their
natural morphisms, and a splice combinator for non-fixed-point patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .errors import BudgetError, DomainError, ResourceError
from .morphisms import Morphism
from .solver import DEFAULT_BUDGET, fixed_point_verdict
from .words import ALPHABET, Pattern, _canonical_sequences, canonical_symbols, is_square_free

_THUE_RULES = {"a": "abc", "b": "ac", "c": "b"}

# the longest word or pattern any generator here builds
MAX_DEBRUIJN_LENGTH = 1 << 22


def _check_length(family: str, length: int) -> None:
    """Reject an output of more than MAX_DEBRUIJN_LENGTH letters or symbols
    before anything is built."""
    if length > MAX_DEBRUIJN_LENGTH:
        raise ResourceError(f"{family} supports length <= {MAX_DEBRUIJN_LENGTH}, got {length}")


def thue_word(length: int) -> str:
    """Prefix of the square-free fixed point of a -> abc, b -> ac, c -> b."""
    if length < 0:
        raise DomainError(f"length must be >= 0, got {length}")
    _check_length("the square-free word", length)
    word = "a"
    while len(word) < length:
        word = "".join(_THUE_RULES[ch] for ch in word)
    return word[:length]


def double_letters(word: str) -> str:
    """Each letter doubled in place: abc -> aabbcc."""
    return "".join(ch + ch for ch in word)


def squares_pattern(m: int) -> Pattern:
    """The pattern 1 1 2 2 ... m m."""
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    _check_length("the squares pattern", 2 * m)
    return Pattern(tuple(v for v in range(1, m + 1) for _ in range(2)))


def thue_morphism(m: int) -> Morphism:
    """The 1-uniform morphism sending variable q to the q-th Thue word letter.

    Applied to ``squares_pattern(m)`` it yields the letter-doubled Thue word
    prefix, which for m >= 4 makes it unambiguous on a 3-letter alphabet even
    though every binary 1-uniform morphism is ambiguous there.
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    prefix = thue_word(m)
    return Morphism.of({q + 1: prefix[q] for q in range(m)})


def exponent_pattern(exponents: list[int] | tuple[int, ...]) -> Pattern:
    """The pattern 1^r1 2^r1 3^r2 4^r2 ... for a square-free exponent list."""
    exps = tuple(exponents)
    if not exps:
        raise DomainError("the exponent sequence must be non-empty")
    for r in exps:
        if not isinstance(r, int) or r < 2:
            raise DomainError(f"exponents must be integers >= 2, got {r!r}")
    _check_length("the exponent pattern", 2 * sum(exps))
    if not is_square_free(exps):
        raise DomainError("the exponent sequence must be square-free")
    symbols: list[int] = []
    for block, r in enumerate(exps):
        symbols.extend([2 * block + 1] * r)
        symbols.extend([2 * block + 2] * r)
    return Pattern(tuple(symbols))


def shortest_non_fixed_point(n: int) -> tuple[Pattern, Morphism]:
    """The length-2n pattern with n variables (each twice) that is not a fixed
    point, together with a binary morphism unambiguous with respect to it.

    Every variable occurs exactly twice: for even n the pattern lists all
    variables once and then interleaves the upper half with the lower half;
    for odd n the first variable is doubled up front instead.
    """
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    _check_length("the shortest non-fixed point", 2 * n)
    half = (n + 1) // 2
    if n % 2 == 0:
        symbols = list(range(1, n + 1))
        for t in range(1, half + 1):
            symbols += [half + t, t]
    else:
        symbols = [1] + list(range(1, n + 1))
        for t in range(1, n // 2 + 1):
            symbols += [half + t, t + 1]
    sigma = Morphism.of({v: ("a" if v <= half else "b") for v in range(1, n + 1)})
    return Pattern(tuple(symbols)), sigma


def _check_debruijn(k: int, n: int) -> None:
    """Reject the order n and alphabet size k unless a de Bruijn word for
    them is defined and at most MAX_DEBRUIJN_LENGTH letters long."""
    if k < 1 or n < 1:
        raise DomainError(f"alphabet size and order must be >= 1, got k={k}, n={n}")
    if k > len(ALPHABET):
        raise DomainError(f"alphabet size must be <= {len(ALPHABET)}, got {k}")
    # k**min(n, 64) exceeds the bound exactly when k**n does, without
    # computing a power with a huge exponent
    if k ** min(n, 64) + n - 1 > MAX_DEBRUIJN_LENGTH:
        raise ResourceError(
            f"de Bruijn words support length k**n + n - 1 <= {MAX_DEBRUIJN_LENGTH}, got k={k}, n={n}"
        )


def debruijn_word(k: int, n: int) -> str:
    """The lexicographically least word containing every length-n word over
    the first k letters exactly once.

    Concatenates the Lyndon words of length dividing n in increasing order
    (the least de Bruijn cycle) and appends the first n - 1 letters.
    """
    _check_debruijn(k, n)
    # Duval's loop: the Lyndon words of length <= n in increasing order
    seq: list[int] = []
    word = [-1]
    while word:
        word[-1] += 1
        if n % len(word) == 0:
            seq.extend(word)
        period = len(word)
        while len(word) < n:
            word.append(word[-period])
        while word and word[-1] == k - 1:
            word.pop()
    cycle = "".join(ALPHABET[c] for c in seq)
    # Wrap around for the final n - 1 letters; only k = 1 needs repetition.
    return cycle + (cycle * n)[: n - 1]


def enumerate_debruijn(k: int, n: int) -> Iterator[str]:
    """All words containing every length-n word over k letters exactly once,
    in lexicographic order, via walks using each length-n factor once."""
    _check_debruijn(k, n)
    total = k**n
    if total > 64:
        raise ResourceError(f"enumeration supports k**n <= 64 length-n words, got {total}")
    letters = ALPHABET[:k]

    def walk(node: tuple[int, ...], used: set, out: list[int]) -> Iterator[str]:
        if len(used) == total:
            yield "".join(letters[c] for c in out)
            return
        for c in range(k):
            edge = node + (c,)
            if edge not in used:
                used.add(edge)
                out.append(c)
                yield from walk(edge[1:], used, out)
                out.pop()
                used.remove(edge)

    for start in product(range(k), repeat=n - 1):
        yield from walk(start, set(), list(start))


@dataclass(frozen=True)
class DeBruijnPattern:
    """A canonical pattern carved out of a de Bruijn sequence.

    The natural morphism sends every variable back to the letter whose
    occurrences it covers, so applying it to the pattern recovers the word.
    """

    pattern: Pattern
    natural_morphism: Morphism
    source_word: str


def debruijn_patterns(k: int) -> Iterator[DeBruijnPattern]:
    """Patterns obtained from order-2 de Bruijn words by splitting the
    occurrences of each letter among floor(count / 2) variables, every
    variable covering at least two occurrences.

    Streams lazily over all source words in lexicographic order; identical
    canonical patterns arising from the same word are emitted once.
    """
    if not 3 <= k <= 4:
        raise ResourceError(f"supported alphabet sizes are 3 and 4, got {k}")
    for word in enumerate_debruijn(k, 2):
        positions = [[p for p, c in enumerate(word) if c == ch] for ch in sorted(set(word))]
        # a letter's split is a canonical sequence over its occurrences,
        # naming the variable of each: len // 2 variables, each twice or more
        splits = [
            list(_canonical_sequences(len(ps), min_vars=len(ps) // 2, max_vars=len(ps) // 2, min_occ=2))
            for ps in positions
        ]
        seen: set[tuple[int, ...]] = set()
        for combo in product(*splits):
            labels = [0] * len(word)
            offset = 0
            for ps, split in zip(positions, combo):
                for pos, var in zip(ps, split):
                    labels[pos] = offset + var
                offset += len(ps) // 2
            symbols = canonical_symbols(labels)
            if symbols in seen:
                continue
            seen.add(symbols)
            # every occurrence of a variable carries the same letter
            natural = Morphism.of(dict(zip(symbols, word)))
            yield DeBruijnPattern(pattern=Pattern(symbols), natural_morphism=natural, source_word=word)


def splice(alpha1: Pattern, alpha2: Pattern, beta: Pattern, *, budget: int = DEFAULT_BUDGET) -> Pattern:
    """Insert ``beta`` between ``alpha1`` and ``alpha2``.

    Requires disjoint variable sets, that one of the two parts has more than
    3 variables all of multiplicity 2, and that neither part is a fixed
    point; under those hypotheses the result is again not a fixed point.
    """
    gamma = alpha1 + alpha2
    shared = gamma.variables & beta.variables
    if shared:
        raise DomainError(f"the outer pattern and the inserted block share variables {sorted(shared)}")

    def qualifies(p: Pattern) -> bool:
        return len(p.variables) > 3 and all(c == 2 for c in p.multiplicities.values())

    if not (qualifies(gamma) or qualifies(beta)):
        raise DomainError(
            "neither the outer pattern nor the inserted block has more than 3 variables all of multiplicity 2"
        )
    for name, part in (("outer pattern", gamma), ("inserted block", beta)):
        if not part:
            continue
        verdict = fixed_point_verdict(part, budget=budget)
        if verdict is None:
            raise BudgetError(f"fixed-point check of the {name} exceeded {budget} nodes")
        if verdict:
            raise DomainError(f"the {name} is a fixed point of a nontrivial morphism")
    return alpha1 + beta + alpha2
