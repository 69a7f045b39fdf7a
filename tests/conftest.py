"""Shared oracles, strategies and fixtures.

The oracles here are deliberately naive: they enumerate image-length
compositions exhaustively and accept a candidate only through an
application-equality check, sharing no search code with the solver.
"""

from __future__ import annotations

from itertools import product

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, settings

from unambig import solver
from unambig.morphisms import Morphism, Substitution
from unambig.words import Pattern, neighbourhoods

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def cold_verdict_cache():
    """Each test starts with an empty fixed-point verdict cache, so what it
    counts or compares does not depend on the tests run before it."""
    solver._key_verdict.cache_clear()


def oracle_preimages(pattern: Pattern, word: str, *, allow_erasing: bool = True) -> list[Morphism]:
    """Every morphism tau with tau(pattern) == word, by brute force.

    Tries all image-length compositions, reads each variable's image off the
    slice at its first occurrence, and keeps the candidate iff applying it
    reproduces the word exactly.
    """
    variables = sorted(pattern.variables)
    low = 0 if allow_erasing else 1
    found = []
    for lens in product(range(low, len(word) + 1), repeat=len(variables)):
        size = dict(zip(variables, lens))
        if sum(size[s] for s in pattern) != len(word):
            continue
        images: dict[int, str] = {}
        pos = 0
        for s in pattern:
            images.setdefault(s, word[pos : pos + size[s]])
            pos += size[s]
        tau = Morphism.of(images)
        if tau.apply(pattern) == word:
            found.append(tau)
    return found


def oracle_fixed_point_morphisms(pattern: Pattern) -> list[Substitution]:
    """Every nontrivial phi with phi(pattern) == pattern, by brute force."""
    variables = sorted(pattern.variables)
    total = len(pattern)
    found = []
    for lens in product(range(total + 1), repeat=len(variables)):
        size = dict(zip(variables, lens))
        if sum(size[s] for s in pattern) != total:
            continue
        images: dict[int, Pattern] = {}
        pos = 0
        for s in pattern:
            images.setdefault(s, Pattern(pattern.symbols[pos : pos + size[s]]))
            pos += size[s]
        phi = Substitution.of(images)
        if phi.apply(pattern) != pattern:
            continue
        if any(images[v].symbols != (v,) for v in variables):
            found.append(phi)
    return found


def oracle_pair_clauses(pattern: Pattern, i: int, j: int) -> tuple:
    """The fields of the pair condition's report for (i, j), in order, read
    off their definition: the least variable whose left (or right)
    neighbourhood holds both i and j, and disjoint occurrences of the
    factors i j and j i, found among the positions of every factor."""
    multiplicities = set(pattern.multiplicities.values())
    uniform = multiplicities.pop() if len(multiplicities) == 1 else None
    nbh = neighbourhoods(pattern)
    variables = sorted(pattern.variables)
    left = next((k for k in variables if {i, j} <= nbh.left[k]), None)
    right = next((k for k in variables if {i, j} <= nbh.right[k]), None)
    factors = list(zip(pattern.symbols, pattern.symbols[1:]))
    ij = [p for p, factor in enumerate(factors) if factor == (i, j)]
    ji = [p for p, factor in enumerate(factors) if factor == (j, i)]
    apart = any(abs(a - b) >= 2 for a in ij for b in ji)
    passes = uniform is not None and uniform >= 2 and left is None and right is None and not apart
    return uniform, left, right, apart, passes


def naive_canonical_patterns(length: int) -> list[Pattern]:
    """All canonical patterns of one length, by filtering raw tuples."""
    if length == 0:
        return [Pattern(())]
    out = []
    for raw in product(range(1, length + 1), repeat=length):
        top = 0
        for s in raw:
            if s > top + 1:
                break
            top = max(top, s)
        else:
            out.append(Pattern(raw))
    return out


def pattern_strategy(min_len: int = 1, max_len: int = 8, max_vars: int = 4):
    return st.lists(
        st.integers(1, max_vars), min_size=min_len, max_size=max_len
    ).map(lambda symbols: Pattern(tuple(symbols)))


def word_strategy(min_len: int = 0, max_len: int = 8, letters: str = "ab"):
    return st.text(alphabet=letters, min_size=min_len, max_size=max_len)
