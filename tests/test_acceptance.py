"""Exact end-to-end acceptance checks, one numbered criterion per test.

Each test prints a single PASS/FAIL line (with wall time) directly to the
terminal so the suite doubles as a runnable acceptance report:

    pytest tests/test_acceptance.py -v

Everything here is exact: counts, words, and verdicts are asserted with no
tolerances.  The sweeps run at full advertised scale on one core.  Criteria
02, 03, 05 and 09 assert the bundles of ``unambig.checks``, the same checks
``unambig verify`` prints.
"""

import itertools
import time
from contextlib import contextmanager

from unambig.checks import pair_theorem_checks, pi_db_checks, shortest_checks, thue_checks
from unambig.conditions import (
    candidate_pairs,
    has_unique_2_factors,
    image_is_fixed_point,
    pair_condition,
)
from unambig.explorer import canonical_colorings, conjecture_scan, enumerate_canonical_patterns
from unambig.morphisms import Morphism, merge_morphism
from unambig.solver import (
    FixedPoint,
    NotFixedPoint,
    NoWitness,
    Witness,
    enumerate_preimages,
    is_ambiguous,
    is_fixed_point,
)
from unambig.words import canonical_form, parse_pattern, word_to_pattern

from conftest import naive_canonical_patterns, oracle_preimages

A0 = parse_pattern("1 2 3 1 3 2")
A1 = parse_pattern("1 2 3 4 1 4 3 2")
A2 = parse_pattern("1 2 3 3 4 4 1 2 3 3 4 4 2")


@contextmanager
def criterion(capsys, number: int, name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL {number:02d} {name}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"PASS {number:02d} {name} ({elapsed:.1f}s)", flush=True)


def test_01_running_example(capsys):
    with criterion(capsys, 1, "running-example"):
        sigma0 = Morphism.of({1: "a", 2: "a", 3: "b"})
        verdict = is_ambiguous(sigma0, A0)
        assert isinstance(verdict, Witness)
        assert verdict.tau.apply(A0) == sigma0.apply(A0) == "aababa"
        tau0 = Morphism.of({1: "", 2: "a", 3: "ab"})
        assert tau0 in enumerate_preimages(A0, "aababa")
        sigma1 = Morphism.of({1: "a", 2: "ab", 3: "b"})
        assert isinstance(is_ambiguous(sigma1, A0), NoWitness)
        assert isinstance(is_ambiguous(sigma0, A0, allow_erasing=False), NoWitness)


def test_02_square_free_ternary_family(capsys):
    with criterion(capsys, 2, "square-free-ternary-family"):
        for ok, description in thue_checks(range(4, 7)):
            assert ok, description


def test_03_shortest_binary_patterns(capsys):
    with criterion(capsys, 3, "shortest-binary-patterns"):
        for ok, description in shortest_checks(range(2, 9)):
            assert ok, description
        # Minimality at n = 4: every strictly shorter 4-variable pattern is a
        # fixed point, so length 8 really is the least possible.
        shorter = 0
        for length in range(4, 8):
            for pattern in enumerate_canonical_patterns(length, min_vars=4, max_vars=4):
                shorter += 1
                assert isinstance(is_fixed_point(pattern), FixedPoint), pattern
        assert shorter == 426


def test_04_merged_morphism_examples(capsys):
    with criterion(capsys, 4, "merged-morphism-examples"):
        sigma_24 = merge_morphism({1, 2, 3, 4}, 2, 4)
        assert sigma_24.apply(A1) == "abcbabcb"
        assert image_is_fixed_point(A1, 2, 4)

        sigma_23 = merge_morphism({1, 2, 3, 4}, 2, 3)
        image = sigma_23.apply(A1)
        assert canonical_form(word_to_pattern(image)) == canonical_form(
            word_to_pattern("abbcacbb")
        )
        assert not image_is_fixed_point(A1, 2, 3)
        assert isinstance(is_ambiguous(sigma_23, A1), Witness)

        sigma_14 = merge_morphism({1, 2, 3, 4}, 1, 4)
        assert pair_condition(A1, 1, 4).passes
        assert isinstance(is_ambiguous(sigma_14, A1), NoWitness)

        assert isinstance(is_ambiguous(sigma_24, A2), Witness)
        tau = Morphism.of({1: "abccb", 2: "b", 3: "", 4: ""})
        assert tau.apply(A2) == sigma_24.apply(A2)


def test_05_pair_condition_soundness(capsys):
    with criterion(capsys, 5, "pair-condition-soundness"):
        assert list(pair_theorem_checks(10)) == [
            (
                True,
                "4380 passing pairs across 1122 uniform non-fixed-point "
                "patterns of length <= 10 all verify unambiguous",
            )
        ]


def test_06_seven_variable_pair_existence(capsys):
    with criterion(capsys, 6, "seven-variable-pair-existence"):
        count = 0
        for pattern in enumerate_canonical_patterns(
            14, min_vars=7, uniform_multiplicity=2
        ):
            count += 1
            assert candidate_pairs(pattern), pattern
        assert count == 135135


def test_07_doubled_variable_pair_search(capsys):
    with criterion(capsys, 7, "doubled-variable-pair-search"):
        total = non_fixed = 0
        for record in conjecture_scan(12, "theorem7"):
            total += 1
            assert not record.finding
            assert not record.budget_hit
            if record.is_fixed_point:
                assert record.best_sigma_ij is None
                continue
            non_fixed += 1
            assert record.best_sigma_ij is not None, record.pattern
            i, j = record.best_sigma_ij
            sigma = merge_morphism(record.pattern.variables, i, j)
            assert isinstance(is_ambiguous(sigma, record.pattern), NoWitness), record
        assert total == 11445
        assert non_fixed == 7256


def test_08_unique_2_factor_images(capsys):
    with criterion(capsys, 8, "unique-2-factor-images"):
        patterns = images = 0
        for length in range(2, 11):
            for pattern in enumerate_canonical_patterns(length, min_multiplicity=2):
                patterns += 1
                variables = sorted(pattern.variables)
                for coloring in canonical_colorings(len(variables), 4):
                    sigma = Morphism.of(
                        {v: "abcd"[c] for v, c in zip(variables, coloring)}
                    )
                    if not has_unique_2_factors(sigma.apply(pattern)):
                        continue
                    images += 1
                    assert isinstance(is_ambiguous(sigma, pattern), NoWitness), (
                        pattern,
                        sigma,
                    )
                    assert isinstance(is_fixed_point(pattern), NotFixedPoint), pattern
        assert patterns == 22082
        assert images == 4907


def test_09_debruijn_pattern_family(capsys):
    with criterion(capsys, 9, "debruijn-pattern-family"):
        for ok, description in pi_db_checks(3):
            assert ok, description


def test_10_preimage_oracle_equivalence(capsys):
    with criterion(capsys, 10, "preimage-oracle-equivalence"):
        instances = 0
        patterns = [
            p
            for length in range(1, 6)
            for p in naive_canonical_patterns(length)
            if len(p.variables) <= 3
        ]
        words = [
            "".join(letters)
            for wlen in range(0, 6)
            for letters in itertools.product("ab", repeat=wlen)
        ]
        for pattern in patterns:
            for word in words:
                instances += 1
                for allow_erasing in (True, False):
                    got = enumerate_preimages(pattern, word, allow_erasing=allow_erasing)
                    expected = oracle_preimages(pattern, word, allow_erasing=allow_erasing)
                    assert sorted(got, key=str) == sorted(expected, key=str), (
                        pattern,
                        word,
                    )
        assert instances == 63 * 63


def test_11_conjecture_scans(capsys):
    with criterion(capsys, 11, "conjecture-scans"):
        expected = {"conjecture2": 127650, "conjecture3": 141394}
        for target, total in expected.items():
            records = findings = budget_hits = 0
            for record in conjecture_scan(10, target):
                records += 1
                findings += record.finding
                budget_hits += record.budget_hit
            assert records == total, (target, records)
            assert findings == 0, target
            assert budget_hits == 0, target


def test_12_fixed_points_defeat_binary_morphisms(capsys):
    with criterion(capsys, 12, "fixed-points-defeat-binary-morphisms"):
        fixed_points = morphisms = 0
        for length in range(1, 9):
            for pattern in enumerate_canonical_patterns(length):
                if not isinstance(is_fixed_point(pattern), FixedPoint):
                    continue
                fixed_points += 1
                variables = sorted(pattern.variables)
                for letters in itertools.product("ab", repeat=len(variables)):
                    sigma = Morphism.of(dict(zip(variables, letters)))
                    morphisms += 1
                    assert isinstance(is_ambiguous(sigma, pattern), Witness), (
                        pattern,
                        sigma,
                    )
        assert fixed_points == 4469
        assert morphisms == 100848
