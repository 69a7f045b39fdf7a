from collections import Counter

import pytest
from hypothesis import given
import hypothesis.strategies as st

from unambig.errors import DomainError, ParseError
from unambig.words import (
    ALPHABET,
    BOUNDARY,
    Pattern,
    alphabet,
    canonical_form,
    factor_multiplicity,
    is_square_free,
    neighbourhoods,
    parse_pattern,
    word_to_pattern,
)

from conftest import pattern_strategy, word_strategy


class TestPattern:
    def test_symbols_must_be_positive(self):
        with pytest.raises(DomainError):
            Pattern((1, 0, 2))
        with pytest.raises(DomainError):
            Pattern((-3,))

    def test_bool_is_not_a_variable(self):
        # True == 1 would make the pattern equal 1 2 1 but print as True 2 True
        with pytest.raises(DomainError, match="pattern variables must be positive integers, got True"):
            Pattern((True, 2, True))

    def test_sequence_protocol(self):
        p = Pattern((1, 2, 1))
        assert len(p) == 3
        assert list(p) == [1, 2, 1]
        assert p[1] == 2
        assert p + Pattern((3,)) == Pattern((1, 2, 1, 3))
        assert bool(p) and not bool(Pattern(()))

    def test_variables_and_multiplicities(self):
        p = parse_pattern("1 2 3 1 3 2")
        assert p.variables == frozenset({1, 2, 3})
        assert p.multiplicities == {1: 2, 2: 2, 3: 2}
        assert p.multiplicity(3) == 2
        assert p.multiplicity(9) == 0

    @given(pattern_strategy())
    def test_multiplicities_match_counter(self, p):
        assert p.multiplicities == dict(Counter(p.symbols))


class TestParsePattern:
    def test_known_forms(self):
        assert parse_pattern("1 2 3 1 3 2").symbols == (1, 2, 3, 1, 3, 2)
        assert parse_pattern("") == Pattern(())
        assert parse_pattern("1.1.2.2").symbols == (1, 1, 2, 2)

    def test_bad_tokens_are_named(self):
        with pytest.raises(ParseError, match="x"):
            parse_pattern("1 x 2")
        with pytest.raises(ParseError, match="0"):
            parse_pattern("1 0 2")
        with pytest.raises(ParseError, match="-2"):
            parse_pattern("-2")

    @given(pattern_strategy(min_len=0))
    def test_round_trip(self, p):
        assert parse_pattern(str(p)) == p


class TestCanonicalForm:
    @pytest.mark.parametrize(
        "before,after",
        [("2 3 2", "1 2 1"), ("1 2 3 1 3 2", "1 2 3 1 3 2"), ("5 5 7 5", "1 1 2 1")],
    )
    def test_relabels_by_first_occurrence(self, before, after):
        assert canonical_form(parse_pattern(before)) == parse_pattern(after)

    @given(pattern_strategy(min_len=0, max_vars=6))
    def test_idempotent(self, p):
        c = canonical_form(p)
        assert canonical_form(c) == c

    @given(pattern_strategy(max_vars=6))
    def test_preserves_occurrence_structure(self, p):
        c = canonical_form(p)
        assert len(c) == len(p)
        for a in range(len(p)):
            for b in range(len(p)):
                assert (p[a] == p[b]) == (c[a] == c[b])

    @given(pattern_strategy(max_vars=6))
    def test_first_occurrences_count_up_from_one(self, p):
        seen = []
        for s in canonical_form(p):
            if s not in seen:
                seen.append(s)
        assert seen == list(range(1, len(seen) + 1))


class TestNeighbourhoods:
    def test_six_symbol_example(self):
        n = neighbourhoods(parse_pattern("1 2 3 1 3 2"))
        assert n.left[1] == frozenset({BOUNDARY, 3})
        assert n.right[1] == frozenset({2, 3})
        assert n.left[2] == frozenset({1, 3})
        assert n.right[2] == frozenset({3, BOUNDARY})
        assert n.left[3] == frozenset({2, 1})
        assert n.right[3] == frozenset({1, 2})

    def test_single_symbol(self):
        n = neighbourhoods(parse_pattern("1"))
        assert n.left[1] == frozenset({BOUNDARY})
        assert n.right[1] == frozenset({BOUNDARY})

    def test_alternating_pair(self):
        n = neighbourhoods(parse_pattern("1 2 1 2"))
        assert n.left[2] == frozenset({1})
        assert n.right[1] == frozenset({2})
        assert n.left[1] == frozenset({BOUNDARY, 2})
        assert n.right[2] == frozenset({1, BOUNDARY})

    def test_empty_pattern_rejected(self):
        with pytest.raises(DomainError):
            neighbourhoods(Pattern(()))

    @given(pattern_strategy(max_vars=5))
    def test_boundary_markers_track_ends(self, p):
        n = neighbourhoods(p)
        for x in p.variables:
            assert (BOUNDARY in n.left[x]) == (p[0] == x)
            assert (BOUNDARY in n.right[x]) == (p[len(p) - 1] == x)

    @given(pattern_strategy(max_vars=5))
    def test_membership_matches_adjacent_factors(self, p):
        n = neighbourhoods(p)
        factors = {(p[k], p[k + 1]) for k in range(len(p) - 1)}
        for x in p.variables:
            for y in p.variables:
                assert (y in n.left[x]) == ((y, x) in factors)
                assert (y in n.right[x]) == ((x, y) in factors)


class TestSquareFree:
    @pytest.mark.parametrize(
        "word,expected",
        [("aa", False), ("abcacbabcbacabcacbaca", True), ("abcabc", False), ("", True), ("a", True)],
    )
    def test_known_words(self, word, expected):
        assert is_square_free(word) == expected

    @given(st.text(alphabet="abc", max_size=12))
    def test_agrees_with_brute_force(self, w):
        brute = any(
            w[p : p + n] == w[p + n : p + 2 * n]
            for n in range(1, len(w) // 2 + 1)
            for p in range(len(w) - 2 * n + 1)
        )
        assert is_square_free(w) == (not brute)

    def test_works_on_patterns_too(self):
        assert is_square_free(parse_pattern("1 2 1"))
        assert not is_square_free(parse_pattern("1 2 1 2"))


class TestFactorMultiplicity:
    def test_de_bruijn_word_has_unique_pairs(self):
        counts = factor_multiplicity("aabacbbcca", 2)
        assert counts == {
            "aa": 1, "ab": 1, "ba": 1, "ac": 1, "cb": 1,
            "bb": 1, "bc": 1, "cc": 1, "ca": 1,
        }

    def test_overlapping_occurrences(self):
        assert factor_multiplicity("aaa", 2) == {"aa": 2}

    def test_short_word_empty_map(self):
        assert factor_multiplicity("ab", 3) == {}

    def test_zero_length_rejected(self):
        with pytest.raises(DomainError):
            factor_multiplicity("ab", 0)

    @given(word_strategy(max_len=10), st.integers(1, 4))
    def test_counts_sum_to_window_count(self, w, n):
        assert sum(factor_multiplicity(w, n).values()) == max(len(w) - n + 1, 0)


class TestAlphabetAndWords:
    def test_alphabet_prefixes(self):
        assert alphabet(3) == "abc"
        assert ALPHABET.startswith("abcdefghijklmnopqrstuvwxyz")
        with pytest.raises(DomainError):
            alphabet(0)
        with pytest.raises(DomainError):
            alphabet(27)

    def test_word_to_pattern(self):
        assert word_to_pattern("abcbabcb") == parse_pattern("1 2 3 2 1 2 3 2")
        assert word_to_pattern("") == Pattern(())
        with pytest.raises(DomainError):
            word_to_pattern("aB")
