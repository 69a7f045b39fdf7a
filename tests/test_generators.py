import hashlib
import itertools

import pytest

from unambig import generators
from unambig.conditions import has_unique_2_factors
from unambig.errors import DomainError, ResourceError
from unambig.generators import (
    MAX_DEBRUIJN_LENGTH,
    DeBruijnPattern,
    debruijn_patterns,
    debruijn_word,
    double_letters,
    enumerate_debruijn,
    exponent_pattern,
    shortest_non_fixed_point,
    splice,
    squares_pattern,
    thue_morphism,
    thue_word,
)
from unambig.morphisms import Morphism
from unambig.solver import NotFixedPoint, NoWitness, is_ambiguous, is_fixed_point
from unambig.words import Pattern, factor_multiplicity, is_square_free, parse_pattern


class TestThueWord:
    def test_known_prefix(self):
        assert thue_word(21) == "abcacbabcbacabcacbaca"

    def test_short_prefixes(self):
        assert thue_word(0) == ""
        assert thue_word(1) == "a"

    def test_prefix_closed(self):
        long = thue_word(300)
        for length in (0, 1, 7, 50, 299):
            assert thue_word(length) == long[:length]

    def test_square_free_up_to_500(self):
        assert is_square_free(thue_word(500))

    def test_negative_length_rejected(self):
        with pytest.raises(DomainError):
            thue_word(-1)

    def test_longest_prefix_under_the_length_guard(self):
        assert len(thue_word(MAX_DEBRUIJN_LENGTH)) == MAX_DEBRUIJN_LENGTH


class TestDoubleLetters:
    def test_examples(self):
        assert double_letters("abc") == "aabbcc"
        assert double_letters("") == ""

    def test_doubled_thue_prefix(self):
        assert double_letters(thue_word(5)) == "aabbccaacc"

    def test_no_square_of_length_at_least_two(self):
        # Only the letter squares aa, bb, cc survive the doubling.
        w = double_letters(thue_word(200))
        for half in range(2, len(w) // 2 + 1):
            for start in range(len(w) - 2 * half + 1):
                assert w[start : start + half] != w[start + half : start + 2 * half]


class TestSquaresPattern:
    def test_examples(self):
        assert squares_pattern(4) == parse_pattern("1 1 2 2 3 3 4 4")
        assert squares_pattern(1) == parse_pattern("1 1")

    def test_shape(self):
        p = squares_pattern(5)
        assert len(p) == 10
        assert all(count == 2 for count in p.multiplicities.values())

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            squares_pattern(0)


class TestThueMorphism:
    def test_m4(self):
        sigma = thue_morphism(4)
        assert sigma == Morphism.of({1: "a", 2: "b", 3: "c", 4: "a"})
        assert sigma.apply(squares_pattern(4)) == "aabbccaa"

    @pytest.mark.parametrize("m", range(1, 12))
    def test_image_is_doubled_thue_prefix(self, m):
        assert thue_morphism(m).apply(squares_pattern(m)) == double_letters(thue_word(m))

    @pytest.mark.parametrize("m", [4, 5])
    def test_unambiguous_from_four_squares_on(self, m):
        assert isinstance(is_ambiguous(thue_morphism(m), squares_pattern(m)), NoWitness)


class TestExponentPattern:
    def test_examples(self):
        assert exponent_pattern([2, 3, 2]) == parse_pattern("1 1 2 2 3 3 3 4 4 4 5 5 6 6")
        assert exponent_pattern([2]) == parse_pattern("1 1 2 2")

    def test_square_exponents_rejected(self):
        with pytest.raises(DomainError):
            exponent_pattern([2, 2])
        with pytest.raises(DomainError):
            exponent_pattern([2, 3, 2, 3])

    def test_small_exponents_rejected(self):
        with pytest.raises(DomainError):
            exponent_pattern([2, 1, 2])
        with pytest.raises(DomainError):
            exponent_pattern([])

    def test_variable_layout(self):
        p = exponent_pattern([3, 2, 3])
        assert len(p.variables) == 6
        assert p.multiplicities == {1: 3, 2: 3, 3: 2, 4: 2, 5: 3, 6: 3}


class TestShortestNonFixedPoint:
    def test_even_form(self):
        pattern, sigma = shortest_non_fixed_point(6)
        assert pattern == parse_pattern("1 2 3 4 5 6 4 1 5 2 6 3")
        assert sigma == Morphism.of(
            {1: "a", 2: "a", 3: "a", 4: "b", 5: "b", 6: "b"}
        )

    def test_odd_form(self):
        pattern, sigma = shortest_non_fixed_point(5)
        assert pattern == parse_pattern("1 1 2 3 4 5 4 2 5 3")
        assert sigma == Morphism.of({1: "a", 2: "a", 3: "a", 4: "b", 5: "b"})

    def test_two_variables(self):
        pattern, _ = shortest_non_fixed_point(2)
        assert pattern == parse_pattern("1 2 2 1")

    def test_too_few_variables_rejected(self):
        with pytest.raises(DomainError):
            shortest_non_fixed_point(1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_construction_properties(self, n):
        pattern, sigma = shortest_non_fixed_point(n)
        assert len(pattern) == 2 * n
        assert len(pattern.variables) == n
        assert all(count == 2 for count in pattern.multiplicities.values())
        assert isinstance(is_fixed_point(pattern), NotFixedPoint)
        assert sigma.letters <= {"a", "b"}
        assert isinstance(is_ambiguous(sigma, pattern), NoWitness)


class TestDebruijnWord:
    def test_known_words(self):
        assert debruijn_word(3, 2) == "aabacbbcca"
        assert debruijn_word(2, 1) == "ab"
        assert debruijn_word(2, 2) == "aabba"

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(DomainError):
            debruijn_word(0, 2)
        with pytest.raises(DomainError):
            debruijn_word(2, 0)

    @pytest.mark.parametrize("k,n", [(k, n) for k in (1, 2, 3, 4) for n in (1, 2, 3)])
    def test_every_factor_exactly_once(self, k, n):
        word = debruijn_word(k, n)
        assert len(word) == k**n + n - 1
        counts = factor_multiplicity(word, n)
        assert len(counts) == k**n
        assert set(counts.values()) == {1}

    @pytest.mark.parametrize("k,n", [(k, n) for k in range(1, 9) for n in range(1, 9) if k**n <= 64])
    def test_is_the_first_word_enumerated(self, k, n):
        assert debruijn_word(k, n) == next(enumerate_debruijn(k, n))

    def test_order_beyond_the_recursion_limit(self):
        assert debruijn_word(1, 5000) == "a" * 5000

    def test_longest_binary_word_under_the_guard(self):
        word = debruijn_word(2, 21)
        assert len(word) == 2**21 + 20 <= MAX_DEBRUIJN_LENGTH
        assert word.startswith("a" * 21 + "b") and word.endswith("a" + "b" * 21 + "a" * 20)

    @pytest.mark.parametrize("k,n", [(2, 40), (2, 22), (1, MAX_DEBRUIJN_LENGTH + 1), (26, 10**9)])
    def test_guard(self, k, n):
        with pytest.raises(ResourceError, match="de Bruijn words support length"):
            debruijn_word(k, n)


class TestEnumerateDebruijn:
    def test_binary_order_two(self):
        words = list(enumerate_debruijn(2, 2))
        assert words == sorted(words)
        assert "aabba" in words
        assert all(len(w) == 5 for w in words)
        brute = [
            w
            for w in ("".join(t) for t in itertools.product("ab", repeat=5))
            if len(factor_multiplicity(w, 2)) == 4
            and set(factor_multiplicity(w, 2).values()) == {1}
        ]
        assert words == brute

    def test_ternary_order_two(self):
        words = list(enumerate_debruijn(3, 2))
        assert len(words) == 216
        assert words[0] == debruijn_word(3, 2)
        assert all(len(w) == 10 for w in words)
        assert all(has_unique_2_factors(w) for w in words)

    def test_single_letter(self):
        assert list(enumerate_debruijn(1, 2)) == ["aa"]

    def test_order_one_is_every_permutation(self):
        assert list(enumerate_debruijn(2, 1)) == ["ab", "ba"]
        assert list(enumerate_debruijn(3, 1)) == ["".join(p) for p in itertools.permutations("abc")]

    def test_guard(self):
        with pytest.raises(ResourceError):
            list(enumerate_debruijn(3, 4))
        with pytest.raises(ResourceError):
            list(enumerate_debruijn(2, 7))

    def test_long_single_letter_order_under_the_length_guard(self):
        assert list(enumerate_debruijn(1, 5000)) == ["a" * 5000]

    @pytest.mark.parametrize("k,n", [(1, MAX_DEBRUIJN_LENGTH + 1), (1, 10**8), (2, 40), (26, 10**9)])
    def test_length_guard_fires_before_the_walk_starts(self, monkeypatch, k, n):
        # at k = 1 the 64-word guard always passes; the walk's start tuple
        # would hold n - 1 letters
        def no_walk(*args, **kwargs):
            raise AssertionError("the walk started")

        monkeypatch.setattr(generators, "product", no_walk)
        with pytest.raises(ResourceError, match="de Bruijn words support length"):
            next(enumerate_debruijn(k, n))


class TestDebruijnPatterns:
    def test_contains_the_known_item(self):
        wanted = DeBruijnPattern(
            pattern=parse_pattern("1 1 2 3 4 2 2 4 4 3"),
            natural_morphism=Morphism.of({1: "a", 2: "b", 3: "a", 4: "c"}),
            source_word="aabacbbcca",
        )
        assert wanted in list(debruijn_patterns(3))

    def test_item_invariants(self):
        items = list(debruijn_patterns(3))
        assert len(items) >= 36
        for item in items:
            assert len(item.pattern.variables) == 4
            assert all(count >= 2 for count in item.pattern.multiplicities.values())
            assert item.natural_morphism.apply(item.pattern) == item.source_word
            assert has_unique_2_factors(item.source_word)

    def test_per_word_deduplication(self):
        items = list(debruijn_patterns(3))
        keys = {(item.source_word, item.pattern) for item in items}
        assert len(keys) == len(items)

    def test_stream_is_pinned(self):
        # sha256 of every (pattern, natural morphism, source word), recorded
        # when the positions were split by a recursion of their own
        digest = hashlib.sha256()
        for item in debruijn_patterns(3):
            digest.update(f"{item.pattern}|{item.natural_morphism}|{item.source_word}\n".encode())
        assert digest.hexdigest() == "d5d5aa11ce0a57bd63c4408bd5c5b6911e48332015859ddf291a4c5f9691b7cd"

    def test_guard(self):
        with pytest.raises(ResourceError):
            next(debruijn_patterns(2))
        with pytest.raises(ResourceError):
            next(debruijn_patterns(5))


class TestSplice:
    def test_inserts_between_the_parts(self):
        a1 = parse_pattern("1 2 3 4 1 4 3 2")
        beta = parse_pattern("5 6 7 8 5 8 7 6")
        assert splice(a1, Pattern(()), beta) == a1 + beta

    def test_shared_variables_rejected(self):
        a1 = parse_pattern("1 2 3 4 1 4 3 2")
        with pytest.raises(DomainError, match="share"):
            splice(a1, Pattern(()), parse_pattern("4 5 6 7 4 7 6 5"))

    def test_fixed_point_part_rejected(self):
        square = parse_pattern("1 2 3 4 1 2 3 4")
        beta = parse_pattern("5 6 7 8 5 8 7 6")
        with pytest.raises(DomainError, match="fixed point"):
            splice(square, Pattern(()), beta)
        with pytest.raises(DomainError, match="fixed point"):
            splice(beta, Pattern(()), square)

    def test_multiplicity_hypothesis_rejected(self):
        with pytest.raises(DomainError, match="multiplicity"):
            splice(parse_pattern("1 2 3 1 3 2"), Pattern(()), parse_pattern("4 5 6 4 6 5"))
