import hashlib

import pytest
from hypothesis import given
import hypothesis.strategies as st

from unambig.errors import DomainError, ParseError
from unambig.morphisms import (
    Morphism,
    Substitution,
    erase_variable,
    merge_morphism,
    renaming,
)
from unambig.words import Pattern, parse_pattern

from conftest import pattern_strategy


def morphism_strategy(max_vars: int = 4, max_image: int = 3):
    return st.dictionaries(
        st.integers(1, max_vars),
        st.text(alphabet="abc", max_size=max_image),
        min_size=1,
        max_size=max_vars,
    ).map(Morphism.of)


class TestMorphism:
    def test_parse_and_text_forms(self):
        m = Morphism.parse("1=,2=a,3=ab")
        assert m[1] == "" and m[2] == "a" and m[3] == "ab"
        assert str(m) == "1=,2=a,3=ab"
        assert Morphism.parse("") == Morphism.of({})

    def test_parse_rejects_bad_entries(self):
        with pytest.raises(ParseError):
            Morphism.parse("1=a,1=b")
        with pytest.raises(ParseError):
            Morphism.parse("1")
        with pytest.raises(ParseError):
            Morphism.parse("x=a")
        with pytest.raises(ParseError):
            Morphism.parse("1=A")

    @given(morphism_strategy())
    def test_round_trip(self, m):
        assert Morphism.parse(str(m)) == m

    def test_bool_is_not_a_variable(self):
        with pytest.raises(DomainError, match="morphism domain must be positive integers, got True"):
            Morphism.of({True: "a"})

    def test_bool_is_not_looked_up(self):
        sigma = Morphism.of({1: "a"})
        with pytest.raises(DomainError, match="variable True outside morphism domain"):
            sigma[True]
        assert sigma.get(True) is None
        assert sigma.get(True, "q") == "q"
        assert sigma[1] == "a" and sigma.get(1) == "a"

    def test_apply(self):
        sigma = Morphism.of({1: "a", 2: "a", 3: "b"})
        assert sigma.apply(parse_pattern("1 2 3 1 3 2")) == "aabab" + "a"
        assert sigma.apply(Pattern(())) == ""

    def test_apply_names_missing_variable(self):
        with pytest.raises(DomainError, match="4"):
            Morphism.of({1: "a"}).apply(parse_pattern("1 4"))

    def test_domain_and_letters(self):
        m = Morphism.of({2: "ba", 5: ""})
        assert m.domain == frozenset({2, 5})
        assert m.letters == frozenset({"a", "b"})
        assert m.get(7) is None
        with pytest.raises(DomainError):
            m[7]

    @pytest.mark.parametrize(
        "images,one_uniform,nonerasing,is_renaming",
        [
            ({1: "a", 2: "b"}, True, True, True),
            ({1: "a", 2: "a"}, True, True, False),
            ({1: "ab", 2: "b"}, False, True, False),
            ({1: "", 2: "b"}, False, False, False),
        ],
    )
    def test_classify(self, images, one_uniform, nonerasing, is_renaming):
        cls = Morphism.of(images).classify()
        assert cls.one_uniform == one_uniform
        assert cls.nonerasing == nonerasing
        assert cls.renaming == is_renaming

    @given(morphism_strategy())
    def test_classify_invariants(self, m):
        cls = m.classify()
        if cls.renaming:
            assert cls.one_uniform and cls.nonerasing
        if cls.one_uniform:
            assert cls.nonerasing


class TestRenaming:
    def test_orders_by_variable(self):
        assert renaming({3, 1, 7}) == Morphism.of({1: "a", 3: "b", 7: "c"})

    def test_too_many_variables_rejected(self):
        with pytest.raises(DomainError):
            renaming(set(range(1, 28)))

    @given(st.sets(st.integers(1, 60), min_size=1, max_size=26))
    def test_always_injective_1_uniform(self, variables):
        r = renaming(variables)
        assert r.classify().renaming
        images = [r[v] for v in variables]
        assert len(set(images)) == len(images)


class TestMergeMorphism:
    def test_merges_j_onto_i(self):
        m = merge_morphism({1, 2, 3, 4}, 2, 3)
        assert m == Morphism.of({1: "a", 2: "b", 3: "b", 4: "d"})

    def test_example_pairs(self):
        variables = {1, 2, 3, 4}
        assert merge_morphism(variables, 2, 4) == Morphism.of({1: "a", 2: "b", 3: "c", 4: "b"})
        assert merge_morphism(variables, 1, 2) == Morphism.of({1: "a", 2: "a", 3: "c", 4: "d"})

    def test_distinct_letter_count_is_vars_minus_one(self):
        variables = {1, 2, 3, 4, 5}
        for i in variables:
            for j in variables:
                if i == j:
                    continue
                m = merge_morphism(variables, i, j)
                assert len(m.letters) == len(variables) - 1
                assert m[i] == m[j]

    def test_validates_inputs(self):
        with pytest.raises(DomainError):
            merge_morphism({1, 2}, 1, 1)
        with pytest.raises(DomainError):
            merge_morphism({1, 2}, 1, 3)
        with pytest.raises(DomainError):
            merge_morphism({1, 2, 3}, 1, 2, alphabet_size=1)
        # Two variables collapse to a single letter, so one suffices.
        assert merge_morphism({1, 2}, 1, 2, alphabet_size=1) == Morphism.of({1: "a", 2: "a"})

    def test_last_of_27_variables_merges_into_26_letters(self):
        # j's letter is i's, so j's own rank never names a letter
        m = merge_morphism(range(1, 28), 3, 27)
        assert m[27] == m[3] == "c"
        assert len(m.letters) == 26
        with pytest.raises(DomainError, match="alphabet too small: construction needs 27 letters"):
            merge_morphism(range(1, 28), 3, 26)


class TestEraseVariable:
    def test_deletes_all_occurrences(self):
        a0 = parse_pattern("1 2 3 1 3 2")
        assert erase_variable(a0, 1) == parse_pattern("2 3 3 2")
        assert erase_variable(a0, 2) == parse_pattern("1 3 1 3")
        assert erase_variable(a0, 3) == parse_pattern("1 2 1 2")

    def test_absent_variable_is_identity(self):
        assert erase_variable(parse_pattern("1 2 1"), 5) == parse_pattern("1 2 1")

    def test_can_empty_the_pattern(self):
        assert erase_variable(parse_pattern("1 1"), 1) == Pattern(())

    @given(pattern_strategy(max_vars=5))
    def test_result_never_contains_the_variable(self, p):
        for x in p.variables:
            assert x not in erase_variable(p, x).variables


def substitution_strategy(max_vars: int = 4):
    return st.dictionaries(
        st.integers(1, max_vars), pattern_strategy(min_len=0, max_len=4, max_vars=max_vars), max_size=max_vars
    ).map(Substitution.of)


class TestSubstitution:
    def test_parse_apply_round_trip(self):
        phi = Substitution.parse("1=,2=1 2")
        assert phi.apply(parse_pattern("1 2 1 2")) == parse_pattern("1 2 1 2")
        assert Substitution.parse(str(phi)) == phi

    @given(substitution_strategy())
    def test_round_trip(self, phi):
        assert Substitution.parse(str(phi)) == phi

    @pytest.mark.parametrize(
        "text,message",
        [
            ("1", "substitution entry '1' is missing '='"),
            ("x=1", "invalid substitution variable 'x'"),
            ("0=1", "substitution variables must be >= 1, got '0'"),
            ("1=1,1=2", "duplicate substitution variable 1"),
            ("1=1 y", "invalid pattern token 'y'"),
        ],
    )
    def test_parse_rejects_bad_entries(self, text, message):
        with pytest.raises(ParseError) as info:
            Substitution.parse(text)
        assert str(info.value) == message

    def test_bool_is_not_a_variable(self):
        with pytest.raises(DomainError, match="substitution domain must be positive integers, got True"):
            Substitution.of({True: Pattern(())})

    @pytest.mark.parametrize("image", ["1 2", (1, 2), None, ""])
    def test_images_must_be_patterns(self, image):
        with pytest.raises(DomainError, match="substitution images must be patterns"):
            Substitution.of({1: image})

    def test_bool_is_not_looked_up(self):
        with pytest.raises(DomainError, match="variable True outside substitution domain"):
            Substitution.of({1: Pattern(())})[True]

    def test_apply_missing_variable(self):
        with pytest.raises(DomainError):
            Substitution.of({1: Pattern(())}).apply(parse_pattern("1 2"))


def outcome(fn, *args):
    """The repr of what the call returns, or its exception class and text."""
    try:
        return ("ok", repr(fn(*args)))
    except Exception as exc:
        return (type(exc).__name__, str(exc))


MORPHISM_MAPS = (
    {},
    {1: ""},
    {1: "a"},
    {2: "ba", 5: ""},
    {1: "a", 2: "a", 3: "b"},
    {3: "abc", 1: "", 2: "zz"},
    {1: "ab", 2: "b"},
    {1: "a", 2: "b"},
    {4: "c", 1: "a", 3: "b", 2: "d"},
    {1: "a", 2: "b", 3: "c", 4: "b"},
)
SUBSTITUTION_TEXTS = ("", "1=", "1=1", "1=,2=1 2", "2=1 2,1=", "1=2,2=1", "1=1.2.1,3=3,2=", "5=7 7,2=2")
GOLDEN_PATTERNS = ("", "1", "1 2 1", "2 5 2", "1 2 3 1 3 2", "3 3 1", "1 4", "7", "1 2 3 4 1 4 3 2")
BAD_MORPHISM_MAPS = (
    {0: "a"},
    {-1: "a"},
    {"1": "a"},
    {1.0: "a"},
    {1: "A"},
    {1: 3},
    {1: "a b"},
    {1: None},
    {2: "a", 0: "b"},
)
BAD_SUBSTITUTION_MAPS = ({0: Pattern(())}, {-3: Pattern((1,))}, {"1": Pattern(())}, {2.5: Pattern(())})
BAD_MORPHISM_TEXTS = (
    "1=a,1=b",
    "1",
    "x=a",
    "1=A",
    "0=a",
    "-1=a",
    "1=a,",
    ",",
    "1=a, 2=b",
    "1 = a",
    "+1=a",
    "1_0=a",
    "=a",
    "1=a=b",
    "2=b,1=a,2=c",
)
BAD_SUBSTITUTION_TEXTS = ("1", "x=1", "1=x", "1=0", "1=1 -2", "1=1,", ",", "1 = 1 2", "=1", "1=1=1")
# the two Substitution.parse inputs whose texts may change: only the
# exception class enters the digest
RENUMBERED_SUBSTITUTION_TEXTS = ("0=1", "1=1,1=2")


def golden_morphism_outcomes():
    patterns = [parse_pattern(text) for text in GOLDEN_PATTERNS]
    morphisms = [Morphism.of(m) for m in MORPHISM_MAPS]
    morphisms += [Morphism.parse("1=,2=a,3=ab"), Morphism.parse(""), Morphism(()), Morphism(((1, "a"),))]
    substitutions = [Substitution.parse(text) for text in SUBSTITUTION_TEXTS]
    substitutions += [Substitution.of({2: Pattern((1, 1)), 1: Pattern(())}), Substitution(())]
    for sigma in morphisms:
        yield repr(sigma), str(sigma), outcome(Morphism.parse, str(sigma))
        yield sorted(sigma.domain), sorted(sigma.letters), sigma.classify()
        for var in range(-1, 7):
            yield var, outcome(sigma.__getitem__, var), sigma.get(var), sigma.get(var, "q")
        yield outcome(sigma.__getitem__, "1")
        for pattern in patterns:
            yield outcome(sigma.apply, pattern)
    for phi in substitutions:
        yield repr(phi), str(phi), outcome(Substitution.parse, str(phi)), sorted(phi.domain)
        for var in range(-1, 7):
            yield var, outcome(phi.__getitem__, var)
        yield outcome(phi.__getitem__, "1")
        for pattern in patterns:
            yield outcome(phi.apply, pattern)
    for group in (morphisms, substitutions, morphisms[:3] + substitutions[:3]):
        for a in group:
            yield [(a == b, a != b, hash(a) == hash(b), outcome(lambda: a < b)) for b in group]
        yield outcome(lambda: [group.index(x) for x in sorted(group)])
    for mapping in BAD_MORPHISM_MAPS:
        yield outcome(Morphism.of, mapping)
    for mapping in BAD_SUBSTITUTION_MAPS:
        yield outcome(Substitution.of, mapping)
    for text in BAD_MORPHISM_TEXTS:
        yield outcome(Morphism.parse, text)
    for text in BAD_SUBSTITUTION_TEXTS:
        yield outcome(Substitution.parse, text)
    for text in RENUMBERED_SUBSTITUTION_TEXTS:
        yield outcome(Substitution.parse, text)[0]
    for variables in ({1}, {3, 1, 7}, set(range(1, 27)), set(range(1, 28)), set(), {0, 2}):
        yield outcome(renaming, variables)
    for variables in ({1, 2}, {1, 2, 3, 4}, {2, 5, 9}, set(range(1, 27)), set(range(1, 28))):
        for i in sorted(variables)[:3] + [0, 30]:
            for j in sorted(variables)[-3:] + [0]:
                for size in (None, 1, 2, 3, 26):
                    yield outcome(merge_morphism, variables, i, j, size)


# sha256 of golden_morphism_outcomes(), one repr per line, recorded while
# Morphism and Substitution were two separate implementations, and recorded
# again when merging j = 27 of 27 variables stopped raising IndexError (those
# six merge_morphism cases now give their morphism; nothing else changed):
# any change to a repr, a text form, an order, a hash class, an answer or an
# error text changes it.
MORPHISMS_DIGEST = "4c71b886c934a4a9a2c448156b809d4097fb01ae5b65dc6b29cfcad2468affb4"


def test_golden_morphisms_digest():
    digest = hashlib.sha256()
    for item in golden_morphism_outcomes():
        digest.update(repr(item).encode() + b"\n")
    assert digest.hexdigest() == MORPHISMS_DIGEST
