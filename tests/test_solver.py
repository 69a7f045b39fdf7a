import hashlib
import itertools
from functools import lru_cache
from math import comb, inf

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from unambig.errors import BudgetError, DomainError
from unambig import explorer, solver
from unambig.checks import pair_theorem_checks, shortest_checks, thue_checks
from unambig.conditions import billaud_instance, image_is_fixed_point
from unambig.explorer import (
    SCAN_TARGETS,
    canonical_colorings,
    conjecture_scan,
    enumerate_canonical_patterns,
    search_1uniform,
    search_sigma_ij,
)
from unambig.generators import shortest_non_fixed_point, splice, squares_pattern, thue_morphism
from unambig.morphisms import Morphism, Substitution, merge_morphism, renaming
from unambig.solver import (
    BudgetExhausted,
    FixedPoint,
    NotFixedPoint,
    NoWitness,
    Witness,
    enumerate_preimages,
    find_alternative,
    fixed_point_verdict,
    is_ambiguous,
    is_fixed_point,
)
from unambig.words import (
    ALPHABET,
    Pattern,
    canonical_form,
    first_occurrence_order,
    fixed_point_by_neighbourhoods,
    parse_pattern,
)

from conftest import (
    naive_canonical_patterns,
    oracle_fixed_point_morphisms,
    oracle_preimages,
    pattern_strategy,
    word_strategy,
)

A0 = parse_pattern("1 2 3 1 3 2")
SIGMA_0 = Morphism.of({1: "a", 2: "a", 3: "b"})
SIGMA_1 = Morphism.of({1: "a", 2: "ab", 3: "b"})


class TestFindAlternative:
    def test_finds_the_small_erasing_witness(self):
        result = find_alternative(A0, "aababa", excluded=SIGMA_0)
        assert isinstance(result, Witness)
        assert result.tau == Morphism.of({1: "", 2: "a", 3: "ab"})
        assert result.tau.apply(A0) == "aababa"
        assert result.tau[result.differing_variable] != SIGMA_0[result.differing_variable]

    def test_nonerasing_search_comes_up_empty(self):
        result = find_alternative(A0, "aababa", excluded=SIGMA_0, allow_erasing=False)
        assert isinstance(result, NoWitness)

    def test_no_alternative_at_all(self):
        assert SIGMA_1.apply(A0) == "aabbabab"
        result = find_alternative(A0, "aabbabab", excluded=SIGMA_1)
        assert isinstance(result, NoWitness)

    def test_without_excluded_any_preimage_counts(self):
        result = find_alternative(A0, "aababa")
        assert isinstance(result, Witness)
        assert result.differing_variable is None

    def test_preconditions(self):
        with pytest.raises(DomainError):
            find_alternative(Pattern(()), "a")
        with pytest.raises(DomainError):
            find_alternative(A0, "aababa", excluded=Morphism.of({1: "a", 2: "a"}))
        with pytest.raises(DomainError):
            find_alternative(A0, "wrong", excluded=SIGMA_0)
        with pytest.raises(DomainError):
            find_alternative(A0, "aababa", budget=0)

    def test_determinism(self):
        first = find_alternative(A0, "aababa", excluded=SIGMA_0)
        second = find_alternative(A0, "aababa", excluded=SIGMA_0)
        assert first == second

    @given(pattern_strategy(max_len=5, max_vars=3), word_strategy(max_len=5))
    def test_witnesses_revalidate(self, pattern, word):
        result = find_alternative(pattern, word)
        if isinstance(result, Witness):
            assert result.tau.apply(pattern) == word
        else:
            assert oracle_preimages(pattern, word) == []

    @given(pattern_strategy(max_len=5, max_vars=3), word_strategy(max_len=5))
    def test_mode_monotonicity(self, pattern, word):
        if isinstance(find_alternative(pattern, word), NoWitness):
            assert isinstance(find_alternative(pattern, word, allow_erasing=False), NoWitness)


class TestIsAmbiguous:
    def test_running_example_is_ambiguous(self):
        result = is_ambiguous(SIGMA_0, A0)
        assert isinstance(result, Witness)

    def test_merged_morphism_on_thirteen_symbol_pattern(self):
        a2 = parse_pattern("1 2 3 3 4 4 1 2 3 3 4 4 2")
        sigma = merge_morphism({1, 2, 3, 4}, 2, 4)
        result = is_ambiguous(sigma, a2)
        assert isinstance(result, Witness)
        tau = Morphism.of({1: "abccb", 2: "b", 3: "", 4: ""})
        assert tau.apply(a2) == sigma.apply(a2)

    def test_renaming_unambiguous_off_fixed_points(self):
        result = is_ambiguous(renaming({1, 2, 3}), A0)
        assert isinstance(result, NoWitness)

    def test_uncovered_variable_rejected(self):
        with pytest.raises(DomainError):
            is_ambiguous(Morphism.of({1: "a"}), A0)

    @given(pattern_strategy(min_len=1, max_len=6, max_vars=3))
    def test_renaming_ambiguity_matches_fixed_point_status(self, pattern):
        ambiguous = isinstance(is_ambiguous(renaming(pattern.variables), pattern), Witness)
        assert ambiguous == isinstance(is_fixed_point(pattern), FixedPoint)


class TestIsFixedPoint:
    def test_square_pattern(self):
        result = is_fixed_point(parse_pattern("1 2 1 2"))
        assert isinstance(result, FixedPoint)
        assert result.phi == Substitution.parse("1=,2=1 2")

    def test_eight_symbol_non_fixed_point(self):
        result = is_fixed_point(parse_pattern("1 2 3 4 1 4 3 2"))
        assert isinstance(result, NotFixedPoint)

    def test_overlapping_square(self):
        result = is_fixed_point(parse_pattern("1 2 1"))
        assert isinstance(result, FixedPoint)
        assert result.phi == Substitution.parse("1=,2=1 2 1")

    def test_witness_invariants(self):
        result = is_fixed_point(parse_pattern("1 2 2 1 2 2"))
        assert isinstance(result, FixedPoint)
        assert result.phi.apply(parse_pattern("1 2 2 1 2 2")) == parse_pattern("1 2 2 1 2 2")
        x = result.differing_variable
        assert result.phi[x] != Pattern((x,))

    def test_empty_pattern_rejected(self):
        with pytest.raises(DomainError):
            is_fixed_point(Pattern(()))

    def test_pattern_far_longer_than_the_recursion_limit(self):
        pattern = Pattern(tuple(1 + i % 7 for i in range(20000)))
        result = is_fixed_point(pattern)
        assert isinstance(result, FixedPoint)
        assert result.nodes_explored == 3016
        assert result.phi.apply(pattern) == pattern
        x = result.differing_variable
        assert result.phi[x] != Pattern((x,))

    @pytest.mark.parametrize("length", range(1, 7))
    def test_matches_oracle_exhaustively(self, length):
        for pattern in naive_canonical_patterns(length):
            verdict = is_fixed_point(pattern)
            nontrivial = oracle_fixed_point_morphisms(pattern)
            if isinstance(verdict, FixedPoint):
                assert result_in(verdict.phi, nontrivial)
            else:
                assert nontrivial == []

    def test_every_fixed_point_defeats_uniform_binary_morphisms(self):
        # Nonerasing morphisms on fixed points are always ambiguous; spot
        # check the 1-uniform binary ones on every fixed point of length 6.
        for pattern in naive_canonical_patterns(6):
            if not isinstance(is_fixed_point(pattern), FixedPoint):
                continue
            variables = sorted(pattern.variables)
            for bits in range(2 ** len(variables)):
                images = {
                    v: "ab"[(bits >> k) & 1] for k, v in enumerate(variables)
                }
                assert isinstance(is_ambiguous(Morphism.of(images), pattern), Witness)


class TestFixedPointVerdict:
    def renamed(self, pattern):
        top = max(pattern.symbols)
        return Pattern(tuple(3 * (top + 1 - s) for s in pattern.symbols))

    def test_matches_is_fixed_point(self):
        # a cold verdict cache, so fixed_point_verdict is checked on a miss
        # and on a hit; is_fixed_point has no cache and always searches
        for length in range(1, 9):
            for pattern in enumerate_canonical_patterns(length):
                verdict = fixed_point_verdict(pattern)
                assert verdict == isinstance(is_fixed_point(pattern), FixedPoint)
        solver._key_verdict.cache_clear()
        for length in range(1, 9):
            for pattern in enumerate_canonical_patterns(length):
                copy = self.renamed(pattern)
                expected = isinstance(is_fixed_point(copy), FixedPoint)
                assert fixed_point_verdict(copy) == expected

    @pytest.mark.parametrize("budget", range(1, 6))
    def test_none_exactly_on_budget_exhaustion(self, budget):
        for length in range(1, 9):
            for pattern in enumerate_canonical_patterns(length):
                for p in (pattern, self.renamed(pattern)):
                    verdict = fixed_point_verdict(p, budget=budget)
                    full = is_fixed_point(p, budget=budget)
                    assert (verdict is None) == isinstance(full, BudgetExhausted)
                    if verdict is not None:
                        assert verdict == isinstance(full, FixedPoint)

    def test_none_exactly_where_the_counted_search_runs_out(self):
        # at the node count of is_fixed_point's own search and one below it,
        # on keys no singleton answers, a budget below the tree bound runs
        # out in both or in neither
        checked = 0
        for pattern, result in decided():
            if len(pattern) > 8 or min(pattern.multiplicities.values()) < 2:
                continue
            n = result.nodes_explored
            for budget in {n - 1, n} - {0}:
                if budget >= solver._SEARCH_TREE_BOUND[len(pattern)]:
                    continue
                full = is_fixed_point(pattern, budget=budget)
                assert (fixed_point_verdict(pattern, budget=budget) is None) == isinstance(
                    full, BudgetExhausted
                ), (pattern, budget)
                assert isinstance(full, BudgetExhausted) == (budget < n)
                checked += 1
        assert checked > 0

    def test_warm_cache_gives_the_cold_verdict_at_every_budget(self):
        # each verdict asked from a cold cache, then again once the cache
        # holds it and its mirror: the same answer, and is_fixed_point's
        asked = []
        for pattern, result in decided():
            if len(pattern) > 8:
                continue
            gate = solver._SEARCH_TREE_BOUND[len(pattern)]
            for budget in {5, 60, gate - 1, result.nodes_explored - 1, solver.DEFAULT_BUDGET} - {0}:
                full = is_fixed_point(pattern, budget=budget)
                expected = None if isinstance(full, BudgetExhausted) else isinstance(full, FixedPoint)
                solver._key_verdict.cache_clear()
                assert fixed_point_verdict(pattern, budget=budget) == expected, (pattern, budget)
                asked.append((pattern, budget, expected))
        solver._key_verdict.cache_clear()
        for pattern, budget, _ in asked:
            fixed_point_verdict(Pattern(pattern.symbols[::-1]), budget=budget)
            fixed_point_verdict(pattern, budget=budget)
        warm = solver._key_verdict.cache_info()
        for pattern, budget, expected in asked:
            assert fixed_point_verdict(pattern, budget=budget) == expected, (pattern, budget)
        assert solver._key_verdict.cache_info().misses == warm.misses
        assert {expected for _, _, expected in asked} == {None, False, True}

    def test_canonical_entry_matches_both_public_forms(self):
        # every canonical key from a cold cache, just below, at and far above
        # the tree bound: the scans' entry, fixed_point_verdict and
        # is_fixed_point agree, and None is exactly BudgetExhausted
        outcomes = set()
        for length in range(1, 9):
            gate = solver._SEARCH_TREE_BOUND[length]
            for budget in (gate - 1, gate, solver.DEFAULT_BUDGET):
                solver._key_verdict.cache_clear()
                for pattern in enumerate_canonical_patterns(length):
                    full = is_fixed_point(pattern, budget=budget)
                    expected = None if isinstance(full, BudgetExhausted) else isinstance(full, FixedPoint)
                    verdicts = (
                        solver._canonical_verdict(pattern.symbols, budget),
                        fixed_point_verdict(pattern, budget=budget),
                    )
                    assert verdicts == (expected, expected), (pattern, budget)
                    outcomes.add(expected)
        # the key 1 walks its whole tree, so one node below the bound runs out
        assert outcomes == {None, False, True}

    def test_spelling_stops_at_the_last_code_point(self):
        assert solver._spelt((1, 2, 1)) == ("\x01\x02\x01", {1: "\x01", 2: "\x02"})
        assert solver._spelt((1, 0x10FFFF))[0][-1] == chr(0x10FFFF)
        with pytest.raises(DomainError):
            solver._spelt((1, 0x110000))

    def test_bool_callers_build_no_witness(self, monkeypatch):
        def no_witness(*args, **kwargs):
            raise AssertionError("a bool-only caller built a witness or a morphism")

        monkeypatch.setattr(solver, "_fp_result", no_witness)
        a0 = parse_pattern("1 2 3 1 3 2")
        a1 = parse_pattern("1 2 3 4 1 4 3 2")
        assert billaud_instance(a0).conjecture_instance_ok
        assert image_is_fixed_point(a1, 2, 4)
        assert search_sigma_ij(a1) is not None
        assert search_sigma_ij(parse_pattern("1 2 3 4 1 2 3 4")) is None
        assert search_1uniform(a0, 2) is None
        assert search_1uniform(parse_pattern("1 2 1 2"), 2) is None
        beta = parse_pattern("5 6 7 8 5 8 7 6")
        assert splice(a1, Pattern(()), beta) == a1 + beta
        # the scans need a pair or an alphabet size, never the morphism or an
        # ambiguity witness
        monkeypatch.setattr(solver, "Witness", no_witness)
        monkeypatch.setattr(Morphism, "of", no_witness)
        for target in SCAN_TARGETS:
            for record in conjecture_scan(8, target):
                assert not record.finding

    def test_verify_bundles_build_no_result_objects(self, monkeypatch):
        def no_result(*args, **kwargs):
            raise AssertionError("a verify bundle built an ambiguity result")

        monkeypatch.setattr(solver, "Witness", no_result)
        monkeypatch.setattr(solver, "NoWitness", no_result)
        checks = [*thue_checks(range(4, 6)), *shortest_checks(range(2, 6)), *pair_theorem_checks(6)]
        assert checks and all(ok for ok, _ in checks)


# is_ambiguous's result type as the verdict-only consumer gives it
VERDICT_OF = {Witness: True, NoWitness: False, BudgetExhausted: None}


def one_uniform_morphisms(pattern):
    """Every pair-merging morphism of the pattern, then the morphism of every
    canonical coloring of its variables with at most 3 letters."""
    variables = sorted(pattern.variables)
    for i, j in itertools.permutations(variables, 2):
        yield merge_morphism(variables, i, j)
    ordered = first_occurrence_order(pattern)
    for coloring in canonical_colorings(len(ordered), 3):
        yield Morphism.of({var: ALPHABET[c] for var, c in zip(ordered, coloring)})


@pytest.mark.parametrize("length", range(1, 8))
def test_ambiguity_verdict_matches_is_ambiguous(length):
    # at the default budget, and at every budget up to the node total when
    # that total is at most 200
    for pattern in enumerate_canonical_patterns(length):
        for sigma in one_uniform_morphisms(pattern):
            images = dict(sigma.images)
            word = sigma.apply(pattern)
            total = is_ambiguous(sigma, pattern).nodes_explored
            budgets = [solver.DEFAULT_BUDGET, *range(1, total + 1)] if total <= 200 else [solver.DEFAULT_BUDGET]
            for budget in budgets:
                expected = VERDICT_OF[type(is_ambiguous(sigma, pattern, budget=budget))]
                assert solver._ambiguity_verdict(pattern.symbols, word, images, budget) is expected, (
                    pattern,
                    sigma,
                    budget,
                )


def search_tree_size(pattern):
    """Tuples of image lengths for the first k of v variables (1 <= k <= v)
    summing to at most len(pattern): the fixed-point search counts at most
    this many nodes."""
    n, v = len(pattern), len(pattern.variables)
    return comb(n + v + 1, v) - 1


def certified(pattern):
    """Whether the pattern is a fixed point by a sound shortcut, with no
    search: a variable occurring once, or the neighbourhood shape."""
    singleton = len(pattern) >= 2 and 1 in pattern.multiplicities.values()
    return singleton or fixed_point_by_neighbourhoods(pattern) is not None


@lru_cache(maxsize=None)
def decided():
    """Every canonical pattern of length <= 9 with its is_fixed_point result."""
    return [
        (pattern, is_fixed_point(pattern))
        for length in range(1, 10)
        for pattern in enumerate_canonical_patterns(length)
    ]


class TestFixedPointShortcuts:
    def test_search_stays_within_the_tree_bound(self):
        tight = []
        for pattern, result in decided():
            bound = search_tree_size(pattern)
            assert result.nodes_explored <= bound <= solver._SEARCH_TREE_BOUND[len(pattern)], pattern
            if result.nodes_explored == bound:
                tight.append(pattern)
        assert tight == [parse_pattern("1")]

    def test_certificates_imply_fixed_points(self):
        singletons = neighbourhoods = 0
        for pattern, result in decided():
            if len(pattern) >= 2 and 1 in pattern.multiplicities.values():
                singletons += 1
                assert isinstance(result, FixedPoint), pattern
            if fixed_point_by_neighbourhoods(pattern) is not None:
                neighbourhoods += 1
                assert isinstance(result, FixedPoint), pattern
        assert singletons > 0 and neighbourhoods > 0

    def test_reversal_answers_from_the_mirrored_entry(self):
        # under the default budget, which covers every search tree here, the
        # pattern asked after its reversal is one cache hit, taken through
        # the lesser of the two keys, and a singleton answer never reaches
        # the cache
        expected = {p: isinstance(r, FixedPoint) for p, r in decided() if len(p) <= 8}
        mirrored = 0
        for pattern, fixed in expected.items():
            solver._key_verdict.cache_clear()
            reverse = Pattern(pattern.symbols[::-1])
            assert fixed_point_verdict(reverse) == fixed
            before = solver._key_verdict.cache_info()
            assert fixed_point_verdict(pattern) == fixed
            after = solver._key_verdict.cache_info()
            if len(pattern) >= 2 and 1 in pattern.multiplicities.values():
                assert before.currsize == 0 and after == before, pattern
                continue
            assert after.hits == before.hits + 1, pattern
            if canonical_form(reverse) != pattern:
                mirrored += 1
                # a miss on the greater key, whose entry points to the lesser
                greater = pattern.symbols > canonical_form(reverse).symbols
                assert after.misses == before.misses + greater, pattern
                assert after.currsize == before.currsize + greater, pattern
            else:
                assert after.misses == before.misses, pattern
        assert mirrored > 0

    def test_a_key_and_its_mirror_run_one_search(self, monkeypatch):
        # whichever of the two is asked first, the other is answered from
        # the cache: one search, on the lesser key
        searches = []
        search = solver._ambiguity_verdict

        def counted_search(*args):
            searches.append(args[0])
            return search(*args)

        monkeypatch.setattr(solver, "_ambiguity_verdict", counted_search)
        asked = 0
        for pattern, result in decided():
            if len(pattern) > 8 or 1 in pattern.multiplicities.values():
                continue
            solver._key_verdict.cache_clear()
            searches.clear()
            mirror = canonical_form(Pattern(pattern.symbols[::-1]))
            fixed = isinstance(result, FixedPoint)
            assert fixed_point_verdict(pattern) == fixed_point_verdict(mirror) == fixed
            assert searches == [min(pattern.symbols, mirror.symbols)], pattern
            asked += 1
        assert asked > 0

    def test_the_search_finds_every_neighbourhood_certified_key(self):
        # the verdict cache is filled by the verdict walk alone, so it
        # must answer True wherever the neighbourhood shape certifies a
        # fixed point; no variable occurs once, so the walk decides each
        certified_keys = {}
        for length in (9, 10):
            certified_keys[length] = 0
            for pattern in enumerate_canonical_patterns(length, min_multiplicity=2):
                if fixed_point_by_neighbourhoods(pattern) is None:
                    continue
                solver._key_verdict.cache_clear()
                assert fixed_point_verdict(pattern) is True, pattern
                certified_keys[length] += 1
        assert certified_keys == {9: 240, 10: 1295}

    def test_warm_verdict_memo_leaves_witnesses_and_node_counts(self):
        patterns = [p for p, _ in decided() if len(p) <= 8]
        asked = patterns + [Pattern(p.symbols[::-1]) for p in patterns]
        cold = []
        for pattern in asked:
            solver._key_verdict.cache_clear()
            cold.append(is_fixed_point(pattern))
        solver._key_verdict.cache_clear()
        for pattern in asked:
            fixed_point_verdict(pattern)
        warm = solver._key_verdict.cache_info()
        assert warm.currsize > 0
        # a cache entry carries no witness, so is_fixed_point searches, and
        # it neither reads nor fills the cache
        assert [is_fixed_point(pattern) for pattern in asked] == cold
        assert solver._key_verdict.cache_info() == warm

    @pytest.mark.parametrize("budget", [solver.DEFAULT_BUDGET, 3])
    def test_is_fixed_point_never_touches_the_memo(self, monkeypatch, budget):
        def untouchable(*args):
            raise AssertionError("is_fixed_point asked the verdict cache")

        cache = solver._key_verdict
        monkeypatch.setattr(solver, "_key_verdict", untouchable)
        for length in range(1, 9):
            for pattern in enumerate_canonical_patterns(length):
                is_fixed_point(pattern, budget=budget)
        assert cache.cache_info().misses == cache.cache_info().currsize == 0

    @pytest.mark.parametrize("budget", [5, 60, solver.DEFAULT_BUDGET])
    def test_scans_keep_verdicts_under_every_budget(self, budget):
        # an entry answers only for its own budget, so outcomes under a
        # budget that covers few search trees are kept too, and a second
        # pass asks nothing the first did not leave in the cache
        def run():
            records = [
                record.to_json() for target in SCAN_TARGETS for record in conjecture_scan(8, target, budget=budget)
            ]
            for pattern in ("1 2 3 1 3 2", "1 2 3 4 1 4 3 2", "1 2 1 3 2 3", "1 2 3 2 1 3 1 2 3"):
                for sample in (billaud_instance, search_sigma_ij):
                    try:
                        records.append(repr(sample(parse_pattern(pattern), budget=budget)))
                    except BudgetError as error:
                        records.append(str(error))
            return records

        first = run()
        warm = solver._key_verdict.cache_info()
        assert warm.currsize > 0
        assert run() == first
        again = solver._key_verdict.cache_info()
        assert (again.misses, again.currsize) == (warm.misses, warm.currsize)
        assert again.hits > warm.hits

    def test_cache_holds_one_entry_per_key_and_budget(self):
        # the bound of the cache replaces a count of stored verdicts; entries
        # under different budgets do not answer for each other
        assert solver._key_verdict.cache_info().maxsize == 1 << 20
        pattern = parse_pattern("1 2 2 1")
        gate = solver._SEARCH_TREE_BOUND[len(pattern)]
        outcomes = []
        for budget in (gate, gate - 1, 1, gate, gate - 1, 1):
            full = is_fixed_point(pattern, budget=budget)
            outcomes.append(None if isinstance(full, BudgetExhausted) else isinstance(full, FixedPoint))
            assert solver._key_verdict(pattern.symbols, budget) == outcomes[-1]
        assert outcomes == [False, False, None] * 2
        assert solver._key_verdict.cache_info()[:2] == (3, 3)

    @pytest.mark.parametrize("maxsize", [0, 1, 16])
    def test_verdicts_stay_exact_under_any_cache_bound(self, monkeypatch, maxsize):
        # with room for few entries or none, every verdict is still exact,
        # the mirror's included, and the cache never holds more than its bound
        bounded = lru_cache(maxsize=maxsize)(solver._key_verdict.__wrapped__)
        monkeypatch.setattr(solver, "_key_verdict", bounded)
        for pattern, result in decided():
            if len(pattern) <= 8:
                fixed = isinstance(result, FixedPoint)
                assert fixed_point_verdict(pattern) == fixed
                assert fixed_point_verdict(Pattern(pattern.symbols[::-1])) == fixed
                assert bounded.cache_info().currsize <= maxsize
        assert bounded.cache_info().misses > 0

    def test_verdict_entries_answer_only_under_a_covering_budget(self):
        decisions = [(p, r) for p, r in decided() if len(p) <= 8]
        for pattern, _ in decisions:
            fixed_point_verdict(pattern)
            fixed_point_verdict(Pattern(pattern.symbols[::-1]))
        ran_out = 0
        for pattern, result in decisions:
            gate = solver._SEARCH_TREE_BOUND[len(pattern)]
            held = 1 not in pattern.multiplicities.values()
            for budget in {gate - 1, result.nodes_explored - 1} - {0}:
                verdict = fixed_point_verdict(pattern, budget=budget)
                full = is_fixed_point(pattern, budget=budget)
                assert (verdict is None) == isinstance(full, BudgetExhausted), (pattern, budget)
                if verdict is None:
                    ran_out += held
                else:
                    assert verdict == isinstance(full, FixedPoint)
        # the default budget's entries were held for keys whose search runs out
        assert ran_out > 0

    def test_singleton_is_decided_before_canonicalising(self, monkeypatch):
        def no_canonical(symbols):
            raise AssertionError("a pattern with a variable occurring once was canonicalised")

        singles = [
            pattern
            for pattern, _ in decided()
            if len(pattern) >= 2 and 1 in pattern.multiplicities.values()
        ]
        monkeypatch.setattr(solver, "canonical_symbols", no_canonical)
        for pattern in singles:
            renamed = Pattern(tuple(7 * (5 * s % 11) for s in pattern.symbols))
            assert fixed_point_verdict(pattern) is True
            assert fixed_point_verdict(renamed) is True

    def test_budgets_below_the_tree_bound_get_the_search_verdict(self):
        # each key is asked once per budget, none of which covers its tree,
        # so every verdict comes from a search, none from the cache
        certified_none = 0
        for pattern, result in decided():
            if len(pattern) > 8:
                continue
            gate = solver._SEARCH_TREE_BOUND[len(pattern)]
            for budget in {gate - 1, search_tree_size(pattern) - 1, result.nodes_explored - 1} - {0}:
                verdict = fixed_point_verdict(pattern, budget=budget)
                full = is_fixed_point(pattern, budget=budget)
                assert (verdict is None) == isinstance(full, BudgetExhausted), (pattern, budget)
                if verdict is None:
                    certified_none += certified(pattern)
                else:
                    assert verdict == isinstance(full, FixedPoint)
        assert certified_none > 0
        assert solver._key_verdict.cache_info().hits == 0


def test_bool_budget_is_rejected():
    # True would otherwise count as a budget of one node
    budget = True
    message = "budget must be a positive node count, got True"
    single = parse_pattern("1 2 1")
    calls = [
        lambda: is_fixed_point(single, budget=budget),
        lambda: fixed_point_verdict(single, budget=budget),
        lambda: is_ambiguous(Morphism.parse("1=a,2=b"), parse_pattern("1 2 1 2"), budget=budget),
        lambda: search_sigma_ij(parse_pattern("1 2 1 3 2 3"), budget=budget),
        lambda: conjecture_scan(6, "conjecture3", budget=budget),
    ]
    for call in calls:
        with pytest.raises(DomainError) as raised:
            call()
        assert str(raised.value) == message


def result_in(phi: Substitution, candidates: list[Substitution]) -> bool:
    return any(phi == c for c in candidates)


class TestEnumeratePreimages:
    def test_square_word_forces_the_half(self):
        assert enumerate_preimages(parse_pattern("1 1"), "abab") == [Morphism.of({1: "ab"})]

    def test_three_splits_of_a_two_letter_word(self):
        assert enumerate_preimages(parse_pattern("1 2"), "ab") == [
            Morphism.of({1: "", 2: "ab"}),
            Morphism.of({1: "a", 2: "b"}),
            Morphism.of({1: "ab", 2: ""}),
        ]

    def test_unsplittable(self):
        assert enumerate_preimages(parse_pattern("1 1"), "ab") == []

    def test_limit_truncates_in_order(self):
        full = enumerate_preimages(parse_pattern("1 2"), "ab")
        assert enumerate_preimages(parse_pattern("1 2"), "ab", limit=2) == full[:2]
        with pytest.raises(DomainError):
            enumerate_preimages(parse_pattern("1 2"), "ab", limit=0)

    @given(
        pattern_strategy(max_len=5, max_vars=3),
        word_strategy(max_len=5),
        st.booleans(),
    )
    def test_agrees_with_naive_oracle(self, pattern, word, allow_erasing):
        got = enumerate_preimages(pattern, word, allow_erasing=allow_erasing)
        expected = oracle_preimages(pattern, word, allow_erasing=allow_erasing)
        assert sorted(got, key=str) == sorted(expected, key=str)
        assert len(set(map(str, got))) == len(got)

    def test_pattern_longer_than_the_recursion_limit(self):
        pattern = Pattern(tuple(1 + i % 7 for i in range(1200)))
        found = enumerate_preimages(pattern, "a" * 1200, limit=1)
        assert len(found) == 1
        assert found[0].apply(pattern) == "a" * 1200


class TestBudget:
    def test_exhaustion_is_a_distinct_outcome(self):
        result = find_alternative(A0, "aababa", excluded=SIGMA_0, budget=1)
        assert isinstance(result, BudgetExhausted)
        assert result.nodes_explored <= 1

    def test_node_count_is_honoured(self):
        full = find_alternative(A0, "aababa", excluded=SIGMA_0)
        assert isinstance(full, Witness)
        again = find_alternative(A0, "aababa", excluded=SIGMA_0, budget=full.nodes_explored)
        assert again == full

    def test_fixed_point_budget(self):
        result = is_fixed_point(parse_pattern("1 2 3 4 5 1 2 3 4 5"), budget=2)
        assert isinstance(result, (BudgetExhausted, FixedPoint))
        if isinstance(result, BudgetExhausted):
            assert result.nodes_explored <= 2

    @given(pattern_strategy(max_len=5, max_vars=3), word_strategy(max_len=4))
    @settings(max_examples=25)
    def test_verdicts_never_depend_on_slack(self, pattern, word):
        tight = find_alternative(pattern, word, budget=10**6)
        loose = find_alternative(pattern, word, budget=10**8)
        assert tight == loose


def reference_assignments(symbols, word, min_len, counter, budget):
    """The preimage search trying one candidate image per node, kept as the
    oracle for solver._iter_assignments: same order, yields and counts."""
    n = len(symbols)
    total = len(word)
    order = []
    index = {}
    for s in symbols:
        if s not in index:
            index[s] = len(order)
            order.append(s)
    idx = [index[s] for s in symbols]
    suffix = [[0] * len(order) for _ in range(n + 1)]
    for p in range(n - 1, -1, -1):
        row = suffix[p + 1][:]
        row[idx[p]] += 1
        suffix[p] = row
    images = [None] * len(order)
    stack = []
    nodes = 0
    p, q, pending, free = 0, 0, min_len * n, n
    while True:
        while q + pending <= total:
            if p == n:
                if q == total:
                    counter[0] = nodes
                    yield {order[x]: images[x] for x in range(len(order))}
                break
            if free == 0 and q + pending != total:
                break
            x = idx[p]
            img = images[x]
            if img is None:
                occ = suffix[p][x]
                rest_min = pending - occ * min_len
                hi = (total - q - rest_min) // occ
                stack.append([p, q, rest_min, free, x, min_len - 1, hi, occ])
                break
            ln = len(img)
            if word[q : q + ln] != img:
                break
            p += 1
            q += ln
            pending -= ln
        while stack:
            top = stack[-1]
            ln = top[5] + 1
            if ln <= top[6]:
                break
            images[top[4]] = None
            stack.pop()
        else:
            counter[0] = nodes
            return
        if nodes >= budget:
            counter[0] = nodes
            raise solver._BudgetHit
        nodes += 1
        top[5] = ln
        p, q, rest_min, free, x, _, _, occ = top
        images[x] = word[q : q + ln]
        p += 1
        q += ln
        pending = rest_min + (occ - 1) * ln
        free -= occ


def run_search(search, symbols, word, min_len, budget):
    """Every yield with the node count at it, then how the search ended and
    its final node count."""
    counter = [0]
    trace = []
    try:
        for assignment in search(symbols, word, min_len, counter, budget):
            trace.append((assignment, counter[0]))
    except solver._BudgetHit:
        return trace, "budget", counter[0]
    return trace, "done", counter[0]


def solver_core_inputs():
    """Each canonical pattern of length <= 7 as its own word, tuple and
    spelt, and each one of length <= 6 under its binary and ternary
    first-occurrence 1-uniform images, with the pattern's length."""
    for length in range(1, 8):
        for pattern in enumerate_canonical_patterns(length):
            yield length, pattern.symbols, pattern.symbols
            yield length, pattern.symbols, solver._spelt(pattern.symbols)[0]
            if length <= 6:
                for letters in ("ab", "abc"):
                    image = "".join(letters[(v - 1) % len(letters)] for v in pattern.symbols)
                    yield length, pattern.symbols, image


def decomposable_inputs():
    """Patterns that split into blocks with no variable in common: each
    squares pattern 1 1 ... m m for m <= 6 under the square-free morphism,
    its binary first-occurrence image and its own symbols, concatenations of
    small blocks under their own symbols and their binary and ternary
    first-occurrence images, and two whose last block is the last slot."""
    for m in range(1, 7):
        pattern = squares_pattern(m)
        yield pattern.symbols, thue_morphism(m).apply(pattern)
        yield pattern.symbols, "".join("ab"[(v - 1) % 2] for v in pattern.symbols)
        yield pattern.symbols, pattern.symbols
    for text in ("1 2 1 2 3 3 4 5 4 5", "1 2 2 1 3 4 3 4 5 5", "1 1 2 3 2 3 4 4", "1 2 1 3 3 2 4 5 5 4"):
        symbols = parse_pattern(text).symbols
        yield symbols, symbols
        for letters in ("ab", "abc"):
            yield symbols, "".join(letters[(v - 1) % len(letters)] for v in symbols)
    # the last slot, 3, is a cut slot opened again at the same word position
    # for other images of 1 and 2; with min_len = 1 the one length of it that
    # could end on the word's end is never whole, so it is never tried
    for text, word in (("1 2 1 2 3 3", "ababababa"), ("1 2 1 2 3 3 3", "abababab")):
        yield parse_pattern(text).symbols, word


def assert_matches_reference(symbols, word, every_budget_up_to):
    """Both searches give the same trace with either min_len, unbounded and at
    each budget from 1 to the total when the total is at most
    every_budget_up_to, else at the total and one below it."""
    for min_len in (0, 1):
        full = run_search(reference_assignments, symbols, word, min_len, inf)
        assert run_search(solver._iter_assignments, symbols, word, min_len, inf) == full
        total = full[2]
        low = 1 if total <= every_budget_up_to else max(total - 1, 1)
        for budget in range(low, total + 1):
            expected = run_search(reference_assignments, symbols, word, min_len, budget)
            got = run_search(solver._iter_assignments, symbols, word, min_len, budget)
            assert got == expected, (symbols, word, min_len, budget)


class TestSolverCore:
    def test_matches_the_one_candidate_at_a_time_search(self):
        for length, symbols, word in solver_core_inputs():
            assert_matches_reference(symbols, word, inf if length <= 5 else 0)

    def test_remembered_subtrees_match_the_reference(self):
        for symbols, word in decomposable_inputs():
            assert_matches_reference(symbols, word, 2000)

    def test_long_fresh_prefixes_match_the_reference(self):
        # the shortest non-fixed points open most slots on a fresh stretch of
        # the word, so the last slot counts many candidates in one step;
        # every budget crosses that step's boundary somewhere
        for n in range(2, 7):
            pattern, sigma = shortest_non_fixed_point(n)
            key = canonical_form(pattern).symbols
            assert_matches_reference(key, key, inf)
            assert_matches_reference(key, solver._spelt(key)[0], inf)
            assert_matches_reference(pattern.symbols, sigma.apply(pattern), inf)

    def test_longer_fresh_prefixes_match_the_reference(self):
        # the same inputs one and two sizes up, where a walk counts up to
        # 24,309 nodes: unbounded and at the total and one below it
        for n in (7, 8):
            pattern, sigma = shortest_non_fixed_point(n)
            key = canonical_form(pattern).symbols
            assert_matches_reference(key, key, 0)
            assert_matches_reference(key, solver._spelt(key)[0], 0)
            assert_matches_reference(pattern.symbols, sigma.apply(pattern), 0)

    @pytest.mark.parametrize("text", ["1 2 2 3 2 3", "1 2 3 2 4 3 4"])
    def test_stretches_that_read_assigned_images_match_the_reference(self, text):
        # between the penultimate slot's first occurrence and the last
        # slot's, the walk reads the penultimate slot's own image (2 in
        # 1 2 2 3 2 3) or an earlier slot's (2 in 1 2 3 2 4 3 4)
        symbols = parse_pattern(text).symbols
        words = [symbols, solver._spelt(symbols)[0]]
        for letters in ("ab", "abc"):
            words.append("".join(letters[(v - 1) % len(letters)] for v in symbols))
            words.append(letters * 3)
        for word in words:
            assert_matches_reference(symbols, word, inf)

    @given(
        pattern_strategy(max_len=10, max_vars=5),
        st.sampled_from(("ab", "abc")),
        st.data(),
    )
    @settings(max_examples=100)
    def test_drawn_walks_match_the_reference(self, pattern, letters, data):
        # a free word, or the pattern's image under drawn images so that
        # the walk has something to yield; unbounded and at three budgets
        symbols = pattern.symbols
        free = word_strategy(max_len=12, letters=letters)
        image = st.fixed_dictionaries(
            {v: word_strategy(max_len=2, letters=letters) for v in pattern.variables}
        ).map(lambda images: "".join(images[s] for s in symbols))
        word = data.draw(st.one_of(free, image))
        for min_len in (0, 1):
            full = run_search(reference_assignments, symbols, word, min_len, inf)
            assert run_search(solver._iter_assignments, symbols, word, min_len, inf) == full
            budgets = st.lists(st.integers(1, full[2] + 1), min_size=3, max_size=3)
            for budget in data.draw(budgets):
                expected = run_search(reference_assignments, symbols, word, min_len, budget)
                got = run_search(solver._iter_assignments, symbols, word, min_len, budget)
                assert got == expected, (symbols, word, min_len, budget)

    def test_empty_pattern_matches_the_reference(self):
        # no slot at all, so no last slot: {} is the one preimage of ""
        for word in ("", "a"):
            assert_matches_reference((), word, inf)
        assert run_search(solver._iter_assignments, (), "", 0, inf) == ([({}, 0)], "done", 0)
        # one slot, so no penultimate slot's loop: the walk's set-up counts
        # the slot's candidates and tries its one whole length, if any, on
        # the empty word, on powers and near-powers, and on the pattern itself
        for n in range(1, 7):
            symbols = (1,) * n
            words = ["", "aab", "ababa", symbols]
            for k in range(1, 5):
                words += ["a" * k, "ab" * k]
            for word in words:
                assert_matches_reference(symbols, word, inf)

    def test_excluded_assignment_inside_a_remembered_block(self, monkeypatch):
        # sigma's own assignment is the one solution of the block 3 3 4 4
        # opened at word position 2; the witness opens that block at the same
        # position again with other images for 1 and 2, so a memo entry for a
        # subtree that yielded sigma would hide it
        pattern = parse_pattern("1 2 1 2 3 3 4 4")
        sigma = Morphism.of({1: "", 2: "a", 3: "b", 4: "c"})
        got = is_ambiguous(sigma, pattern)
        monkeypatch.setattr(solver, "_iter_assignments", reference_assignments)
        assert got == is_ambiguous(sigma, pattern)
        assert got.tau == Morphism.of({1: "a", 2: "", 3: "b", 4: "c"})
        assert got.differing_variable == 1

    def test_every_search_takes_its_alternative_from_one_loop(self, monkeypatch):
        # each search, ambiguity or fixed point, counted or verdict-only,
        # hands its walk to solver._first_alternative exactly once
        calls = []
        core = solver._first_alternative

        def counted(assignments, images):
            calls.append(images)
            return core(assignments, images)

        def calls_of(run):
            calls.clear()
            run()
            return len(calls)

        monkeypatch.setattr(solver, "_first_alternative", counted)
        pattern, sigma = shortest_non_fixed_point(4)
        word = sigma.apply(pattern)
        gate = solver._SEARCH_TREE_BOUND[len(pattern)]
        assert calls_of(lambda: find_alternative(pattern, word)) == 1
        assert calls_of(lambda: find_alternative(pattern, word, sigma)) == 1
        assert calls_of(lambda: is_ambiguous(sigma, pattern)) == 1
        assert calls_of(lambda: is_fixed_point(pattern)) == 1
        # no shortcut answers this key, and the cache starts empty
        assert calls_of(lambda: fixed_point_verdict(pattern)) == 1
        assert calls_of(lambda: fixed_point_verdict(pattern, budget=gate - 1)) == 1
        # the scans' solver runs, with their own fixed-point checks answered
        # from the cache
        runs = []
        verdict = explorer._ambiguity_verdict

        def run(*args):
            runs.append(args)
            return verdict(*args)

        monkeypatch.setattr(explorer, "_ambiguity_verdict", run)
        assert fixed_point_verdict(A0) is False
        assert calls_of(lambda: search_sigma_ij(A0)) == len(runs) == 3
        runs.clear()
        assert calls_of(lambda: search_1uniform(pattern, 2)) == len(runs) == 4


PLAIN_WALK = solver._iter_assignments


def plain_walk(symbols, word, min_len, counter, budget, lookahead=False):
    """solver._iter_assignments with the lookahead refused."""
    return PLAIN_WALK(symbols, word, min_len, counter, budget)


def lookahead_words(pattern):
    """Words to walk the pattern on with and without lookahead: the pattern
    spelt as a str, its binary and ternary first-occurrence colorings and,
    up to length 7 or when no variable occurs once, its image under every
    pair-merging morphism.  The pair search walks only patterns with no
    variable occurring once, since any other is a fixed point; at length 8
    the others' merged images would take most of a minute."""
    symbols = pattern.symbols
    yield "".join(map(chr, symbols))
    for letters in ("ab", "abc"):
        yield "".join(letters[(v - 1) % len(letters)] for v in symbols)
    if len(symbols) <= 7 or 1 not in pattern.multiplicities.values():
        variables = sorted(pattern.variables)
        for i, j in itertools.combinations(variables, 2):
            yield merge_morphism(variables, i, j).apply(pattern)


def sigma_ij_outcome(pattern, budget):
    try:
        return search_sigma_ij(pattern, budget=budget)
    except BudgetError as error:
        return str(error)


class TestLookahead:
    def test_lookahead_walk_yields_what_the_plain_walk_yields(self):
        plain_nodes = lookahead_nodes = 0
        for length in range(1, 9):
            for pattern in enumerate_canonical_patterns(length):
                for word in lookahead_words(pattern):
                    plain, ahead = [0], [0]
                    expected = list(PLAIN_WALK(pattern.symbols, word, 0, plain, inf))
                    got = list(PLAIN_WALK(pattern.symbols, word, 0, ahead, inf, True))
                    assert got == expected, (pattern, word)
                    assert ahead[0] <= plain[0], (pattern, word)
                    plain_nodes += plain[0]
                    lookahead_nodes += ahead[0]
        assert lookahead_nodes < plain_nodes

    def test_lookahead_probes_each_position_once_per_walk(self):
        # whether an image occurs again depends on its position and length
        # alone, so no walk asks the same (position, length) twice
        probes = []

        class RecordingWord(str):
            def find(self, needle, start):
                probes.append((start - len(needle), len(needle)))
                return super().find(needle, start)

        walks = probed = 0
        for pattern in enumerate_canonical_patterns(10, min_vars=4, uniform_multiplicity=2):
            symbols = pattern.symbols
            merged = merge_morphism(sorted(pattern.variables), 1, 2).apply(pattern)
            for word in (solver._spelt(symbols)[0], merged):
                probes.clear()
                expected = list(PLAIN_WALK(symbols, word, 0, [0], inf))
                got = list(PLAIN_WALK(symbols, RecordingWord(word), 0, [0], inf, True))
                assert got == expected, (pattern, word)
                assert len(set(probes)) == len(probes), (pattern, word)
                walks += 1
                probed += len(probes)
        assert walks == 1890 and probed > 0

    def test_the_verdict_search_takes_lookahead_on_three_letters_under_a_covering_budget(self, monkeypatch):
        # the verdict search alone decides: the lookahead walk exactly when
        # the budget covers the search tree and the word has three or more
        # letters, whatever the number of variables
        flags = []

        def recording(symbols, word, min_len, counter, budget, lookahead=False):
            flags.append(lookahead)
            return PLAIN_WALK(symbols, word, min_len, counter, budget, lookahead)

        monkeypatch.setattr(solver, "_iter_assignments", recording)
        taken = 0
        for text in ("1 2 1 2", "1 2 3 1 3 2", "1 2 1 3 1 2 3 3 2", "1 2 3 4 2 1 4 3", "1 2 " * 16, "1 2 3 " * 11):
            symbols = parse_pattern(text).symbols
            n = len(symbols)
            ordered = list(dict.fromkeys(symbols))
            for letters in ("a", "ab", ALPHABET):
                # the variables colored in first-occurrence order
                images = {v: letters[rank % len(letters)] for rank, v in enumerate(ordered)}
                word = "".join(images[s] for s in symbols)
                many = len(set(word)) > 2
                if n < len(solver._SEARCH_TREE_BOUND):
                    gate = solver._SEARCH_TREE_BOUND[n]
                    cases = [(gate - 1, False), (gate, many), (solver.DEFAULT_BUDGET, many)]
                else:
                    # beyond the table no budget covers the tree
                    cases = [(solver.DEFAULT_BUDGET, False)]
                for budget, expected in cases:
                    flags.clear()
                    solver._ambiguity_verdict(symbols, word, images, budget)
                    assert flags == [expected], (text, word, budget)
                    taken += expected
        assert taken == 6

    def test_lookahead_walk_matches_the_plain_walk_on_three_letter_colorings(self):
        # the colorings that the verdict search walks with the lookahead:
        # those with three or more letters of the non-fixed-point patterns
        # of length 9 with at least 4 variables
        plain_nodes = lookahead_nodes = walks = 0
        for pattern in enumerate_canonical_patterns(9, min_vars=4):
            if fixed_point_verdict(pattern):
                continue
            symbols = pattern.symbols
            for coloring in canonical_colorings(len(pattern.variables), len(pattern.variables)):
                if len(set(coloring)) < 3:
                    continue
                word = "".join(ALPHABET[coloring[s - 1]] for s in symbols)
                plain, ahead = [0], [0]
                expected = list(PLAIN_WALK(symbols, word, 0, plain, inf))
                assert list(PLAIN_WALK(symbols, word, 0, ahead, inf, True)) == expected, (pattern, word)
                plain_nodes += plain[0]
                lookahead_nodes += ahead[0]
                walks += 1
        assert walks == 7420
        assert lookahead_nodes < plain_nodes

    def test_budgets_that_do_not_cover_the_tree_get_the_plain_answer(self, monkeypatch):
        # below the tree bound the verdict-only searches walk as the counted
        # ones do, so they run out exactly where the plain walk runs out; at
        # the bound they give the plain walk's answer
        ran_out = 0
        for length in range(4, 9):
            for pattern in enumerate_canonical_patterns(length, min_vars=2, min_multiplicity=2):
                totals = []

                def counted(symbols, word, min_len, counter, budget, lookahead=False):
                    try:
                        yield from PLAIN_WALK(symbols, word, min_len, counter, budget)
                    finally:
                        totals.append(counter[0])

                monkeypatch.setattr(solver, "_iter_assignments", counted)
                search_sigma_ij(pattern)
                gate = solver._SEARCH_TREE_BOUND[length]
                budgets = {gate - 1, gate, *(nodes - 1 for nodes in totals)} - {0}
                expected = {}
                # each phase decides every key afresh, not from the cache
                solver._key_verdict.cache_clear()
                monkeypatch.setattr(solver, "_iter_assignments", plain_walk)
                for budget in budgets:
                    expected[budget] = (
                        fixed_point_verdict(pattern, budget=budget),
                        sigma_ij_outcome(pattern, budget),
                    )
                solver._key_verdict.cache_clear()
                monkeypatch.setattr(solver, "_iter_assignments", PLAIN_WALK)
                for budget in budgets:
                    got = (fixed_point_verdict(pattern, budget=budget), sigma_ij_outcome(pattern, budget))
                    assert got == expected[budget], (pattern, budget)
                    ran_out += type(got[1]) is str
        assert ran_out > 0


# Images for the golden morphisms: variable v maps to images[(v - 1) % len].
GOLDEN_IMAGES = ("ab", "abc", ("a", "ab", "b", "ba", "aab", "abb", "bab", "aa"))
# sha256 of the results below, recorded with the recursive preimage search;
# any change to a verdict type, a witness or a node count changes it.
GOLDEN_DIGEST = "2d30593fa87ef4e53cbb3928975b9a85957d3a1fff4078f7f82ca005c196c3dd"


def golden_results():
    for length in range(1, 9):
        for pattern in enumerate_canonical_patterns(length):
            yield is_fixed_point(pattern)
            yield is_fixed_point(pattern, budget=3)
    for length in range(1, 8):
        for pattern in enumerate_canonical_patterns(length):
            for images in GOLDEN_IMAGES:
                sigma = Morphism.of({v: images[(v - 1) % len(images)] for v in pattern.variables})
                for erasing in (True, False):
                    yield is_ambiguous(sigma, pattern, allow_erasing=erasing)
                    yield is_ambiguous(sigma, pattern, allow_erasing=erasing, budget=7)
            yield enumerate_preimages(pattern, sigma.apply(pattern), limit=50)
    for n in (9, 10):
        pattern, sigma = shortest_non_fixed_point(n)
        yield is_fixed_point(pattern)
        yield is_ambiguous(sigma, pattern)
    for m in range(10, 17):
        yield is_ambiguous(thue_morphism(m), squares_pattern(m))


def test_golden_solver_digest():
    digest = hashlib.sha256()
    for result in golden_results():
        digest.update(repr(result).encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_DIGEST


# Node counts of the squares pattern under the square-free morphism, recorded
# with the search that walks every node of its tree.
SQUARES_NODES = {17: 1376237, 18: 2883564, 19: 6029291, 20: 12582890}


@pytest.mark.parametrize("m", sorted(SQUARES_NODES))
def test_squares_pattern_node_counts(m):
    result = is_ambiguous(thue_morphism(m), squares_pattern(m))
    assert result == NoWitness(nodes_explored=SQUARES_NODES[m])


# Node counts of the deep-decisions workload's longest searches, fixed point
# and ambiguity, on the shortest non-fixed points.
SHORTEST_NODES = {9: (68076, 87379), 10: (352715, 352715)}


@pytest.mark.parametrize("n", sorted(SHORTEST_NODES))
def test_shortest_non_fixed_point_node_counts(n):
    pattern, sigma = shortest_non_fixed_point(n)
    fixed_nodes, ambiguity_nodes = SHORTEST_NODES[n]
    assert is_fixed_point(pattern) == NotFixedPoint(nodes_explored=fixed_nodes)
    assert is_ambiguous(sigma, pattern) == NoWitness(nodes_explored=ambiguity_nodes)


def test_squares_pattern_runs_out_of_the_default_budget():
    result = is_ambiguous(thue_morphism(24), squares_pattern(24))
    assert result == BudgetExhausted(nodes_explored=10**8)
