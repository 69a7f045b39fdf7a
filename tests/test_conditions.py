import itertools

import pytest
from hypothesis import given

from unambig import solver
from unambig.conditions import (
    BillaudReport,
    _pair_clauses,
    billaud_instance,
    candidate_pairs,
    fixed_point_by_neighbourhoods,
    has_unique_2_factors,
    image_is_fixed_point,
    pair_condition,
)
from unambig.errors import BudgetError, DomainError
from unambig.explorer import enumerate_canonical_patterns
from unambig.morphisms import erase_variable, merge_morphism
from unambig.solver import (
    DEFAULT_BUDGET,
    FixedPoint,
    NoWitness,
    Witness,
    fixed_point_verdict,
    is_ambiguous,
    is_fixed_point,
)
from unambig.words import BOUNDARY, Pattern, neighbourhoods, parse_pattern

from conftest import naive_canonical_patterns, oracle_pair_clauses, pattern_strategy

A0 = parse_pattern("1 2 3 1 3 2")
A1 = parse_pattern("1 2 3 4 1 4 3 2")


class TestNeighbourhoodLemma:
    def test_square_pattern_fires(self):
        assert fixed_point_by_neighbourhoods(parse_pattern("1 2 1 2")) == (2, 1)

    def test_two_symbol_pattern_fires(self):
        assert fixed_point_by_neighbourhoods(parse_pattern("1 2")) == (2, 1)

    def test_non_fixed_point_is_silent(self):
        assert fixed_point_by_neighbourhoods(A0) is None

    def test_empty_pattern_rejected(self):
        with pytest.raises(DomainError):
            fixed_point_by_neighbourhoods(Pattern(()))

    @pytest.mark.parametrize("length", range(1, 9))
    def test_sound_for_every_short_pattern(self, length):
        # Firing must imply fixed-point status; the converse need not hold.
        for pattern in naive_canonical_patterns(length):
            if fixed_point_by_neighbourhoods(pattern) is not None:
                assert isinstance(is_fixed_point(pattern), FixedPoint)

    @pytest.mark.parametrize("length", range(1, 9))
    def test_matches_the_neighbourhood_sets(self, length):
        # The certificate read straight off the sets L_x and R_x.
        def by_sets(pattern):
            nbh = neighbourhoods(pattern)
            ordered = sorted(pattern.variables)
            for i in ordered:
                if BOUNDARY not in nbh.left[i] and all(nbh.right[k] == {i} for k in nbh.left[i]):
                    return (i, 1)
            for i in ordered:
                if BOUNDARY not in nbh.right[i] and all(nbh.left[k] == {i} for k in nbh.right[i]):
                    return (i, 2)
            return None

        for pattern in naive_canonical_patterns(length):
            renamed = Pattern(tuple(3 * (length + 1 - s) for s in pattern.symbols))
            for p in (pattern, renamed):
                assert fixed_point_by_neighbourhoods(p) == by_sets(p), p


class TestPairCondition:
    def test_passing_pair(self):
        report = pair_condition(A1, 1, 4)
        assert report.passes
        assert report.uniform_multiplicity == 2
        assert report.covered_by_left is None
        assert report.covered_by_right is None
        assert not report.has_ij_then_ji

    def test_adjacent_factors_block(self):
        report = pair_condition(A1, 2, 3)
        assert not report.passes
        assert report.has_ij_then_ji

    def test_covering_variable_blocks(self):
        report = pair_condition(parse_pattern("1 1 2 2"), 1, 2)
        assert not report.passes
        assert report.covered_by_left == 2

    def test_factor_test_ignores_overlaps(self):
        # 4·1·4 puts 4·1 and 1·4 on top of each other; that is not the
        # disjoint factorization the condition is about.
        report = pair_condition(A1, 1, 4)
        assert not report.has_ij_then_ji

    def test_factor_test_is_symmetric(self):
        # Disjoint occurrences in either temporal order block the pair; the
        # merged images re-parse the same way whichever orientation is first.
        alpha = parse_pattern("1 2 3 3 2 1")
        assert pair_condition(alpha, 2, 1).has_ij_then_ji
        assert pair_condition(alpha, 1, 2).has_ij_then_ji
        sigma = merge_morphism(alpha.variables, 2, 1)
        assert isinstance(is_ambiguous(sigma, alpha), Witness)

    def test_nonuniform_multiplicity_blocks(self):
        report = pair_condition(parse_pattern("1 1 2 2 2 3 3"), 1, 2)
        assert report.uniform_multiplicity is None
        assert not report.passes

    def test_preconditions(self):
        with pytest.raises(DomainError):
            pair_condition(A1, 1, 1)
        with pytest.raises(DomainError):
            pair_condition(A1, 1, 9)

    def test_clauses_match_their_definition_on_every_short_pattern(self):
        pairs = 0
        for length in range(2, 9):
            for pattern in enumerate_canonical_patterns(length):
                clauses = _pair_clauses(pattern)
                for i, j in itertools.permutations(sorted(pattern.variables), 2):
                    assert clauses(i, j) == oracle_pair_clauses(pattern, i, j), (pattern, i, j)
                    pairs += 1
        assert pairs > 0

    @given(pattern_strategy(min_len=2, max_len=30, max_vars=4))
    def test_clauses_match_their_definition_on_long_patterns(self, pattern):
        # long patterns over at most four variables give neighbourhoods of
        # three or more symbols, so several variables may hold the pair
        clauses = _pair_clauses(pattern)
        for i, j in itertools.permutations(sorted(pattern.variables), 2):
            assert clauses(i, j) == oracle_pair_clauses(pattern, i, j), (pattern, i, j)

    @given(pattern_strategy(min_len=2, max_len=8, max_vars=4))
    def test_order_of_arguments_is_immaterial(self, pattern):
        variables = sorted(pattern.variables)
        if len(variables) < 2:
            return
        i, j = variables[0], variables[1]
        assert pair_condition(pattern, i, j).passes == pair_condition(pattern, j, i).passes


class TestCandidatePairs:
    def test_eight_symbol_example(self):
        assert candidate_pairs(A1) == [(1, 2), (1, 4)]

    def test_pairs_are_ordered_and_pass(self):
        for i, j in candidate_pairs(parse_pattern("1 1 2 3 3 2 4 4")):
            assert i < j
            assert pair_condition(parse_pattern("1 1 2 3 3 2 4 4"), i, j).passes

    def test_empty_pattern_has_no_pairs(self):
        assert candidate_pairs(Pattern(())) == []

    def test_matches_pair_condition_on_every_short_pattern(self):
        # candidate_pairs and pair_condition share one predicate; both must
        # accept exactly the same pairs on every canonical pattern up to 8.
        from unambig.explorer import enumerate_canonical_patterns

        for length in range(9):
            for pattern in enumerate_canonical_patterns(length):
                variables = sorted(pattern.variables)
                expected = [
                    (i, j)
                    for i in variables
                    for j in variables
                    if i < j and pair_condition(pattern, i, j).passes
                ]
                assert candidate_pairs(pattern) == expected, pattern

    def test_passing_pairs_verify_as_unambiguous(self):
        # The point of the condition: off fixed points, passing pairs give
        # unambiguous merged morphisms.  Exhaustive at length 8, m = 2.
        from unambig.explorer import enumerate_canonical_patterns

        checked = 0
        for pattern in enumerate_canonical_patterns(8, min_vars=4, uniform_multiplicity=2):
            if isinstance(is_fixed_point(pattern), FixedPoint):
                continue
            for i, j in candidate_pairs(pattern):
                sigma = merge_morphism(pattern.variables, i, j)
                assert isinstance(is_ambiguous(sigma, pattern), NoWitness), (pattern, i, j)
                checked += 1
        assert checked > 0


class TestImageFixedPoint:
    def test_detects_fixed_point_image(self):
        # Merging 4 onto 2 lands on abcbabcb, fixed by a -> abcb, b,c -> empty.
        assert image_is_fixed_point(A1, 2, 4)

    def test_rejects_non_fixed_point_image(self):
        assert not image_is_fixed_point(A1, 2, 3)

    def test_filter_is_not_characteristic(self):
        a2 = parse_pattern("1 2 3 3 4 4 1 2 3 3 4 4 2")
        assert not image_is_fixed_point(a2, 2, 4)
        assert isinstance(is_ambiguous(merge_morphism(a2.variables, 2, 4), a2), Witness)

    def test_budget_propagates(self):
        with pytest.raises(BudgetError):
            image_is_fixed_point(A1, 2, 4, budget=1)

    @pytest.mark.parametrize("length", range(2, 9))
    def test_true_implies_ambiguous(self, length):
        for pattern in naive_canonical_patterns(length):
            variables = sorted(pattern.variables)
            for i in variables:
                for j in variables:
                    if i == j:
                        continue
                    if image_is_fixed_point(pattern, i, j):
                        sigma = merge_morphism(pattern.variables, i, j)
                        assert isinstance(is_ambiguous(sigma, pattern), Witness)


class TestUnique2Factors:
    def test_de_bruijn_word(self):
        assert has_unique_2_factors("aabacbbcca")

    def test_repeated_factor(self):
        assert not has_unique_2_factors("abab")

    def test_minimal_word(self):
        assert has_unique_2_factors("ab")

    def test_short_words_rejected(self):
        with pytest.raises(DomainError):
            has_unique_2_factors("a")


def reference_billaud_instance(pattern, *, budget=DEFAULT_BUDGET):
    """billaud_instance with every deletion built and decided by
    fixed_point_verdict, without the multiplicity shortcut."""
    if len(pattern.variables) < 3:
        raise DomainError("the conjecture instance needs at least 3 distinct variables")
    delta_status = {}
    for var in sorted(pattern.variables):
        verdict = fixed_point_verdict(erase_variable(pattern, var), budget=budget)
        if verdict is None:
            raise BudgetError(f"fixed-point check after deleting {var} exceeded {budget} nodes")
        delta_status[var] = verdict
    alpha_fp = fixed_point_verdict(pattern, budget=budget)
    if alpha_fp is None:
        raise BudgetError(f"fixed-point check of the pattern exceeded {budget} nodes")
    hypothesis = all(delta_status.values())
    return BillaudReport(delta_status, hypothesis, alpha_fp, (not hypothesis) or alpha_fp)


def billaud_outcome(instance, pattern, budget):
    try:
        return instance(pattern, budget=budget)
    except BudgetError as error:
        return str(error)


class TestBillaudInstance:
    def test_running_example_report(self):
        report = billaud_instance(A0)
        assert report.delta_fixed_point == {1: False, 2: True, 3: True}
        assert not report.hypothesis_holds
        assert not report.alpha_is_fixed_point
        assert report.conjecture_instance_ok

    def test_fixed_point_with_fixed_point_deletions(self):
        square = parse_pattern("1 2 3 1 2 3")
        report = billaud_instance(square)
        assert report.hypothesis_holds
        assert report.alpha_is_fixed_point
        assert report.conjecture_instance_ok

    def test_small_variable_counts_rejected(self):
        with pytest.raises(DomainError):
            billaud_instance(parse_pattern("1 2 1 2"))

    def test_budget_propagates(self):
        with pytest.raises(BudgetError):
            billaud_instance(parse_pattern("1 2 3 1 2 3"), budget=1)

    @pytest.mark.parametrize("length", range(3, 9))
    def test_no_counterexamples_among_short_patterns(self, length):
        for pattern in naive_canonical_patterns(length):
            if len(pattern.variables) < 3:
                continue
            assert billaud_instance(pattern).conjecture_instance_ok, pattern

    @pytest.mark.parametrize(
        "budgets",
        [
            pytest.param([bound - 1, bound, bound + 1], id=f"tree-bound-{m}")
            for m, bound in enumerate(solver._SEARCH_TREE_BOUND)
            if 2 <= m <= 8
        ]
        + [pytest.param([DEFAULT_BUDGET], id="default")],
    )
    def test_matches_deciding_every_deletion(self, budgets):
        # the shortcut must give the same report or BudgetError as the search
        # on each deletion, and leave the verdict cache as the search path
        # leaves it
        patterns = [p for length in range(3, 9) for p in enumerate_canonical_patterns(length, min_vars=3)]
        for budget in budgets:
            sweeps = []
            for instance in (reference_billaud_instance, billaud_instance):
                solver._key_verdict.cache_clear()
                outcomes = [billaud_outcome(instance, p, budget) for p in patterns]
                sweeps.append((outcomes, solver._key_verdict.cache_info()))
            assert sweeps[1][0] == sweeps[0][0], budget
            assert sweeps[1][1] == sweeps[0][1], budget

    def test_two_singleton_report_matches_deciding_every_deletion(self):
        # two variables occurring once make the whole report true at once
        # under a budget that covers the pattern's search tree; below one,
        # each deletion is decided.  Every pattern is asked on both sides of
        # its own tree bound and at the default budget, and those up to
        # length 6 at every budget up to 100 (length 3's bound is 34).
        patterns = [
            p
            for length in range(3, 9)
            for p in enumerate_canonical_patterns(length, min_vars=3)
            if list(p.multiplicities.values()).count(1) >= 2
        ]
        asked = {DEFAULT_BUDGET: patterns}
        for p in patterns:
            gate = solver._SEARCH_TREE_BOUND[len(p)]
            for budget in {gate - 1, gate, *(range(1, 101) if len(p) <= 6 else ())}:
                asked.setdefault(budget, []).append(p)
        for budget, sweep in asked.items():
            outcomes = []
            for instance in (reference_billaud_instance, billaud_instance):
                solver._key_verdict.cache_clear()
                outcomes.append([billaud_outcome(instance, p, budget) for p in sweep])
            assert outcomes[1] == outcomes[0], budget
        assert all(report.conjecture_instance_ok for report in outcomes[1])

    @pytest.mark.parametrize("budget", [1, 5, 60, DEFAULT_BUDGET])
    def test_renamed_input_gives_the_relabelled_report(self, budget):
        # v -> 7 * (5v mod 11) is injective on 1..10, non-contiguous and out
        # of order, so sorted variables differ from first-occurrence order
        patterns = [p for length in range(3, 9) for p in enumerate_canonical_patterns(length, min_vars=3)]
        renamed = [Pattern(tuple(7 * (5 * s % 11) for s in p.symbols)) for p in patterns]
        sweeps = []
        for instance, sweep in (
            (reference_billaud_instance, renamed),
            (billaud_instance, renamed),
            (billaud_instance, patterns),
        ):
            solver._key_verdict.cache_clear()
            sweeps.append([billaud_outcome(instance, p, budget) for p in sweep])
        expected, got, canonical = sweeps
        for pattern, want, report, own in zip(renamed, expected, got, canonical):
            # the same report, or the same BudgetError text, naming the
            # renamed variable
            assert report == want, pattern
            if isinstance(report, str):
                continue
            assert list(report.delta_fixed_point) == sorted(pattern.variables)
            relabelled = {7 * (5 * v % 11): fp for v, fp in own.delta_fixed_point.items()}
            assert report == BillaudReport(
                relabelled, own.hypothesis_holds, own.alpha_is_fixed_point, own.conjecture_instance_ok
            )
        if budget == DEFAULT_BUDGET:
            assert not any(isinstance(outcome, str) for outcome in got)
        else:
            assert any(isinstance(outcome, str) for outcome in got)

    @pytest.mark.parametrize("budget", [0, -3, 1e9, None, True])
    def test_bad_budget_is_rejected_before_any_shortcut(self, budget):
        pattern = parse_pattern("1 2 3 1 2")
        with pytest.raises(DomainError) as expected:
            reference_billaud_instance(pattern, budget=budget)
        with pytest.raises(DomainError) as raised:
            billaud_instance(pattern, budget=budget)
        assert str(raised.value) == str(expected.value) == f"budget must be a positive node count, got {budget!r}"
