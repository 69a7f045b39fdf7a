import dataclasses
import functools
import hashlib
import itertools
import json
import multiprocessing
import pickle

import pytest

from unambig import explorer, solver
from unambig.conditions import BillaudReport, _pair_clauses, billaud_instance, image_is_fixed_point
from unambig.errors import BudgetError, DomainError, ResourceError
from unambig.explorer import (
    SCAN_TARGETS,
    ScanRecord,
    _scan_pattern,
    canonical_colorings,
    check_enumeration,
    conjecture_scan,
    enumerate_canonical_patterns,
    least_uniform_alphabet,
    search_1uniform,
    search_sigma_ij,
)
from unambig.generators import squares_pattern
from unambig.morphisms import Morphism, merge_morphism
from unambig.solver import (
    DEFAULT_BUDGET,
    BudgetExhausted,
    FixedPoint,
    NoWitness,
    Witness,
    fixed_point_verdict,
    is_ambiguous,
    is_fixed_point,
)
from unambig.words import ALPHABET, Pattern, canonical_form, first_occurrence_order, parse_pattern

from conftest import naive_canonical_patterns, oracle_fixed_point_morphisms, oracle_preimages

A0 = parse_pattern("1 2 3 1 3 2")
A1 = parse_pattern("1 2 3 4 1 4 3 2")

# the brute-force canonical patterns of each length, built once per run
naive_patterns = functools.cache(naive_canonical_patterns)


def sweep_1uniform(pattern, alphabet_size, budget=DEFAULT_BUDGET):
    """search_1uniform without its fixed-point check: run the solver on every
    canonical coloring and return the first unambiguous morphism, or None."""
    ordered = first_occurrence_order(pattern)
    for coloring in canonical_colorings(len(ordered), alphabet_size):
        sigma = Morphism.of({var: ALPHABET[c] for var, c in zip(ordered, coloring)})
        verdict = is_ambiguous(sigma, pattern, budget=budget)
        if isinstance(verdict, BudgetExhausted):
            raise BudgetError(f"coloring {coloring} exceeded {budget} nodes")
        if isinstance(verdict, NoWitness):
            return sigma
    return None


class TestCanonicalColorings:
    def test_two_items_two_colors(self):
        assert list(canonical_colorings(2, 2)) == [(0, 0), (0, 1)]

    def test_counts_follow_capped_bell_numbers(self):
        # Colorings up to color permutation = set partitions into <= k blocks.
        assert len(list(canonical_colorings(4, 2))) == 8
        assert len(list(canonical_colorings(4, 4))) == 15
        assert len(list(canonical_colorings(5, 3))) == 41

    def test_every_coloring_is_canonical(self):
        for coloring in canonical_colorings(5, 3):
            seen: list[int] = []
            for color in coloring:
                if color not in seen:
                    seen.append(color)
            assert seen == sorted(seen)

    @pytest.mark.parametrize("items", range(0, 9))
    def test_agrees_with_brute_force(self, items):
        for colors in range(0, 10):
            expected = [
                tuple(s - 1 for s in p.symbols) for p in naive_patterns(items) if len(p.variables) <= colors
            ]
            assert list(canonical_colorings(items, colors)) == expected, colors

    def test_no_colors(self):
        assert list(canonical_colorings(0, 0)) == [()]
        assert list(canonical_colorings(3, 0)) == []

    @pytest.mark.parametrize("items, colors", [(-1, 2), (2, -1), (-3, -3)])
    def test_negative_arguments_are_domain_errors(self, items, colors):
        with pytest.raises(DomainError):
            list(canonical_colorings(items, colors))


def filtered_search_sigma_ij(pattern, *, budget=DEFAULT_BUDGET):
    """search_sigma_ij as it was with the merged-image filter: a pair whose
    merged image is a fixed point is settled as ambiguous before the pair
    condition or the solver sees it."""
    variables = sorted(pattern.variables)
    if len(variables) < 2:
        raise DomainError("the pattern needs at least 2 distinct variables")
    own = fixed_point_verdict(pattern, budget=budget)
    if own is None:
        raise BudgetError(f"fixed-point check of the pattern exceeded {budget} nodes")
    if own:
        return None
    settled = set()
    clauses = None
    for i in variables:
        for j in variables:
            if i == j or (j, i) in settled:
                continue
            if image_is_fixed_point(pattern, i, j, budget=budget):
                settled.add((i, j))
                continue
            sigma = merge_morphism(variables, i, j)
            if clauses is None:
                clauses = _pair_clauses(pattern)
            if clauses(i, j)[-1]:
                return (i, j, sigma)
            verdict = is_ambiguous(sigma, pattern, budget=budget)
            if isinstance(verdict, BudgetExhausted):
                raise BudgetError(f"solver run for the pair ({i}, {j}) exceeded {budget} nodes")
            if isinstance(verdict, NoWitness):
                return (i, j, sigma)
            settled.add((i, j))
    return None


def sigma_ij_outcomes(search, length):
    """The search's answer, or its BudgetError message, on every canonical
    pattern of the length with at least 2 variables, at budgets 1..100 and
    the default."""
    outcomes = []
    for budget in [*range(1, 101), DEFAULT_BUDGET]:
        for pattern in enumerate_canonical_patterns(length, min_vars=2):
            try:
                outcomes.append(search(pattern, budget=budget))
            except BudgetError as exc:
                outcomes.append(str(exc))
    return outcomes


def search_outcome(search, *args, **kwargs):
    """The search's answer in plain values, or its error text."""
    try:
        found = search(*args, **kwargs)
    except (BudgetError, DomainError) as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(found, tuple):
        return (found[0], found[1], str(found[2]))
    return found if found is None or isinstance(found, int) else str(found)


def golden_explorer_outcomes():
    """Every per-pattern search on every canonical pattern of length <= 7 and
    on its copy renamed by v -> 100 - v, whose sorted variable order is the
    reverse of its first-occurrence order, at the default budget and at 7."""
    for length in range(1, 8):
        for pattern in enumerate_canonical_patterns(length):
            renamed = Pattern(tuple(100 - v for v in pattern.symbols))
            v = len(pattern.variables)
            for p in (pattern, renamed):
                for budget in (DEFAULT_BUDGET, 7):
                    yield search_outcome(search_sigma_ij, p, budget=budget)
                    for k in range(1, v + 1):
                        yield search_outcome(search_1uniform, p, k, budget=budget)
                    for max_k in (v, 27):
                        yield search_outcome(least_uniform_alphabet, p, max_k, budget=budget)


# sha256 of golden_explorer_outcomes(), one repr per line, recorded while
# search_sigma_ij, search_1uniform and least_uniform_alphabet still built a
# Morphism per candidate and asked is_ambiguous: any change to an answer, a
# morphism, an order or an error text changes it.
EXPLORER_DIGEST = "39f77119f030007b6b938edc64b3260514b1957620eae39eab06958d79e3af42"


def test_golden_explorer_digest():
    digest = hashlib.sha256()
    for outcome in golden_explorer_outcomes():
        digest.update(repr(outcome).encode() + b"\n")
    assert digest.hexdigest() == EXPLORER_DIGEST


class TestSearchSigmaIj:
    @pytest.mark.parametrize("length", range(2, 8))
    def test_same_answers_as_with_the_merged_image_filter(self, length):
        # a nontrivial phi fixing the merged image makes phi o sigma an
        # alternative, so the solver finds every pair the filter settled
        expected = sigma_ij_outcomes(filtered_search_sigma_ij, length)
        solver._key_verdict.cache_clear()
        assert sigma_ij_outcomes(search_sigma_ij, length) == expected

    def test_eight_symbol_example(self):
        found = search_sigma_ij(A1)
        assert found is not None
        i, j, sigma = found
        assert (i, j) == (1, 2)
        assert isinstance(is_ambiguous(sigma, A1), NoWitness)

    def test_three_variables_have_no_pair(self):
        assert search_sigma_ij(A0) is None

    def test_fixed_points_short_circuit(self):
        assert search_sigma_ij(parse_pattern("1 2 1 2")) is None

    def test_single_variable_rejected(self):
        with pytest.raises(DomainError):
            search_sigma_ij(parse_pattern("1 1 1"))

    def test_budget_surfaces_as_error(self):
        with pytest.raises(BudgetError):
            search_sigma_ij(A1, budget=1)

    @pytest.mark.parametrize("length", range(4, 9))
    def test_results_reverify(self, length):
        for pattern in naive_canonical_patterns(length):
            if len(pattern.variables) < 2:
                continue
            found = search_sigma_ij(pattern)
            if found is not None:
                i, j, sigma = found
                assert isinstance(is_ambiguous(sigma, pattern), NoWitness)
            if isinstance(is_fixed_point(pattern), FixedPoint):
                assert found is None


class TestSearch1Uniform:
    def test_thue_thresholds(self):
        a4 = squares_pattern(4)
        assert search_1uniform(a4, 2) is None
        assert search_1uniform(a4, 3) is not None

    def test_running_example_thresholds(self):
        assert search_1uniform(A0, 2) is None
        sigma = search_1uniform(A0, 3)
        assert sigma is not None
        assert isinstance(is_ambiguous(sigma, A0), NoWitness)

    def test_alphabet_size_validated(self):
        with pytest.raises(DomainError):
            search_1uniform(A0, 0)
        with pytest.raises(DomainError):
            search_1uniform(A0, 27)

    def test_budget_surfaces_as_error(self):
        with pytest.raises(BudgetError):
            search_1uniform(A1, 3, budget=1)

    def test_fixed_point_needs_only_the_fixed_point_budget(self):
        # the fixed-point check fits the budget, the coloring sweep does not
        pattern = parse_pattern("1 2 1 2 3 3")
        own = is_fixed_point(pattern)
        assert isinstance(own, FixedPoint)
        budget = own.nodes_explored
        with pytest.raises(BudgetError):
            sweep_1uniform(pattern, 2, budget=budget)
        assert search_1uniform(pattern, 2, budget=budget) is None

    @pytest.mark.parametrize("length", range(1, 8))
    def test_matches_the_unfiltered_sweep(self, length):
        for pattern in enumerate_canonical_patterns(length):
            for k in range(1, len(pattern.variables) + 1):
                assert search_1uniform(pattern, k) == sweep_1uniform(pattern, k)

    @pytest.mark.parametrize("length", range(1, 9))
    def test_solver_finds_every_coloring_of_a_fixed_point_ambiguous(self, length):
        # search_1uniform no longer asks the solver on fixed points; this
        # keeps the theorem behind that shortcut checked by the solver
        for pattern in enumerate_canonical_patterns(length):
            if not isinstance(is_fixed_point(pattern), FixedPoint):
                continue
            ordered = first_occurrence_order(pattern)
            for coloring in canonical_colorings(len(ordered), len(ordered)):
                sigma = Morphism.of({var: ALPHABET[c] for var, c in zip(ordered, coloring)})
                verdict = is_ambiguous(sigma, pattern)
                assert isinstance(verdict, Witness)
                assert verdict.tau.apply(pattern) == sigma.apply(pattern)
                assert any(verdict.tau[var] != sigma[var] for var in ordered)

    @pytest.mark.parametrize("length", range(1, 9))
    def test_full_alphabet_succeeds_exactly_off_fixed_points(self, length):
        for pattern in naive_canonical_patterns(length):
            found = search_1uniform(pattern, len(pattern.variables))
            if isinstance(is_fixed_point(pattern), FixedPoint):
                assert found is None
            else:
                assert found is not None

    @pytest.mark.parametrize("length,stride", [(9, 101), (10, 997)])
    def test_full_alphabet_criterion_sampled_longer(self, length, stride):
        # Exhausting every coloring of the many-variable fixed points gets
        # expensive past length 8; a deterministic stride keeps coverage.
        for pos, pattern in enumerate(enumerate_canonical_patterns(length)):
            if pos % stride:
                continue
            found = search_1uniform(pattern, len(pattern.variables))
            assert (found is None) == isinstance(is_fixed_point(pattern), FixedPoint)

    @pytest.mark.parametrize("length", range(1, 7))
    def test_coloring_reduction_is_lossless(self, length):
        # The canonical-coloring sweep must agree with trying every raw
        # assignment of letters to variables.
        for pattern in naive_canonical_patterns(length):
            variables = sorted(pattern.variables)
            for k in range(1, 4):
                reduced = search_1uniform(pattern, k)
                naive_hit = None
                for letters in itertools.product("abc"[:k], repeat=len(variables)):
                    sigma = Morphism.of(dict(zip(variables, letters)))
                    if isinstance(is_ambiguous(sigma, pattern), NoWitness):
                        naive_hit = sigma
                        break
                assert (reduced is None) == (naive_hit is None)
                if reduced is not None:
                    assert isinstance(is_ambiguous(reduced, pattern), NoWitness)

    @pytest.mark.parametrize("length", range(1, 9))
    def test_monotone_in_alphabet_size(self, length):
        for pattern in naive_canonical_patterns(length):
            n = len(pattern.variables)
            hits = [search_1uniform(pattern, k) is not None for k in range(1, n + 1)]
            assert hits == sorted(hits)


class TestEnumerateCanonicalPatterns:
    def test_perfect_matchings_of_four_positions(self):
        assert list(enumerate_canonical_patterns(4, uniform_multiplicity=2)) == [
            parse_pattern("1 1 2 2"),
            parse_pattern("1 2 1 2"),
            parse_pattern("1 2 2 1"),
        ]

    def test_length_two(self):
        assert list(enumerate_canonical_patterns(2)) == [
            parse_pattern("1 1"),
            parse_pattern("1 2"),
        ]

    def test_length_zero(self):
        assert list(enumerate_canonical_patterns(0)) == [Pattern(())]
        assert list(enumerate_canonical_patterns(0, min_vars=1)) == []

    @pytest.mark.parametrize("length", range(0, 8))
    def test_agrees_with_brute_force(self, length):
        assert list(enumerate_canonical_patterns(length)) == naive_canonical_patterns(length)

    def test_emits_canonical_without_duplicates_in_lex_order(self):
        out = list(enumerate_canonical_patterns(7, min_vars=2, min_multiplicity=2))
        assert out == sorted(set(out), key=lambda p: p.symbols)
        assert all(canonical_form(p) == p for p in out)

    def test_constraints(self):
        patterns = list(
            enumerate_canonical_patterns(6, min_vars=2, max_vars=3, uniform_multiplicity=2)
        )
        assert patterns
        for p in patterns:
            assert 2 <= len(p.variables) <= 3
            assert set(p.multiplicities.values()) == {2}
        filtered = [
            p
            for p in naive_canonical_patterns(6)
            if 2 <= len(p.variables) <= 3 and set(p.multiplicities.values()) == {2}
        ]
        assert patterns == filtered

    def test_min_multiplicity(self):
        for p in enumerate_canonical_patterns(6, min_multiplicity=3):
            assert all(count >= 3 for count in p.multiplicities.values())

    def test_pairing_count_at_length_ten(self):
        count = sum(
            1 for _ in enumerate_canonical_patterns(10, min_vars=5, uniform_multiplicity=2)
        )
        assert count == 945

    def test_guard(self):
        with pytest.raises(ResourceError):
            list(enumerate_canonical_patterns(17))

    @pytest.mark.parametrize("length", range(0, 9))
    def test_every_bound_combination_agrees_with_brute_force(self, length):
        counts = [1, 2, 3, 4, 5]
        for min_vars, max_vars, uniform, least in itertools.product(
            [None, *counts], [None, *counts], [None, 1, 2, 3], [None, 1, 2, 3]
        ):
            expected = [
                p
                for p in naive_patterns(length)
                if (min_vars is None or len(p.variables) >= min_vars)
                and (max_vars is None or len(p.variables) <= max_vars)
                and all(uniform is None or c == uniform for c in p.multiplicities.values())
                and all(least is None or c >= least for c in p.multiplicities.values())
            ]
            got = enumerate_canonical_patterns(
                length, min_vars=min_vars, max_vars=max_vars, uniform_multiplicity=uniform, min_multiplicity=least
            )
            assert list(got) == expected, (min_vars, max_vars, uniform, least)


def reference_least_uniform_alphabet(pattern, max_k, *, budget=DEFAULT_BUDGET):
    """The least k with search_1uniform(pattern, k) not None, trying every
    size's colorings afresh."""
    for k in range(1, max_k + 1):
        if search_1uniform(pattern, k, budget=budget) is not None:
            return k
    return None


def least_k_outcome(least, pattern, max_k, budget=DEFAULT_BUDGET):
    try:
        return least(pattern, max_k, budget=budget)
    except (BudgetError, DomainError) as error:
        return type(error), str(error)


class TestLeastUniformAlphabet:
    @pytest.mark.parametrize("length", range(1, 9))
    def test_matches_trying_every_size_afresh(self, length):
        # every coloring with fewer letters than k was already found
        # ambiguous at a smaller size, so skipping it changes no answer
        for pattern in enumerate_canonical_patterns(length):
            n = len(pattern.variables)
            assert least_uniform_alphabet(pattern, n) == reference_least_uniform_alphabet(pattern, n), pattern

    @pytest.mark.parametrize("budget", range(1, 41))
    def test_same_budget_error_at_small_budgets(self, budget):
        for length in range(1, 9):
            for pattern in enumerate_canonical_patterns(length):
                n = len(pattern.variables)
                expected = least_k_outcome(reference_least_uniform_alphabet, pattern, n, budget)
                assert least_k_outcome(least_uniform_alphabet, pattern, n, budget) == expected, pattern

    @pytest.mark.parametrize("text", ["1 2 3 1 3 2", "1 2 1 2"], ids=["k-3", "fixed-point"])
    @pytest.mark.parametrize("max_k", [0, len(ALPHABET) + 1])
    def test_sizes_outside_the_alphabet(self, text, max_k):
        pattern = parse_pattern(text)
        expected = least_k_outcome(reference_least_uniform_alphabet, pattern, max_k)
        assert least_k_outcome(least_uniform_alphabet, pattern, max_k) == expected

    def test_agrees_with_the_conjecture1_scan(self):
        # the census goes up to the full alphabet, conjecture1 stops one
        # short; below that bound both must name the same least size
        records = [r for r in conjecture_scan(8, "conjecture1") if len(r.pattern) == 8]
        assert len(records) == sum(1 for _ in enumerate_canonical_patterns(8, min_vars=4))
        for record in records:
            k = least_uniform_alphabet(record.pattern, record.var_count)
            assert (k is None) == record.is_fixed_point
            if k is not None:
                assert k == record.best_uniform_k < record.var_count
                assert least_uniform_alphabet(record.pattern, k - 1) is None


class TestCheckEnumeration:
    @pytest.mark.parametrize(
        "length, bounds, error",
        [(17, {}, ResourceError), (-1, {}, DomainError), (6, {"min_vars": 0}, DomainError)],
    )
    def test_raises_what_the_enumeration_raises(self, length, bounds, error):
        with pytest.raises(error) as eager:
            check_enumeration(length, **bounds)
        with pytest.raises(error) as lazy:
            next(enumerate_canonical_patterns(length, **bounds))
        assert str(eager.value) == str(lazy.value)

    def test_accepts_the_guard_length(self):
        check_enumeration(16, min_vars=1)


def reference_json(record):
    """The serializer ScanRecord.to_json replaced: the record's dict, keys in
    field order, through json.dumps."""
    data = {
        "pattern": str(record.pattern),
        "is_fixed_point": record.is_fixed_point,
        "var_count": record.var_count,
        "best_sigma_ij": list(record.best_sigma_ij) if record.best_sigma_ij else None,
        "best_uniform_k": record.best_uniform_k,
        "budget_hit": record.budget_hit,
        "finding": record.finding,
    }
    if record.billaud is not None:
        data["billaud"] = {
            "delta_fixed_point": {str(v): fp for v, fp in sorted(record.billaud.delta_fixed_point.items())},
            "hypothesis_holds": record.billaud.hypothesis_holds,
            "alpha_is_fixed_point": record.billaud.alpha_is_fixed_point,
            "conjecture_instance_ok": record.billaud.conjecture_instance_ok,
        }
    return json.dumps(data)


# one record of each field shape: no verdict, a pair, a least alphabet, a
# budget hit, and a Billaud report present or absent
HAND_BUILT_RECORDS = [
    ScanRecord(A0, None, 3, budget_hit=True),
    ScanRecord(A1, False, 4, best_sigma_ij=(1, 2)),
    ScanRecord(A1, False, 4, best_sigma_ij=(12, 3)),
    ScanRecord(A1, False, 4, best_uniform_k=3),
    ScanRecord(A1, False, 4, best_uniform_k=None, finding=True),
    ScanRecord(A1, True, 4, budget_hit=True),
    ScanRecord(A1, True, 4),
    ScanRecord(A0, False, 3, billaud=BillaudReport({1: False, 2: True, 3: True}, False, False, True)),
    ScanRecord(
        parse_pattern("12 3 10 12 10 3"),
        False,
        3,
        finding=True,
        billaud=BillaudReport({12: True, 3: True, 10: True}, True, False, False),
    ),
]


class TestScanRecord:
    @pytest.mark.parametrize("record", HAND_BUILT_RECORDS)
    def test_writer_matches_json_dumps_on_every_field_shape(self, record):
        assert record.to_json() == reference_json(record)
        assert ScanRecord.from_json(record.to_json()) == record

    @pytest.mark.parametrize("text", ["16 1 16", "17 1 17", "1 2 1000 2 1000 1"])
    def test_symbols_past_the_text_table_are_written_in_full(self, text):
        # the writer reads each symbol's text from a table up to the longest
        # enumerated pattern; any other record, read back or built by hand,
        # writes its symbols as str does
        record = ScanRecord(parse_pattern(text), False, 2, best_sigma_ij=(1, 2))
        assert record.to_json() == reference_json(record)
        assert ScanRecord.from_json(record.to_json()) == record

    @pytest.mark.parametrize("budget", [5, 60, DEFAULT_BUDGET])
    @pytest.mark.parametrize("target", SCAN_TARGETS)
    def test_writer_matches_json_dumps_on_every_scan_record(self, target, budget):
        for record in conjecture_scan(8, target, budget=budget):
            assert record.to_json() == reference_json(record)

    def test_pickle_round_trip(self):
        # the worker pool sends records between processes
        records = [*HAND_BUILT_RECORDS, *conjecture_scan(6, "conjecture3")]
        assert len(records) == len(HAND_BUILT_RECORDS) + 215
        for record in records:
            copy = pickle.loads(pickle.dumps(record))
            assert copy == record
            assert copy.to_json() == record.to_json()

    def test_records_and_reports_are_frozen(self):
        record = HAND_BUILT_RECORDS[-1]
        for obj in (record, record.billaud):
            for field in dataclasses.fields(obj):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(obj, field.name, None)
            # a name that is not a field is refused the same way
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, "other", 1)

    def test_billaud_fragments_are_cached_per_report_shape(self):
        explorer._billaud_json.cache_clear()
        shapes = set()
        records = 0
        for record in conjecture_scan(8, "conjecture3"):
            record.to_json()
            report = record.billaud
            flags = (report.hypothesis_holds, report.alpha_is_fixed_point, report.conjecture_instance_ok)
            shapes.add((tuple(sorted(report.delta_fixed_point.items())), flags))
            records += 1
        info = explorer._billaud_json.cache_info()
        assert (records, len(shapes)) == (5040, 37)
        assert (info.currsize, info.misses, info.hits) == (37, 37, records - 37)

    def test_json_round_trip(self):
        record = ScanRecord(
            pattern=A1,
            is_fixed_point=False,
            var_count=4,
            best_sigma_ij=(1, 2),
            best_uniform_k=None,
            budget_hit=False,
            finding=False,
        )
        line = record.to_json()
        parsed = json.loads(line)
        assert parsed["pattern"] == "1 2 3 4 1 4 3 2"
        assert parsed["best_sigma_ij"] == [1, 2]
        assert parsed["best_uniform_k"] is None
        assert ScanRecord.from_json(line) == record


def conjecture3_record(pattern, budget):
    """The conjecture3 record built from two decisions of the pattern: its
    own fixed-point verdict first, then billaud_instance."""
    var_count = len(pattern.variables)
    alpha_fp = fixed_point_verdict(pattern, budget=budget)
    if alpha_fp is None:
        return ScanRecord(pattern, None, var_count, None, None, True, False)
    try:
        report = billaud_instance(pattern, budget=budget)
    except BudgetError:
        return ScanRecord(pattern, alpha_fp, var_count, None, None, True, False)
    finding = not report.conjecture_instance_ok
    return ScanRecord(pattern, alpha_fp, var_count, None, None, False, finding, billaud=report)


# sha256 and record count of the conjecture_scan(8, target, budget=budget)
# JSONL, one to_json() line per record; the default-budget digests were
# recorded before the fixed-point shortcuts.  At budget 60 every target has
# budget hits of both kinds: an undecided pattern, and a decided one whose
# search ran out.  Any change to a record of these scans changes them.
SCAN_DIGESTS = {
    ("conjecture1", DEFAULT_BUDGET): (3651, "d204f68315db0a8ff18960a44771dcc813d5cbc4d804703265614b32de9a78bc"),
    ("conjecture2", DEFAULT_BUDGET): (3651, "472a67e1318b0598a323058ebdefacb3b8ad64a3a7742192c43b33ab847f6ca1"),
    ("conjecture3", DEFAULT_BUDGET): (5040, "62dedd5407dd6485886a0d5418063184952b3458bc2c7ae9e2bf5cf6e7ac7736"),
    ("theorem7", DEFAULT_BUDGET): (105, "6c4a9e4dfc64e6f8c892d811247edbdd600285e5040d0803ad63bf9caac0b546"),
    ("conjecture1", 60): (3651, "51cda4fa32cca54f7837802f8f24703a5f2b720b7a9163dbd0bd3f16f6e66e8a"),
    ("conjecture2", 60): (3651, "268628e4f7fb65862dd57c5743df1aa3f1d0e05f3af04d5af4058d1ad8e4a016"),
    ("conjecture3", 60): (5040, "bd614ca783883a9ae78d3bf5041468fc86b37c4fd1f64c91feca31f57061c4eb"),
    ("theorem7", 60): (105, "bd61b8682320a48858f6dc3c9b3686288d8c6f738bcb2305c17f835d1a03f323"),
    ("conjecture1", 5): (3651, "6addce13eda8579f22d0a2338fe77422645181125d9d528cd98616f2d5c3094a"),
    ("conjecture2", 5): (3651, "6addce13eda8579f22d0a2338fe77422645181125d9d528cd98616f2d5c3094a"),
    ("conjecture3", 5): (5040, "05f2da1231d5d6e0c5782b1c6d5a3eb8ac8c2feff66f0b69a75b2b7ae37ffa99"),
    ("theorem7", 5): (105, "8022d189782383fde3f95059c667f874569c99e59e42c059bc0834708e5de8ce"),
}


def scan_digest(max_len, target, budget):
    """Record count and sha256 of the scan's JSONL, one to_json() line per
    record."""
    digest = hashlib.sha256()
    records = 0
    for record in conjecture_scan(max_len, target, budget=budget):
        digest.update((record.to_json() + "\n").encode())
        records += 1
    return records, digest.hexdigest()


# (records, sha256) of the conjecture_scan(max_len, target) JSONL at the
# default budget, recorded before the scan moved onto canonical keys: the
# cmp gate of every scan change, at lengths past SCAN_DIGESTS.
LONGER_SCAN_DIGESTS = {
    ("conjecture1", 9): (21517, "fb19c280a807583c3bb706df1e43cae718b549ca7d57a519196f9d95b1321902"),
    ("conjecture2", 9): (21517, "4a01648f78165651035384c64216515503905711dc3713aa6d498ff78439c349"),
    ("conjecture3", 9): (25931, "45f738572bb5823ae316fccd64a48619f0590cb27897505cfdabdc0c077ecd9b"),
    ("theorem7", 10): (1050, "deea79de44617cbf012efe4e0d88805de30e4695f0a5e8737ad447af8c36ff39"),
}


class TestConjectureScan:
    @pytest.mark.parametrize(
        "target,budget",
        [pytest.param(t, b, id=t if b == DEFAULT_BUDGET else f"{t}-{b}") for t, b in SCAN_DIGESTS],
    )
    def test_scan_output_is_pinned(self, target, budget):
        assert scan_digest(8, target, budget) == SCAN_DIGESTS[target, budget]

    @pytest.mark.parametrize(
        "target,max_len", [pytest.param(t, m, id=f"{t}-{m}") for t, m in LONGER_SCAN_DIGESTS]
    )
    def test_longer_scan_output_is_pinned(self, target, max_len):
        assert scan_digest(max_len, target, DEFAULT_BUDGET) == LONGER_SCAN_DIGESTS[target, max_len]

    def test_second_scan_under_a_small_budget_searches_nothing(self, monkeypatch):
        # every fixed-point outcome of a conjecture3 scan, budget hits
        # included, stays in the verdict cache, so the same scan again in
        # the same process runs no search and writes the same bytes
        assert scan_digest(8, "conjecture3", 60) == SCAN_DIGESTS["conjecture3", 60]
        searches = []
        search = solver._ambiguity_verdict

        def counted(*args, **kwargs):
            searches.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(solver, "_ambiguity_verdict", counted)
        assert scan_digest(8, "conjecture3", 60) == SCAN_DIGESTS["conjecture3", 60]
        assert searches == []

    @pytest.mark.parametrize("target", SCAN_TARGETS)
    def test_one_pattern_per_record(self, monkeypatch, target):
        # the scans decide canonical keys: the record's Pattern is the only one
        built = []
        post_init = Pattern.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(Pattern, "__post_init__", counted)
        records = list(conjecture_scan(8, target))
        assert len(built) == len(records)

    @pytest.mark.parametrize("budget", [5, 60, DEFAULT_BUDGET])
    @pytest.mark.parametrize("target", ["conjecture1", "conjecture2", "theorem7"])
    def test_one_fixed_point_ask_per_record(self, monkeypatch, target, budget):
        # the record's own verdict comes from one call on its key, budget
        # hits included
        asks = []
        verdict = explorer._canonical_verdict

        def counted(key, budget):
            asks.append(key)
            return verdict(key, budget)

        monkeypatch.setattr(explorer, "_canonical_verdict", counted)
        records = list(conjecture_scan(8, target, budget=budget))
        assert asks == [record.pattern.symbols for record in records]

    def test_pair_core_asks_each_unordered_pair_once(self, monkeypatch):
        # the mirrored pair (j, i) merges to the same word up to renaming, so
        # the pair core tries only the pairs i < j, in order; it builds the
        # pair condition only where every variable occurs the same m >= 2
        # times, since no pair of any other pattern passes
        tried = []
        built = []
        core = explorer._sigma_ij_pair
        verdict = explorer._ambiguity_verdict

        def searched(pattern, budget):
            tried.append([])
            return core(pattern, budget)

        def recording(pattern):
            clauses = _pair_clauses(pattern)
            built.append(pattern)

            def recorded(i, j):
                tried[-1].append((i, j))
                return clauses(i, j)

            return recorded

        def run(symbols, word, images, budget):
            # the merged image gives j the letter of i
            variables = sorted(set(symbols))
            (j,) = [v for rank, v in enumerate(variables) if images[v] != ALPHABET[rank]]
            pair = (variables[ALPHABET.index(images[j])], j)
            if tried[-1][-1:] != [pair]:
                tried[-1].append(pair)
            return verdict(symbols, word, images, budget)

        monkeypatch.setattr(explorer, "_sigma_ij_pair", searched)
        monkeypatch.setattr(explorer, "_pair_clauses", recording)
        monkeypatch.setattr(explorer, "_ambiguity_verdict", run)
        for target, max_len in (("conjecture2", 9), ("theorem7", 10)):
            before = len(tried), len(built)
            records = list(conjecture_scan(max_len, target))
            searches = [record for record in records if record.is_fixed_point is False]
            uniform = [
                record for record in searches if len(set(record.pattern.multiplicities.values())) == 1
            ]
            assert len(tried) - before[0] == len(searches)
            assert built[before[1] :] == [record.pattern for record in uniform]
            if target == "theorem7":
                assert uniform == searches
        for pairs in tried:
            assert all(i < j for i, j in pairs)
            assert pairs == sorted(set(pairs))
        # up to length 8 every pattern stops at some pair (1, j); here some
        # go past them all, to where (2, 1) would come in pair order
        assert any(pairs[-1][0] > 1 for pairs in tried)

    def test_theorem7_smallest_length(self):
        records = list(conjecture_scan(8, "theorem7"))
        assert len(records) == 105
        for record in records:
            assert record.var_count == 4
            assert not record.finding
            if record.is_fixed_point:
                assert record.best_sigma_ij is None
            else:
                assert record.best_sigma_ij is not None

    def test_conjecture2_no_findings_small(self):
        records = list(conjecture_scan(8, "conjecture2"))
        assert len(records) == 3651
        assert not any(r.finding for r in records)
        assert not any(r.budget_hit for r in records)
        # Patterns with a variable occurring once are always fixed points.
        for record in records:
            if len(record.pattern) < 2 * record.var_count:
                assert record.is_fixed_point

    def test_conjecture1_records_least_alphabet(self):
        records = list(conjecture_scan(6, "conjecture1"))
        assert len(records) == 93
        for record in records:
            assert record.is_fixed_point
            assert record.best_uniform_k is None

    def test_conjecture3_embeds_billaud_reports(self):
        records = list(conjecture_scan(6, "conjecture3"))
        assert len(records) == 215
        for record in records:
            assert record.billaud is not None
            assert record.billaud.conjecture_instance_ok
            assert not record.finding

    def test_conjecture3_matches_two_decisions_at_every_budget(self):
        # The scan decides each pattern once, through billaud_instance; its
        # records must equal those of deciding the pattern first, budget hits
        # included.
        patterns = [p for length in range(3, 8) for p in enumerate_canonical_patterns(length, min_vars=3)]
        for budget in [*range(1, 41), DEFAULT_BUDGET]:
            got = [r.to_json() for r in conjecture_scan(7, "conjecture3", budget=budget)]
            expected = [conjecture3_record(p, budget).to_json() for p in patterns]
            assert got == expected, budget

    def test_scope_guards(self):
        with pytest.raises(DomainError):
            list(conjecture_scan(8, "conjecture9"))
        with pytest.raises(ResourceError):
            list(conjecture_scan(15, "conjecture2"))
        with pytest.raises(DomainError):
            list(conjecture_scan(8, "conjecture2", workers=0))

    def test_negative_length_is_a_domain_error_before_any_record(self):
        # worded as the enumerator words its own length check
        with pytest.raises(DomainError, match="^length must be >= 0, got -3$"):
            list(enumerate_canonical_patterns(-3))
        for target in SCAN_TARGETS:
            with pytest.raises(DomainError, match="^max_len must be >= 0, got -3$"):
                conjecture_scan(-3, target)

    def test_non_int_length_is_a_domain_error_before_any_record(self):
        # a float failed only at the first record, and True scanned as 1
        with pytest.raises(DomainError, match="^max_len must be an int, got 8.5$"):
            conjecture_scan(8.5, "theorem7")
        with pytest.raises(DomainError, match="^max_len must be an int, got True$"):
            conjecture_scan(True, "conjecture3")

    def test_more_workers_than_cpus_is_a_domain_error_before_any_fork(self, monkeypatch):
        def no_pool(workers):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(explorer.os, "cpu_count", lambda: 3)
        # the scan imports the pool from multiprocessing when it starts one
        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        with pytest.raises(DomainError, match="workers must be <= 3, the CPU count, got 4"):
            conjecture_scan(8, "theorem7", workers=4)

    def test_unknown_cpu_count_allows_one_worker(self, monkeypatch):
        monkeypatch.setattr(explorer.os, "cpu_count", lambda: None)
        with pytest.raises(DomainError, match="workers must be <= 1, the CPU count, got 2"):
            conjecture_scan(8, "theorem7", workers=2)
        assert len(list(conjecture_scan(8, "theorem7", workers=1))) == 105

    def test_worker_pool_preserves_order(self):
        serial = list(conjecture_scan(8, "theorem7"))
        parallel = list(conjecture_scan(8, "theorem7", workers=2))
        assert serial == parallel

    @pytest.mark.parametrize("budget", [60, DEFAULT_BUDGET])
    @pytest.mark.parametrize("target", SCAN_TARGETS)
    def test_records_serialize_losslessly(self, target, budget):
        hits = set()
        for record in conjecture_scan(8, target, budget=budget):
            assert ScanRecord.from_json(record.to_json()) == record
            assert (record.billaud is not None) == (target == "conjecture3" and not record.budget_hit)
            if record.budget_hit:
                hits.add(record.is_fixed_point)
        # both kinds of budget hit round-trip: undecided, and decided first
        assert len(hits) == (2 if budget == 60 else 0)


# A sweep of every length-12 pattern with at least 4 variables, each
# occurring at least twice, flags these two and no others, under both the
# conjecture1 and the conjecture2 predicate.  Both are palindromes over 4
# variables.
LENGTH_12_FINDINGS = ["1 2 1 3 1 4 4 1 3 1 2 1", "1 2 3 2 4 2 2 4 2 3 2 1"]


@pytest.mark.parametrize("text", LENGTH_12_FINDINGS)
class TestLengthTwelveFindings:
    @pytest.mark.parametrize("target", ["conjecture1", "conjecture2"])
    def test_scan_record(self, text, target):
        assert _scan_pattern(parse_pattern(text).symbols, target, DEFAULT_BUDGET).to_json() == (
            f'{{"pattern": "{text}", "is_fixed_point": false, "var_count": 4, "best_sigma_ij": null, '
            '"best_uniform_k": null, "budget_hit": false, "finding": true}'
        )

    def test_searches(self, text):
        pattern = parse_pattern(text)
        assert search_sigma_ij(pattern) is None
        assert least_uniform_alphabet(pattern, 3) is None
        assert least_uniform_alphabet(pattern, 4) == 4

    def test_every_alternative_erases(self, text):
        # every sigma_ij is weakly unambiguous: the alternatives the solver
        # finds all send some variable to the empty word
        pattern = parse_pattern(text)
        variables = sorted(pattern.variables)
        for i, j in itertools.permutations(variables, 2):
            sigma = merge_morphism(variables, i, j)
            assert isinstance(is_ambiguous(sigma, pattern, allow_erasing=False), NoWitness), (i, j)

    def test_oracles_agree(self, text):
        pattern = parse_pattern(text)
        assert oracle_fixed_point_morphisms(pattern) == []
        variables = sorted(pattern.variables)
        for i, j in itertools.permutations(variables, 2):
            sigma = merge_morphism(variables, i, j)
            assert any(tau != sigma for tau in oracle_preimages(pattern, sigma.apply(pattern))), (i, j)
