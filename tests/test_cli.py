import hashlib
import json
import multiprocessing
import os
import shlex
import shutil
import subprocess
import sys

import pytest

import unambig
from unambig import checks, cli, explorer, generators
from unambig.errors import InconsistencyError
from unambig.explorer import SCAN_TARGETS, ScanRecord
from unambig.morphisms import Morphism, Substitution
from unambig.solver import DEFAULT_BUDGET
from unambig.words import Pattern, parse_pattern

from test_explorer import LONGER_SCAN_DIGESTS, SCAN_DIGESTS

A0 = "1 2 3 1 3 2"
A1 = "1 2 3 4 1 4 3 2"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheckAmbiguity:
    def test_ambiguous_reports_witness_and_fails(self, capsys):
        code, out, _ = run_cli(
            capsys, "check-ambiguity", "--pattern", A0, "--morphism", "1=a,2=a,3=b"
        )
        assert code == 1
        assert "verdict: ambiguous" in out
        assert "witness: 1=,2=a,3=ab" in out

    def test_unambiguous_holds(self, capsys):
        code, out, _ = run_cli(
            capsys, "check-ambiguity", "--pattern", A0, "--morphism", "1=a,2=ab,3=b"
        )
        assert code == 0
        assert "verdict: unambiguous" in out

    def test_nonerasing_only_flips_the_running_example(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check-ambiguity",
            "--pattern",
            A0,
            "--morphism",
            "1=a,2=a,3=b",
            "--nonerasing-only",
        )
        assert code == 0
        assert "verdict: unambiguous" in out

    def test_budget_exhaustion_is_exit_3(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check-ambiguity",
            "--pattern",
            A0,
            "--morphism",
            "1=a,2=a,3=b",
            "--budget",
            "1",
        )
        assert code == 3
        assert "budget-exhausted" in out

    def test_witness_round_trips(self, capsys):
        _, out, _ = run_cli(
            capsys, "check-ambiguity", "--pattern", A0, "--morphism", "1=a,2=a,3=b"
        )
        witness = next(line for line in out.splitlines() if line.startswith("witness: "))
        tau = Morphism.parse(witness.removeprefix("witness: "))
        sigma = Morphism.parse("1=a,2=a,3=b")
        assert tau.apply(parse_pattern(A0)) == sigma.apply(parse_pattern(A0))

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "check-ambiguity", "--pattern", A0, "--morphism", "1=a,2=a,3=b", "--json"
        )
        record = json.loads(out)
        assert code == 1
        assert record["verdict"] == "ambiguous"
        assert record["witness"] == "1=,2=a,3=ab"


class TestFixedPoint:
    def test_not_fixed_point_fails(self, capsys):
        code, out, _ = run_cli(capsys, "fixed-point", "--pattern", A1)
        assert code == 1
        assert "verdict: not-fixed-point" in out

    def test_fixed_point_reports_morphism(self, capsys):
        code, out, _ = run_cli(capsys, "fixed-point", "--pattern", "1 2 1 2")
        assert code == 0
        assert "verdict: fixed-point" in out
        line = next(l for l in out.splitlines() if l.startswith("morphism: "))
        phi = Substitution.parse(line.removeprefix("morphism: "))
        assert phi.apply(parse_pattern("1 2 1 2")) == parse_pattern("1 2 1 2")

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "fixed-point", "--pattern", "1 2 1 2", "--json")
        record = json.loads(out)
        assert code == 0
        assert record["verdict"] == "fixed-point"
        assert record["morphism"] == "1=,2=1 2"


class TestSearches:
    def test_sigma_ij_found(self, capsys):
        code, out, _ = run_cli(capsys, "search-sigma-ij", "--pattern", A1)
        assert code == 0
        assert "pair: 1 2" in out
        line = next(l for l in out.splitlines() if l.startswith("morphism: "))
        Morphism.parse(line.removeprefix("morphism: "))

    def test_sigma_ij_absent(self, capsys):
        code, out, _ = run_cli(capsys, "search-sigma-ij", "--pattern", A0)
        assert code == 1
        assert "pair: none" in out

    def test_sigma_ij_json(self, capsys):
        code, out, _ = run_cli(capsys, "search-sigma-ij", "--pattern", A1, "--json")
        record = json.loads(out)
        assert code == 0
        assert record["pair"] == [1, 2]

    def test_uniform_threshold(self, capsys):
        code, out, _ = run_cli(
            capsys, "search-uniform", "--pattern", A0, "--alphabet-size", "2"
        )
        assert code == 1
        assert "morphism: none" in out
        code, out, _ = run_cli(
            capsys, "search-uniform", "--pattern", A0, "--alphabet-size", "3"
        )
        assert code == 0
        sigma = Morphism.parse(out.removeprefix("morphism: ").strip())
        assert sigma.classify().one_uniform


AMBIGUOUS = ["check-ambiguity", "--pattern", A0, "--morphism", "1=a,2=a,3=b"]

# Exact stdout, exit code and stderr of each decision subcommand, human and
# --json, per outcome; a None value drops out of the human lines except as the
# first key, and a budget that a search exceeds is reported on stderr only.
DECISIONS = [
    pytest.param(
        AMBIGUOUS,
        1,
        "verdict: ambiguous\nwitness: 1=,2=a,3=ab\nnodes: 10\n",
        '{"verdict": "ambiguous", "witness": "1=,2=a,3=ab", "nodes": 10}\n',
        "",
        id="ambiguous",
    ),
    pytest.param(
        ["check-ambiguity", "--pattern", A0, "--morphism", "1=a,2=ab,3=b"],
        0,
        "verdict: unambiguous\nnodes: 55\n",
        '{"verdict": "unambiguous", "witness": null, "nodes": 55}\n',
        "",
        id="unambiguous",
    ),
    pytest.param(
        [*AMBIGUOUS, "--nonerasing-only"],
        0,
        "verdict: unambiguous\nnodes: 3\n",
        '{"verdict": "unambiguous", "witness": null, "nodes": 3}\n',
        "",
        id="nonerasing-only",
    ),
    pytest.param(
        [*AMBIGUOUS, "--nonerasing-only", "--budget", "3"],
        0,
        "verdict: unambiguous\nnodes: 3\n",
        '{"verdict": "unambiguous", "witness": null, "nodes": 3}\n',
        "",
        id="nonerasing-only-budget-3",
    ),
    pytest.param(
        [*AMBIGUOUS, "--budget", "1"],
        3,
        "verdict: budget-exhausted\nnodes: 1\n",
        '{"verdict": "budget-exhausted", "nodes": 1}\n',
        "",
        id="ambiguity-budget-1",
    ),
    pytest.param(
        [*AMBIGUOUS, "--budget", "3"],
        3,
        "verdict: budget-exhausted\nnodes: 3\n",
        '{"verdict": "budget-exhausted", "nodes": 3}\n',
        "",
        id="ambiguity-budget-3",
    ),
    pytest.param(
        ["fixed-point", "--pattern", "1 2 1 2"],
        0,
        "verdict: fixed-point\nmorphism: 1=,2=1 2\nnodes: 4\n",
        '{"verdict": "fixed-point", "morphism": "1=,2=1 2", "nodes": 4}\n',
        "",
        id="fixed-point",
    ),
    pytest.param(
        ["fixed-point", "--pattern", A1],
        1,
        "verdict: not-fixed-point\nnodes: 125\n",
        '{"verdict": "not-fixed-point", "morphism": null, "nodes": 125}\n',
        "",
        id="not-fixed-point",
    ),
    pytest.param(
        ["fixed-point", "--pattern", A0],
        1,
        "verdict: not-fixed-point\nnodes: 34\n",
        '{"verdict": "not-fixed-point", "morphism": null, "nodes": 34}\n',
        "",
        id="running-example-not-fixed-point",
    ),
    pytest.param(
        ["fixed-point", "--pattern", "1 2 1 2", "--budget", "1"],
        3,
        "verdict: budget-exhausted\nnodes: 1\n",
        '{"verdict": "budget-exhausted", "nodes": 1}\n',
        "",
        id="fixed-point-budget-1",
    ),
    pytest.param(
        ["fixed-point", "--pattern", A1, "--budget", "3"],
        3,
        "verdict: budget-exhausted\nnodes: 3\n",
        '{"verdict": "budget-exhausted", "nodes": 3}\n',
        "",
        id="fixed-point-budget-3",
    ),
    pytest.param(
        ["search-sigma-ij", "--pattern", A1],
        0,
        "pair: 1 2\nmorphism: 1=a,2=a,3=c,4=d\n",
        '{"pair": [1, 2], "morphism": "1=a,2=a,3=c,4=d"}\n',
        "",
        id="sigma-ij-found",
    ),
    pytest.param(
        ["search-sigma-ij", "--pattern", A0],
        1,
        "pair: none\n",
        '{"pair": null, "morphism": null}\n',
        "",
        id="sigma-ij-absent",
    ),
    pytest.param(
        ["search-sigma-ij", "--pattern", A1, "--budget", "1"],
        3,
        "",
        "",
        "resource limit: fixed-point check of the pattern exceeded 1 nodes\n",
        id="sigma-ij-budget-1",
    ),
    pytest.param(
        ["search-sigma-ij", "--pattern", A0, "--budget", "3"],
        3,
        "",
        "",
        "resource limit: fixed-point check of the pattern exceeded 3 nodes\n",
        id="sigma-ij-budget-3",
    ),
    pytest.param(
        ["search-uniform", "--pattern", A0, "--alphabet-size", "2"],
        1,
        "morphism: none\n",
        '{"morphism": null}\n',
        "",
        id="uniform-2-absent",
    ),
    pytest.param(
        ["search-uniform", "--pattern", A0, "--alphabet-size", "3"],
        0,
        "morphism: 1=a,2=b,3=c\n",
        '{"morphism": "1=a,2=b,3=c"}\n',
        "",
        id="uniform-3-found",
    ),
    pytest.param(
        ["search-uniform", "--pattern", A0, "--alphabet-size", "3", "--budget", "1"],
        3,
        "",
        "",
        "resource limit: solver run for coloring (0, 0, 0) exceeded 1 nodes\n",
        id="uniform-budget-1",
    ),
    pytest.param(
        ["search-uniform", "--pattern", A0, "--alphabet-size", "2", "--budget", "3"],
        3,
        "",
        "",
        "resource limit: solver run for coloring (0, 0, 0) exceeded 3 nodes\n",
        id="uniform-budget-3",
    ),
]


class TestDecisionOutput:
    @pytest.mark.parametrize("json_flag", [False, True], ids=["human", "json"])
    @pytest.mark.parametrize("argv, code, human, json_line, err", DECISIONS)
    def test_exact_bytes(self, capsys, argv, code, human, json_line, err, json_flag):
        got = run_cli(capsys, *argv, *(["--json"] if json_flag else []))
        assert got == (code, json_line if json_flag else human, err)


class TestGenerate:
    def test_thue(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "thue", "--length", "21")
        assert code == 0
        assert out.strip() == "abcacbabcbacabcacbaca"

    def test_doubled(self, capsys):
        _, out, _ = run_cli(capsys, "generate", "doubled", "--length", "5")
        assert out.strip() == "aabbccaacc"

    def test_alpha_m(self, capsys):
        _, out, _ = run_cli(capsys, "generate", "alpha-m", "--m", "4")
        assert parse_pattern(out.strip()) == parse_pattern("1 1 2 2 3 3 4 4")

    def test_exponent(self, capsys):
        _, out, _ = run_cli(capsys, "generate", "exponent", "--beta", "2 3 2")
        assert parse_pattern(out.strip()) == parse_pattern("1 1 2 2 3 3 3 4 4 4 5 5 6 6")

    def test_exponent_rejects_squares(self, capsys):
        code, _, err = run_cli(capsys, "generate", "exponent", "--beta", "2 2")
        assert code == 2
        assert "square-free" in err

    def test_exponent_rejects_non_integers(self, capsys):
        code, _, err = run_cli(capsys, "generate", "exponent", "--beta", "2 x")
        assert code == 2
        assert "2 x" in err

    def test_shortest_prints_pattern_and_morphism(self, capsys):
        _, out, _ = run_cli(capsys, "generate", "shortest", "--n", "6")
        pattern_line, morphism_line = out.splitlines()
        assert parse_pattern(pattern_line) == parse_pattern("1 2 3 4 5 6 4 1 5 2 6 3")
        assert Morphism.parse(morphism_line) == Morphism.of(
            {1: "a", 2: "a", 3: "a", 4: "b", 5: "b", 6: "b"}
        )

    def test_debruijn_single(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "debruijn", "--k", "3", "--n", "2")
        assert code == 0
        assert out.strip() == "aabacbbcca"

    def test_debruijn_enumerate(self, capsys):
        _, out, _ = run_cli(capsys, "generate", "debruijn", "--k", "2", "--n", "2", "--enumerate")
        words = out.split()
        assert len(words) == 4
        assert words == sorted(words)
        assert words[0] == "aabba"

    def test_debruijn_guard_is_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, "generate", "debruijn", "--k", "3", "--n", "4", "--enumerate"
        )
        assert code == 3
        assert "resource limit" in err

    def test_debruijn_long_single_letter_word(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "debruijn", "--k", "1", "--n", "5000")
        assert code == 0
        assert out == "a" * 5000 + "\n"

    def test_debruijn_word_guard_is_exit_3_before_output(self, capsys):
        code, out, err = run_cli(capsys, "generate", "debruijn", "--k", "2", "--n", "40")
        assert code == 3
        assert out == ""
        assert "resource limit" in err

    def test_single_letter_enumeration_guard_is_exit_3_before_output(self, capsys, monkeypatch):
        def no_walk(*args, **kwargs):
            raise AssertionError("the walk started")

        monkeypatch.setattr(generators, "product", no_walk)
        code, out, err = run_cli(capsys, "generate", "debruijn", "--k", "1", "--n", "100000000", "--enumerate")
        assert code == 3
        assert out == ""
        assert "resource limit" in err

    def test_pi_db_streams_json_items(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "pi-db", "--k", "3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 648
        sample = None
        for line in lines:
            item = json.loads(line)
            assert set(item) == {"pattern", "morphism", "word"}
            if item["pattern"] == "1 1 2 3 4 2 2 4 4 3" and item["word"] == "aabacbbcca":
                sample = item
        assert sample is not None
        morphism = Morphism.parse(sample["morphism"])
        assert morphism.apply(parse_pattern(sample["pattern"])) == sample["word"]

    def test_pi_db_guard(self, capsys):
        code, _, err = run_cli(capsys, "generate", "pi-db", "--k", "5")
        assert code == 3
        assert "resource limit" in err


class TestScan:
    def test_writes_jsonl_and_summarizes(self, capsys, tmp_path):
        out_file = tmp_path / "scan.jsonl"
        code, out, _ = run_cli(
            capsys,
            "scan",
            "--target",
            "theorem7",
            "--max-len",
            "8",
            "--out",
            str(out_file),
        )
        assert code == 0
        assert "records: 105" in out
        assert "findings: 0" in out
        assert "budget-hits: 0" in out
        lines = out_file.read_text().splitlines()
        assert len(lines) == 105
        for line in lines:
            record = ScanRecord.from_json(line)
            assert record.var_count == 4

    def test_conjecture3_output_file_is_pinned(self, capsys, tmp_path):
        # the bytes cli.main writes, not only what to_json returns
        out_file = tmp_path / "c3.jsonl"
        code, out, _ = run_cli(capsys, "scan", "--target", "conjecture3", "--max-len", "8", "--out", str(out_file))
        data = out_file.read_bytes()
        assert code == 0
        assert out == "records: 5040\nfindings: 0\nbudget-hits: 0\n"
        assert (data.count(b"\n"), hashlib.sha256(data).hexdigest()) == SCAN_DIGESTS["conjecture3", DEFAULT_BUDGET]

    @pytest.mark.parametrize(
        "max_len,budget", [("6", []), ("7", ["--budget", "60"])], ids=["default", "budget-60"]
    )
    def test_worker_count_does_not_change_output(self, capsys, tmp_path, max_len, budget):
        # at budget 60 some searches of length 7 run out, and each worker
        # keeps its own verdict cache of the outcomes
        serial, parallel = tmp_path / "serial.jsonl", tmp_path / "parallel.jsonl"
        scan = ["scan", "--target", "conjecture3", "--max-len", max_len, *budget]
        serial_code = run_cli(capsys, *scan, "--out", str(serial))[0]
        parallel_code = run_cli(capsys, *scan, "--out", str(parallel), "--workers", "2")[0]
        assert serial_code == parallel_code == (3 if budget else 0)
        assert serial.read_bytes() == parallel.read_bytes()

    def test_length_guard(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "scan",
            "--target",
            "conjecture2",
            "--max-len",
            "15",
            "--out",
            str(tmp_path / "x.jsonl"),
        )
        assert code == 3
        assert "resource limit" in err

    def test_rejected_scan_leaves_an_existing_output_file_alone(self, capsys, tmp_path):
        out_file = tmp_path / "x.jsonl"
        out_file.write_bytes(b"precious\n")
        code, _, _ = run_cli(
            capsys,
            "scan",
            "--target",
            "conjecture2",
            "--max-len",
            "15",
            "--out",
            str(out_file),
        )
        assert code == 3
        assert out_file.read_bytes() == b"precious\n"

    def test_more_workers_than_cpus_is_usage_error_before_the_output_opens(self, capsys, tmp_path, monkeypatch):
        def no_pool(workers):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(explorer.os, "cpu_count", lambda: 2)
        # the scan imports the pool from multiprocessing when it starts one
        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        out_file = tmp_path / "x.jsonl"
        out_file.write_bytes(b"precious\n")
        code, out, err = run_cli(
            capsys, "scan", "--target", "conjecture3", "--max-len", "6", "--out", str(out_file), "--workers", "3"
        )
        assert (code, out) == (2, "")
        assert err == "error: workers must be <= 2, the CPU count, got 3\n"
        assert out_file.read_bytes() == b"precious\n"

    def test_unknown_target_lists_every_target(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "scan",
            "--target",
            "conjecture4",
            "--max-len",
            "6",
            "--out",
            str(tmp_path / "x.jsonl"),
        )
        assert code == 2
        for target in SCAN_TARGETS:
            assert target in err

    def test_inconsistency_is_exit_4_not_a_finding(self, capsys, tmp_path, monkeypatch):
        def broken_scan(*args, **kwargs):
            # a generator like the real scan, so it raises mid-iteration
            raise InconsistencyError("no pair for 1 2 3 4 1 2 3 4")
            yield

        monkeypatch.setattr(cli, "conjecture_scan", broken_scan)
        code, _, err = run_cli(
            capsys,
            "scan",
            "--target",
            "theorem7",
            "--max-len",
            "8",
            "--out",
            str(tmp_path / "x.jsonl"),
        )
        assert code == 4
        assert "internal inconsistency: no pair for 1 2 3 4 1 2 3 4" in err
        assert "Traceback" not in err


class TestVerify:
    def test_thue_bundle(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "thue", "--m", "4..5")
        assert code == 0
        assert all(line.startswith("ok: ") for line in out.splitlines())

    def test_shortest_bundle(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "shortest", "--n", "2..4")
        assert code == 0
        assert all(line.startswith("ok: ") for line in out.splitlines())

    def test_pair_theorem_bundle(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "pair-theorem", "--max-len", "6")
        assert code == 0
        assert all(line.startswith("ok: ") for line in out.splitlines())

    def test_pi_db_bundle(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "pi-db", "--k", "3")
        assert code == 0
        assert all(line.startswith("ok: ") for line in out.splitlines())

    def test_failing_check_is_exit_1_and_every_line_prints(self, capsys, monkeypatch):
        monkeypatch.setattr(checks, "_ambiguity_verdict", lambda symbols, word, images, budget: True)
        code, out, _ = run_cli(capsys, "verify", "thue", "--m", "4..4")
        assert code == 1
        assert out.splitlines() == [
            "ok: square-free word prefix of length 21",
            "ok: no binary unambiguous 1-uniform morphism for the m=4 squares pattern",
            "ok: square-free morphism at m=4 uses only a, b, c",
            "FAIL: ternary square-free morphism unambiguous at m=4",
        ]

    def test_pair_theorem_solves_each_unordered_pair_once(self, monkeypatch):
        runs = []
        verdict = checks._ambiguity_verdict

        def counted(*args):
            runs.append(args)
            return verdict(*args)

        monkeypatch.setattr(checks, "_ambiguity_verdict", counted)
        ((ok, text),) = checks.pair_theorem_checks(8)
        assert ok and runs
        assert 2 * len(runs) == int(text.split()[0])

    def test_pair_theorem_failure_names_the_first_violation(self, capsys, monkeypatch):
        monkeypatch.setattr(checks, "_ambiguity_verdict", lambda symbols, word, images, budget: True)
        code, out, _ = run_cli(capsys, "verify", "pair-theorem", "--max-len", "6")
        assert code == 1
        assert out == (
            "FAIL: 6 passing pairs across 26 uniform non-fixed-point patterns of length <= 6 "
            "all verify unambiguous (first violation: pattern 1 1 2 2 3 3, pair (1, 3))\n"
        )

    @pytest.mark.parametrize(
        "args, ok_lines",
        [
            (("thue", "--m", "4..4"), 3),
            (("shortest", "--n", "2..2"), 3),
            (("pi-db", "--k", "3"), 4),
            (("pair-theorem", "--max-len", "6"), 0),
        ],
    )
    def test_exhausted_ambiguity_budget_is_exit_3_not_a_failure(self, capsys, monkeypatch, args, ok_lines):
        monkeypatch.setattr(checks, "_ambiguity_verdict", lambda symbols, word, images, budget: None)
        code, out, err = run_cli(capsys, "verify", *args)
        assert code == 3
        lines = out.splitlines()
        assert len(lines) == ok_lines
        assert all(line.startswith("ok: ") for line in lines)
        assert "resource limit: ambiguity check of " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("args", [("shortest", "--n", "2..3"), ("pair-theorem", "--max-len", "6")])
    def test_exhausted_fixed_point_budget_is_exit_3_not_a_verdict(self, capsys, monkeypatch, args):
        monkeypatch.setattr(checks, "fixed_point_verdict", lambda pattern: None)
        code, out, err = run_cli(capsys, "verify", *args)
        assert code == 3
        assert out == ""
        assert "resource limit: fixed-point check of " in err
        assert "Traceback" not in err

    def test_exhausted_budget_after_earlier_checks_keeps_their_lines(self, capsys, monkeypatch):
        # n = 2 is decided; the fixed-point check for n = 3 runs out
        real = checks.fixed_point_verdict
        monkeypatch.setattr(checks, "fixed_point_verdict", lambda p: None if len(p.variables) == 3 else real(p))
        code, out, err = run_cli(capsys, "verify", "shortest", "--n", "2..3")
        assert code == 3
        assert out.splitlines() == [
            "ok: n=2 pattern is not a fixed point",
            "ok: n=2 pattern has 2 variables, each twice",
            "ok: n=2 morphism uses only a, b",
            "ok: n=2 binary morphism unambiguous",
        ]
        assert "resource limit: fixed-point check of " in err

    def test_pair_theorem_beyond_the_enumeration_guard_is_exit_3_up_front(self, capsys, monkeypatch):
        # a sweep that started would enumerate every length up to the guard
        monkeypatch.setattr(checks, "enumerate_canonical_patterns", None)
        code, out, err = run_cli(capsys, "verify", "pair-theorem", "--max-len", "17")
        assert code == 3
        assert out == ""
        assert "resource limit: pattern enumeration supports length <= 16, got 17" in err
        assert "Traceback" not in err

    def test_resource_limit_inside_a_bundle_is_exit_3(self, capsys):
        # the bundle checks k before its first check, while the handler
        # consumes it
        code, _, err = run_cli(capsys, "verify", "pi-db", "--k", "5")
        assert code == 3
        assert "resource limit" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("k", ["2", "4"])
    def test_pi_db_beyond_k_3_is_exit_3_before_listing_the_family(self, capsys, monkeypatch, k):
        # listing the k = 4 family runs for minutes, so it must not start
        def unreachable(k):
            raise AssertionError("debruijn_patterns called")

        monkeypatch.setattr(checks, "debruijn_patterns", unreachable)
        code, out, err = run_cli(capsys, "verify", "pi-db", "--k", k)
        assert code == 3
        assert out == ""
        assert err == f"resource limit: the pi-db bundle supports k = 3 only, got {k}\n"

    @pytest.mark.parametrize("span", ["2..3", "0", "1..5"])
    def test_thue_below_the_statement_range_is_usage_error(self, capsys, span):
        code, out, err = run_cli(capsys, "verify", "thue", "--m", span)
        assert code == 2
        assert out == ""
        assert "m >= 4" in err
        assert "Traceback" not in err

    def test_thue_at_the_least_m_holds(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "thue", "--m", "4..4")
        assert code == 0
        assert len(out.splitlines()) == 4
        assert all(line.startswith("ok: ") for line in out.splitlines())

    def test_bad_span_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "thue", "--m", "6..4")
        assert code == 2
        assert "6..4" in err


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_missing_required_flag(self, capsys):
        code, _, _ = run_cli(capsys, "fixed-point")
        assert code == 2

    def test_bad_pattern_token_named_without_traceback(self, capsys):
        code, _, err = run_cli(capsys, "fixed-point", "--pattern", "1 oops 2")
        assert code == 2
        assert "oops" in err
        assert "Traceback" not in err

    def test_bad_morphism(self, capsys):
        code, _, err = run_cli(
            capsys, "check-ambiguity", "--pattern", "1 2", "--morphism", "1=a,1=b"
        )
        assert code == 2
        assert "1" in err

    def test_uncovered_variable(self, capsys):
        code, _, err = run_cli(
            capsys, "check-ambiguity", "--pattern", "1 2", "--morphism", "1=a"
        )
        assert code == 2
        assert "2" in err

    def test_zero_budget_rejected_at_parse_time(self, capsys):
        code, _, _ = run_cli(
            capsys, "fixed-point", "--pattern", "1 1", "--budget", "0"
        )
        assert code == 2


LONG = " ".join(str(1 + i % 7) for i in range(1200))


class TestLongPatterns:
    # far longer than the interpreter's recursion limit: the search keeps its
    # choice points on an explicit stack, so each command reaches a verdict
    def test_fixed_point_gives_a_nontrivial_substitution(self, capsys):
        code, out, err = run_cli(capsys, "fixed-point", "--pattern", LONG)
        assert code == 0
        assert "verdict: fixed-point" in out
        assert "nodes: 1046" in out
        phi = Substitution.parse(out.split("morphism: ", 1)[1].splitlines()[0])
        pattern = parse_pattern(LONG)
        assert phi.apply(pattern) == pattern
        assert any(phi[v] != Pattern((v,)) for v in pattern.variables)
        assert err == ""

    def test_check_ambiguity_gives_a_witness(self, capsys):
        sigma = Morphism.parse("1=a,2=b,3=c,4=a,5=b,6=c,7=a")
        code, out, err = run_cli(
            capsys, "check-ambiguity", "--pattern", LONG, "--morphism", str(sigma)
        )
        assert code == 1
        assert "verdict: ambiguous" in out
        tau = Morphism.parse(out.split("witness: ", 1)[1].splitlines()[0])
        pattern = parse_pattern(LONG)
        assert tau.apply(pattern) == sigma.apply(pattern)
        assert tau != sigma
        assert err == ""

    def test_search_uniform_finds_no_binary_morphism(self, capsys):
        code, out, err = run_cli(capsys, "search-uniform", "--pattern", LONG, "--alphabet-size", "2")
        assert code == 1
        assert out == "morphism: none\n"
        assert err == ""


def _checkout_env():
    """Environment whose PYTHONPATH starts with the directory this process
    imported ``unambig`` from, so a child interpreter runs the same code
    whatever its working directory."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(unambig.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


HARD_PATTERN = "1 1 2 3 4 5 6 7 8 9 6 2 7 3 8 4 9 5"
C3 = "scan --target conjecture3 --max-len 8"

# The runs the console-script CI job makes with the installed `unambig`: the
# argv, the exact exit code, and the records and sha256 of the scan's --out
# file or the exact stdout.  A two-worker scan runs the pool, which the
# package imports only when a scan starts one, to its one-worker bytes.
PINNED_RUNS = {
    "conjecture3": (C3, 0, SCAN_DIGESTS["conjecture3", DEFAULT_BUDGET]),
    "conjecture3-workers-2": (f"{C3} --workers 2", 0, SCAN_DIGESTS["conjecture3", DEFAULT_BUDGET]),
    "conjecture1": ("scan --target conjecture1 --max-len 8", 0, SCAN_DIGESTS["conjecture1", DEFAULT_BUDGET]),
    "conjecture1-workers-2": (
        "scan --target conjecture1 --max-len 8 --workers 2",
        0,
        SCAN_DIGESTS["conjecture1", DEFAULT_BUDGET],
    ),
    "conjecture2": ("scan --target conjecture2 --max-len 8", 0, SCAN_DIGESTS["conjecture2", DEFAULT_BUDGET]),
    "conjecture2-9": ("scan --target conjecture2 --max-len 9", 0, LONGER_SCAN_DIGESTS["conjecture2", 9]),
    "theorem7-10": ("scan --target theorem7 --max-len 10", 0, LONGER_SCAN_DIGESTS["theorem7", 10]),
    "conjecture3-60": (f"{C3} --budget 60", 3, SCAN_DIGESTS["conjecture3", 60]),
    "conjecture3-60-workers-2": (f"{C3} --budget 60 --workers 2", 3, SCAN_DIGESTS["conjecture3", 60]),
    "theorem7-60": ("scan --target theorem7 --max-len 8 --budget 60", 3, SCAN_DIGESTS["theorem7", 60]),
    "pair-theorem": (
        "verify pair-theorem --max-len 10",
        0,
        "ok: 4380 passing pairs across 1122 uniform non-fixed-point patterns of length <= 10 all verify unambiguous\n",
    ),
    "fixed-point": (
        'fixed-point --pattern "7 3 7 3 9 9 7 3 7 3" --json',
        0,
        '{"verdict": "fixed-point", "morphism": "3=7 3,7=,9=9", "nodes": 12}\n',
    ),
    "not-fixed-point": (
        f'fixed-point --pattern "{HARD_PATTERN}" --json',
        1,
        '{"verdict": "not-fixed-point", "morphism": null, "nodes": 68076}\n',
    ),
    "unambiguous": (
        f'check-ambiguity --pattern "{HARD_PATTERN}" --morphism "1=a,2=a,3=a,4=a,5=a,6=b,7=b,8=b,9=b" --json',
        0,
        '{"verdict": "unambiguous", "witness": null, "nodes": 87379}\n',
    ),
    "census": (
        "census --length 8 --min-vars 4",
        0,
        "length 8: 2978 fixed points (no unambiguous 1-uniform morphism)\n"
        "vars least_k patterns\n"
        "   4       2       33\n"
        "   4       3       35\n",
    ),
    # the counted walk on the spelt key, below a covering budget
    "fixed-point-budget": (
        f'fixed-point --pattern "{HARD_PATTERN}" --budget 100 --json',
        3,
        '{"verdict": "budget-exhausted", "nodes": 100}\n',
    ),
}


class TestConsoleScript:
    # `python -m unambig` runs cli.run() from the checkout, so every Tier-1
    # run proves each pinned run; the installed console script runs them too
    # wherever one is on PATH.
    @pytest.mark.parametrize("runner", ["checkout", "installed"])
    @pytest.mark.parametrize("args,code,expected", PINNED_RUNS.values(), ids=PINNED_RUNS)
    def test_pinned_run(self, tmp_path, runner, args, code, expected):
        if runner == "checkout":
            command = [sys.executable, "-m", "unambig"]
        elif shutil.which("unambig"):
            command = [shutil.which("unambig")]
        else:
            pytest.skip("no unambig console script on PATH")
        argv = shlex.split(args)
        out_file = tmp_path / "out.jsonl"
        if argv[0] == "scan":
            argv += ["--out", str(out_file)]
        proc = subprocess.run(command + argv, capture_output=True, text=True, env=_checkout_env())
        if argv[0] == "scan":
            data = out_file.read_bytes()
            out = (data.count(b"\n"), hashlib.sha256(data).hexdigest())
        else:
            out = proc.stdout
        assert (proc.returncode, out, proc.stderr) == (code, expected, "")

    def test_every_scan_target_has_a_default_budget_run(self):
        # so the console-script job scans every target through the script
        targets = set()
        for args, _, _ in PINNED_RUNS.values():
            argv = shlex.split(args)
            if argv[0] == "scan" and "--budget" not in argv:
                targets.add(argv[argv.index("--target") + 1])
        assert sorted(targets) == sorted(SCAN_TARGETS)

    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-c", "from unambig.cli import run; run()", "generate", "thue", "--length", "3"],
            capture_output=True,
            text=True,
            env=_checkout_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "abc"

    def test_importing_the_package_loads_no_worker_pool(self):
        # multiprocessing is imported only by a scan with more than one worker
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, unambig, unambig.cli; print('multiprocessing' in sys.modules)"],
            capture_output=True,
            text=True,
            env=_checkout_env(),
        )
        assert (proc.returncode, proc.stdout) == (0, "False\n")

    def test_closed_pipe_is_quiet(self):
        # `python -m unambig` runs cli.run(), the function the `unambig`
        # console script names, without needing the package installed
        unambig_cmd = shlex.quote(sys.executable) + " -m unambig"
        script = f"{unambig_cmd} generate pi-db --k 3 | head -n 1"
        proc = subprocess.run(["sh", "-c", script], capture_output=True, text=True, env=_checkout_env())
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        json.loads(proc.stdout)


CENSUS_TABLES = [
    pytest.param(
        ["--length", "6"],
        "length 6: 171 fixed points (no unambiguous 1-uniform morphism)",
        [["1", "1", "1"], ["2", "2", "21"], ["3", "2", "6"], ["3", "3", "4"]],
        id="length-6",
    ),
    pytest.param(
        ["--length", "8", "--min-vars", "4"],
        "length 8: 2978 fixed points (no unambiguous 1-uniform morphism)",
        [["4", "2", "33"], ["4", "3", "35"]],
        id="length-8-min-vars-4",
    ),
]


# sha256 of the --jsonl file of `census --length 8 --min-vars 4`
CENSUS_8_JSONL_SHA256 = "d5b23b520efe9a3bff3c8781bef0aa3f92d8b399d10a1050a087f3351a7dcfc2"


class TestCensus:
    @pytest.mark.parametrize("argv, header, rows", CENSUS_TABLES)
    def test_table(self, capsys, argv, header, rows):
        code, out, err = run_cli(capsys, "census", *argv)
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0] == header
        assert [line.split() for line in lines[1:]] == [["vars", "least_k", "patterns"], *rows]

    def test_jsonl_agrees_with_the_table(self, capsys, tmp_path):
        out_file = tmp_path / "census.jsonl"
        code, out, _ = run_cli(capsys, "census", "--length", "6", "--jsonl", str(out_file))
        assert code == 0
        records = [json.loads(line) for line in out_file.read_text().splitlines()]
        table = {(int(n), int(k)): int(count) for n, k, count in map(str.split, out.splitlines()[2:])}
        tally: dict[tuple[int, int], int] = {}
        for record in records:
            assert record["vars"] == len(parse_pattern(record["pattern"]).variables)
            key = (record["vars"], record["least_k"])
            tally[key] = tally.get(key, 0) + 1
        assert tally == table
        assert len({record["pattern"] for record in records}) == len(records) == 32

    def test_each_pattern_is_asked_once(self, capsys, monkeypatch, tmp_path):
        # one fixed-point ask per pattern: the least-alphabet loop asks none,
        # and the table and the JSONL bytes are what they were
        asks = []
        verdict = cli.fixed_point_verdict

        def counted(pattern, **kwargs):
            asks.append(pattern)
            return verdict(pattern, **kwargs)

        for module in (cli, explorer):
            monkeypatch.setattr(module, "fixed_point_verdict", counted)
        out_file = tmp_path / "census.jsonl"
        code, out, _ = run_cli(capsys, "census", "--length", "8", "--min-vars", "4", "--jsonl", str(out_file))
        assert (code, out) == PINNED_RUNS["census"][1:]
        assert asks == list(explorer.enumerate_canonical_patterns(8, min_vars=4))
        assert len(asks) == 2978 + 68
        data = out_file.read_bytes()
        assert (data.count(b"\n"), hashlib.sha256(data).hexdigest()) == (68, CENSUS_8_JSONL_SHA256)

    def test_full_alphabet_from_4_variables_is_exit_1(self, capsys, monkeypatch):
        # pretend only the full alphabet ever works
        monkeypatch.setattr(cli, "_least_alphabet", lambda symbols, top, budget: top)
        code, out, err = run_cli(capsys, "census", "--length", "8", "--min-vars", "4")
        assert code == 1, err
        lines = out.splitlines()
        assert [line.split() for line in lines[1:3]] == [["vars", "least_k", "patterns"], ["4", "4", "68"]]
        flagged = lines[3:]
        assert len(flagged) == 68
        assert all(line.startswith("ATTENTION: needs the full alphabet despite >= 4 variables: ") for line in flagged)

    def test_inconsistency_is_exit_4(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_least_alphabet", lambda *a: None)
        code, _, err = run_cli(capsys, "census", "--length", "3")
        assert code == 4
        assert "internal inconsistency: renaming must be unambiguous" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv", [["--budget", "0"], ["--min-vars", "0"], ["--length", "-1"]], ids=["budget", "min-vars", "length"]
    )
    def test_bad_argument_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "census", "--length", "6", *argv)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err

    def test_length_beyond_the_guard_leaves_an_existing_jsonl_alone(self, capsys, tmp_path):
        out_file = tmp_path / "x.jsonl"
        out_file.write_bytes(b"precious\n")
        code, out, err = run_cli(capsys, "census", "--length", "17", "--jsonl", str(out_file))
        assert code == 3
        assert out == ""
        assert "resource limit" in err
        assert "Traceback" not in err
        assert out_file.read_bytes() == b"precious\n"

    def test_length_0_prints_the_empty_table(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--length", "0")
        assert code == 0
        assert out == (
            "length 0: 0 fixed points (no unambiguous 1-uniform morphism)\n"
            "vars least_k patterns\n"
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--target", "conjecture1", "--max-len", "5", "--out"],
        ["census", "--length", "5", "--jsonl"],
    ],
    ids=["scan", "census"],
)
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_output_is_usage_error(capsys, tmp_path, argv, where):
    path = tmp_path / "missing" / "x.jsonl" if where == "missing-directory" else tmp_path
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in err
