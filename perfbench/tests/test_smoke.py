"""Smoke test of the benchmark itself, at the tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NODE_METRICS = ("solver.is_fixed_point.first_nodes", "solver.is_ambiguous.nodes")


def bench(workload: str, *, trace: int = 0, seed: int = 1, reference: Path | None = None, root: Path = ROOT):
    cmd = [
        sys.executable,
        str(root / "perfbench" / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", "1",
        "--trace", str(trace),
        "--scale", "tiny",
    ]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc) -> tuple[dict, list[str]]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result, notes = result_of(bench(workload, trace=trace))
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert any(line.startswith("failed_share 0.0 ratio") for line in notes)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_fails_every_item(workload, tmp_path):
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    verdicts = reference["tiny"][workload]["verdicts"]
    for key in verdicts:
        if key != "records":  # a scan's verdict is its JSONL digest plus its record count
            verdicts[key] = "corrupted"
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    result, notes = result_of(bench(workload, reference=path))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert any(line.startswith("failed_share 1.0 ratio") for line in notes)


@pytest.mark.parametrize("workload", ["uniform-sweep", "deep-decisions"])
def test_seeds_give_the_same_verdicts_and_node_totals(workload):
    totals = []
    for seed in (2, 3):
        result, _ = result_of(bench(workload, trace=1, seed=seed))
        assert result["failed"] == 0
        totals.append({name: result["metrics"][name]["value"] for name in NODE_METRICS})
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    assert totals[0] == totals[1] == reference["tiny"][workload]["nodes"]


def test_refuses_to_run_without_the_checkout_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
