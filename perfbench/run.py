"""Benchmark of the unambig package: one workload per run, repeated for --seconds.

Run from the repository root:

    python3 perfbench/run.py --workload scan-billaud --seed 1 --seconds 30 --trace 0

Workloads (each single-process, one worker):

  scan-billaud    `unambig scan --target conjecture3` through cli.main, JSONL
                  writing included; most fixed-point calls repeat a canonical
                  form already asked, so it stresses the memo's hit path.
  scan-pairs      `unambig scan --target theorem7`: search_sigma_ij, the
                  image-fixed-point filter, the pair condition and solver calls
                  that miss the memo.
  uniform-sweep   search_1uniform(p, k) for every k in 1..|var(p)| on every
                  canonical pattern p of one length; never calls
                  is_fixed_point, so it bypasses the memo, and is almost all
                  wasted is_ambiguous searches.
  deep-decisions  long single decisions on generator families (shortest
                  non-fixed-point patterns, the Thue morphism on squares
                  patterns) at depth 18 to 32, with no memo reuse.

The two scans are exhaustive CLI scopes and take no seed.  For uniform-sweep
and deep-decisions the seed renames variables injectively and shuffles the
order of the items; verdicts and node totals do not depend on it.

Each repetition runs in a fresh interpreter (child.py), so the process-global
fixed-point memo starts empty as it does for every scan a user starts.
Repetitions continue while the next one is expected to end within --seconds.

Every time is in reference-host seconds: the child's CPU time, converted at
the speed at which a fixed calibration chunk, timed between items about every
50 ms, runs on the host this benchmark was defined on (child.Clock).  The
shared host's own speed drifts by up to 2x for minutes at a time, which raw
times cannot tell from a change in the program; the raw CPU time is printed
on a note line beside the result.

With --trace 0 the run reports the end-to-end metrics: medians over the
repetitions of wall time and of peak memory, the rate that wall time gives,
percentiles over the items of each item's median time, and the median
set-up time over SETUP_PROBES set-up-only interpreters and the repetitions.  With
--trace 1 it alternates untraced and traced repetitions and reports the
per-layer metrics of the traced one with the median wall time (spans.py),
plus the tracing overhead.  Every output is
checked against reference.json, taken from the package at the commit that
introduced the benchmark; `--record-reference` writes that file again.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is non-zero, and no result is
printed, when a repetition cannot run at all (for instance when unambig
cannot be imported from the checkout's src/).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
WORKLOADS = ("scan-billaud", "scan-pairs", "uniform-sweep", "deep-decisions")
SCALES = ("full", "tiny")
SETUP_PROBES = 15
RUN_LIMIT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p99": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class ChildError(Exception):
    pass


class Runner:
    """Starts child.py repetitions and keeps the whole run under RUN_LIMIT_S."""

    def __init__(self, workload: str, seed: int, scale: str, reference: Path | None) -> None:
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.reference = reference
        self.started = time.monotonic()

    def child(self, *, trace: bool = False, setup_only: bool = False) -> dict:
        cmd = [
            sys.executable,
            str(BENCH_DIR / "child.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--scale", self.scale,
            "--trace", str(int(trace)),
        ]
        if self.reference is not None:
            cmd += ["--reference", str(self.reference)]
        if setup_only:
            cmd.append("--setup-only")
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise ChildError(f"a repetition of {self.workload} ran past {RUN_LIMIT_S} s") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildError(f"a repetition of {self.workload} exited with code {proc.returncode}")
        return json.loads(lines[-1])


def percentile(values: list[float], p: int) -> float:
    """The p-th percentile, interpolated between samples, never beyond the largest."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def median_rep(reps: list[dict]) -> dict:
    """The repetition with the median wall time (the lower one of an even count)."""
    return sorted(reps, key=lambda r: r["wall_s"])[(len(reps) - 1) // 2]


def measure(args: argparse.Namespace, workload: str) -> tuple[dict, list[str]]:
    runner = Runner(workload, args.seed, args.scale, args.reference)
    setups = [] if args.trace else [runner.child(setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    while True:
        plain.append(runner.child())
        if args.trace:
            traced.append(runner.child(trace=True))
        elapsed = time.monotonic() - start
        if elapsed * (len(plain) + 1) / len(plain) > args.seconds:
            break
    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    wall_s = statistics.median(r["wall_s"] for r in plain)
    cpu_s = statistics.median(r["cpu_s"] for r in plain)
    notes = [
        f"{workload} (scale {args.scale}, seed {args.seed}): {len(plain)} untraced and "
        f"{len(traced)} traced repetitions, {len(setups)} set-up probes",
        f"failed_share {failed / attempted!r} ratio ({failed} of {attempted} items)",
        f"raw CPU wall {cpu_s!r} s (median; the host ran at {wall_s / cpu_s:.2f} of reference speed)",
    ]
    if args.trace:
        metrics = dict(median_rep(traced)["layers"])
        metrics["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - wall_s
        units = {name: layer_unit(name) for name in metrics}
        if args.reference is not None:
            nodes = json.loads(args.reference.read_text())[args.scale][workload]["nodes"]
            seen = {name: metrics[name] for name in nodes}
            state = "match" if seen == nodes else f"differ from the reference {nodes}"
            notes.append(f"node totals {seen} {state} (reported, not checked)")
    else:
        # every repetition of a run does the same items in the same order
        items = [statistics.median(times) for times in zip(*(r["latencies"] for r in plain))]
        metrics = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in plain]),
            "wall_s": wall_s,
            "items_per_s": len(items) / wall_s,
            "item_ms_p50": 1000 * statistics.median(items),
            "item_ms_p99": 1000 * percentile(items, 99),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        units = END_TO_END_UNITS
        notes.append(f"item latencies: each of {len(items)} items' median time over {len(plain)} repetitions")
    notes += [f"{name} {value!r} {units[name]}" for name, value in metrics.items()]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, notes


def record_reference() -> None:
    """Write reference.json from one traced repetition of every workload and scale."""
    reference: dict = {}
    for scale in SCALES:
        for workload in WORKLOADS:
            rep = Runner(workload, 1, scale, None).child(trace=True)
            reference.setdefault(scale, {})[workload] = {
                "verdicts": rep["verdicts"],
                "nodes": {
                    name: rep["layers"][name]
                    for name in ("solver.is_fixed_point.first_nodes", "solver.is_ambiguous.nodes")
                },
            }
            print(f"recorded {scale} {workload}: {rep['attempted']} items", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), help="all: each workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full", help="tiny sizes are for the smoke test")
    parser.add_argument("--reference", type=Path, default=REFERENCE, help="verdicts to check against")
    parser.add_argument("--record-reference", action="store_true", help="rewrite reference.json and exit")
    args = parser.parse_args()
    try:
        if args.record_reference:
            record_reference()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            result, notes = measure(args, workload)
            for line in notes:
                print(line)
            print(json.dumps(result), flush=True)
    except ChildError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
