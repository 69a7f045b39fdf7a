"""One repetition of one workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  It imports unambig from
the checkout's ``src/`` (and refuses to run if the import resolves anywhere
else), reports when set-up ended, runs the workload's fixed input once, checks
every output against the stored reference and prints one JSON object as its
last line of standard output.  A fresh interpreter per repetition means the
solver's process-global fixed-point memo starts empty, as it does for every
``unambig scan`` a user starts; the memo itself is never read or cleared.

Times are this process's CPU time converted to reference-host seconds by a
``Clock``: the workload is single-threaded and compute-bound, so its CPU time
is its wall time less any time the process waited for a core.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
from bisect import bisect_right
from pathlib import Path
from time import process_time

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# Workload sizes.  "full" is what the benchmark measures; "tiny" exists for
# the smoke test.  deep-decisions lists its ladders: (family, parameter).
SIZES = {
    "full": {
        "scan-billaud": 8,
        "scan-pairs": 10,
        "uniform-sweep": 7,
        "deep-decisions": [("shortest", n) for n in (9, 10)] + [("thue", m) for m in range(10, 17)],
    },
    "tiny": {
        "scan-billaud": 6,
        "scan-pairs": 8,
        "uniform-sweep": 5,
        "deep-decisions": [("shortest", n) for n in (4, 5, 6)] + [("thue", m) for m in range(4, 9)],
    },
}
SCAN_TARGETS = {"scan-billaud": "conjecture3", "scan-pairs": "theorem7"}
WORKLOADS = ("scan-billaud", "scan-pairs", "uniform-sweep", "deep-decisions")

# The calibration chunk grows this many square-free words; it took
# REFERENCE_CHUNK_S of CPU time at the fastest this benchmark's 2-core shared
# host ran it (Python 3.11).  Work between items is calibrated at least every
# CALIBRATE_EVERY_S of CPU time.
CHUNK_WORDS = 200
REFERENCE_CHUNK_S = 0.0042
CALIBRATE_EVERY_S = 0.05


def calibration_chunk() -> None:
    """Fixed pure-Python work that never touches unambig.

    It grows square-free words over three letters depth first: the tuple
    slicing and comparison that the solver's own time is made of.
    """
    stack: list[tuple[int, ...]] = [()]
    for _ in range(CHUNK_WORDS):
        word = stack.pop()
        for letter in (0, 1, 2):
            grown = word + (letter,)
            n = len(grown)
            if all(grown[n - h :] != grown[n - 2 * h : n - h] for h in range(1, n // 2 + 1)):
                stack.append(grown)


class Clock:
    """CPU time of this process without calibration pauses, and its conversion
    to reference-host seconds.

    A shared host's speed drifts by up to 2x in phases of seconds to minutes,
    so a raw time measures the neighbours as much as the program.  The clock
    times ``calibration_chunk`` when it is made, whenever ``tick`` finds
    CALIBRATE_EVERY_S of work since the last calibration, and when the work ends.
    ``scaled`` converts a stretch of work between two calibrations at
    REFERENCE_CHUNK_S over the mean of their two chunk times: the seconds it
    would have taken at the speed at which the chunk takes REFERENCE_CHUNK_S.
    Callers tick only between items, so an item never spans a calibration.
    """

    def __init__(self, chunk=calibration_chunk) -> None:
        self.chunk = chunk
        self.paused = 0.0
        self.readings: list[float] = []  # now() at each calibration
        self.chunk_s: list[float] = []  # CPU time of each calibration's chunk
        self.calibrate()

    def now(self) -> float:
        return process_time() - self.paused

    def calibrate(self) -> None:
        start = process_time()
        self.chunk()
        end = process_time()
        self.readings.append(start - self.paused)
        self.chunk_s.append(end - start)
        self.paused += end - start

    def tick(self) -> None:
        if self.now() - self.readings[-1] >= CALIBRATE_EVERY_S:
            self.calibrate()

    def scaled(self, start: float, end: float) -> float:
        """Reference-host seconds of the work done between two readings of now()."""
        total = 0.0
        i = max(0, bisect_right(self.readings, start) - 1)
        while i + 1 < len(self.readings) and self.readings[i] < end:
            covered = min(end, self.readings[i + 1]) - max(start, self.readings[i])
            if covered > 0:
                total += covered * 2 * REFERENCE_CHUNK_S / (self.chunk_s[i] + self.chunk_s[i + 1])
            i += 1
        return total


class IsolationError(Exception):
    pass


def import_from_checkout():
    """Import unambig from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import unambig
    except ImportError as exc:
        raise IsolationError(f"cannot import unambig from {SRC}: {exc}") from None
    where = Path(unambig.__file__).resolve().parent
    if where != SRC / "unambig":
        raise IsolationError(f"unambig was imported from {where}, not from {SRC / 'unambig'}")
    from unambig import cli, explorer, generators, solver

    return cli, explorer, generators, solver


def renaming(rng: random.Random, variables) -> dict[int, int]:
    """An injective renaming of the given variables, drawn from the seed."""
    ordered = sorted(variables)
    return dict(zip(ordered, rng.sample(range(1, 10 * len(ordered) + 1), len(ordered))))


def morphism_key(images, back: dict[int, int]) -> str:
    """A morphism over renamed variables, written over the original ones."""
    return ",".join(f"{v}={img}" for v, img in sorted((back[v], img) for v, img in images))


class Outcome:
    def __init__(self) -> None:
        self.spans: list[tuple[float, float]] = []  # each item's (start, end) on the clock
        self.attempted = 0
        self.failed = 0
        self.verdicts: dict = {}
        self.end = 0.0  # the clock when the work ended, before any checking


def run_scan(mods, clock: Clock, target: str, max_len: int, expected: dict | None) -> Outcome:
    cli = mods[0]
    out = Outcome()
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{target}-{os.getpid()}.jsonl"
    scan = cli.conjecture_scan
    start = [0.0]

    def stamped(*args, **kwargs):
        # An item runs from the end of the previous one (or the start of the
        # scan) until cli.main has written its record.
        for record in scan(*args, **kwargs):
            yield record
            out.spans.append((start[0], clock.now()))
            clock.tick()
            start[0] = clock.now()

    cli.conjecture_scan = stamped
    argv = ["scan", "--target", target, "--max-len", str(max_len), "--workers", "1", "--out", str(path)]
    start[0] = clock.now()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:  # a crash fails every record of the scan
        print(f"scan raised {type(exc).__name__}: {exc}", file=sys.stderr)
        code = None
    finally:
        out.end = clock.now()
        cli.conjecture_scan = scan
    data = path.read_bytes() if path.exists() else b""
    path.unlink(missing_ok=True)
    out.verdicts = {"digest": hashlib.sha256(data).hexdigest(), "records": data.count(b"\n")}
    out.attempted = expected["records"] if expected else len(out.spans)
    if expected is not None and (code != 0 or out.verdicts != expected):
        out.failed = out.attempted
    return out


def run_uniform_sweep(mods, clock: Clock, length: int, seed: int, expected: dict | None) -> Outcome:
    _cli, explorer, _generators, _solver = mods
    rng = random.Random(seed)
    out = Outcome()
    items = []
    for pattern in explorer.enumerate_canonical_patterns(length):
        names = renaming(rng, pattern.variables)
        renamed = type(pattern)(tuple(names[s] for s in pattern.symbols))
        back = {new: old for old, new in names.items()}
        for k in range(1, len(pattern.variables) + 1):
            items.append((f"{pattern}|{k}", renamed, k, back))
    rng.shuffle(items)
    results = []
    for key, pattern, k, back in items:
        start = clock.now()
        try:
            found = explorer.search_1uniform(pattern, k)
        except Exception as exc:
            found = exc
        out.spans.append((start, clock.now()))
        results.append((key, found, back))
        clock.tick()
    out.end = clock.now()
    for key, found, back in results:
        if isinstance(found, Exception):
            verdict = f"error: {type(found).__name__}"
        else:
            verdict = None if found is None else morphism_key(found.images, back)
        out.verdicts[key] = verdict
        out.attempted += 1
        if expected is not None and (isinstance(found, Exception) or expected.get(key, "?") != verdict):
            out.failed += 1
    return out


def deep_items(mods, ladder, seed: int):
    """The ladder's decisions, renamed and shuffled by the seed."""
    _cli, _explorer, generators, _solver = mods
    rng = random.Random(seed)
    items = []
    for family, size in ladder:
        if family == "shortest":
            pattern, sigma = generators.shortest_non_fixed_point(size)
            decisions = (("fixed-point", None), ("ambiguity", sigma))
        else:
            pattern = generators.squares_pattern(size)
            decisions = (("ambiguity", generators.thue_morphism(size)),)
        names = renaming(rng, pattern.variables)
        renamed = type(pattern)(tuple(names[s] for s in pattern.symbols))
        for question, sigma in decisions:
            if sigma is not None:
                sigma = type(sigma).of({names[v]: img for v, img in sigma.images})
            items.append((f"{family}:{size}:{question}", renamed, sigma))
    rng.shuffle(items)
    return items


def run_deep_decisions(mods, clock: Clock, ladder, seed: int, expected: dict | None) -> Outcome:
    solver = mods[3]
    out = Outcome()
    results = []
    for key, pattern, sigma in deep_items(mods, ladder, seed):
        start = clock.now()
        try:
            if sigma is None:
                verdict = solver.is_fixed_point(pattern)
            else:
                verdict = solver.is_ambiguous(sigma, pattern)
        except Exception as exc:
            verdict = exc
        out.spans.append((start, clock.now()))
        results.append((key, verdict))
        clock.tick()
    out.end = clock.now()
    for key, verdict in results:
        name = type(verdict).__name__
        out.verdicts[key] = name
        out.attempted += 1
        if expected is not None and (
            isinstance(verdict, Exception) or name == "BudgetExhausted" or expected.get(key) != name
        ):
            out.failed += 1
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=sorted(SIZES), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, help="verdicts to check against; omitted when recording them")
    parser.add_argument("--setup-only", action="store_true", help="exit once set-up is done")
    args = parser.parse_args()
    try:
        mods = import_from_checkout()
    except IsolationError as exc:
        print(f"refusing to run: {exc}", file=sys.stderr)
        return 2
    # CPU time since the process was created: interpreter start, imports and
    # argument parsing, converted at the speed of the first calibration.
    setup_cpu_s = process_time()
    clock = Clock()
    result: dict = {"setup_s": setup_cpu_s * REFERENCE_CHUNK_S / clock.chunk_s[0]}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    expected = None
    if args.reference is not None:
        expected = json.loads(args.reference.read_text())[args.scale][args.workload]["verdicts"]
    recorder = None
    if args.trace:
        from spans import Recorder

        recorder = Recorder(clock)
        recorder.install()
    size = SIZES[args.scale][args.workload]
    start = clock.now()
    if args.workload in SCAN_TARGETS:
        out = run_scan(mods, clock, SCAN_TARGETS[args.workload], size, expected)
    elif args.workload == "uniform-sweep":
        out = run_uniform_sweep(mods, clock, size, args.seed, expected)
    else:
        out = run_deep_decisions(mods, clock, size, args.seed, expected)
    clock.calibrate()  # closes the last stretch of work
    result.update(
        wall_s=clock.scaled(start, out.end),
        cpu_s=out.end - start,
        attempted=out.attempted,
        failed=out.failed,
        latencies=[clock.scaled(a, b) for a, b in out.spans],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if recorder is not None:
        result["layers"] = recorder.layer_metrics()
        OUT_DIR.mkdir(exist_ok=True)
        recorder.write(OUT_DIR / f"{args.workload}-seed{args.seed}.spans.csv")
    if expected is None:
        result["verdicts"] = out.verdicts
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
