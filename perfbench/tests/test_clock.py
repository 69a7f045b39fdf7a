"""The conversion of CPU time to reference-host seconds (child.Clock).

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from child import REFERENCE_CHUNK_S, Clock  # noqa: E402


def clock_with(readings: list[float], chunk_s: list[float]) -> Clock:
    clock = Clock(chunk=lambda: None)
    clock.readings, clock.chunk_s = readings, chunk_s
    return clock


def test_a_stretch_converts_at_the_mean_speed_of_its_two_calibrations():
    ref = REFERENCE_CHUNK_S
    clock = clock_with([0.0, 1.0, 3.0], [ref, ref, 2 * ref])
    assert clock.scaled(0.25, 0.75) == pytest.approx(0.5)
    assert clock.scaled(1.5, 2.5) == pytest.approx(1.0 * 2 / 3)
    # a stretch across a calibration converts each part at its own speed
    assert clock.scaled(0.5, 2.0) == pytest.approx(0.5 + 1.0 * 2 / 3)
    assert clock.scaled(0.0, 3.0) == pytest.approx(1.0 + 2.0 * 2 / 3)


def test_calibration_pauses_are_left_out_of_the_clock():
    clock = Clock(chunk=lambda: sum(range(200_000)))
    before = clock.now()
    clock.calibrate()
    assert clock.now() - before < clock.chunk_s[-1]
    assert clock.readings == sorted(clock.readings) and len(clock.readings) == 2
