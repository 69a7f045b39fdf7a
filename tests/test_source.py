import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for tree in ("src", "tests", "perfbench") for path in ROOT.glob(f"{tree}/**/*.py"))


def python_floor():
    """The least Python version that pyproject.toml's requires-python names."""
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_source_parses_at_the_python_floor(path):
    # CI's matrix starts at the floor, but the suite may run on a newer
    # interpreter only; syntax newer than the floor fails here too
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=python_floor())
