"""The README's Python quick start runs as written, and its estimator table is the registry."""

import re
from pathlib import Path

import pytest

from opekit.estimators import ESTIMATORS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[2]) == pytest.approx(0.26, rel=1e-12)
    assert float(lines[3]) == pytest.approx(0.0324, rel=1e-10)


def test_estimator_table_lists_the_registry():
    rows = re.findall(r"^\| `([a-z-]+)` +\| (\w+) +\|", README.read_text(encoding="utf-8"), re.M)
    assert rows == [(name, entry.kind) for name, entry in ESTIMATORS.items()]
