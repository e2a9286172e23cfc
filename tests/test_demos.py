"""The quick demos and the README's library tour match the current library API."""

import importlib
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("name", ["01_ctc_basics.py", "02_downsampling.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_library_tour_names_resolve():
    tour = (ROOT / "README.md").read_text().split("## Library tour", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(wordctc\.\w+)` +\|(.*)\|$", tour, re.M)
    assert len(rows) == 8
    stale = [(module, name) for module, text in rows for name in re.findall(r"`(\w+)`", text)
             if not hasattr(importlib.import_module(module), name)]
    assert not stale
