"""The quick demos run to the end against the current library API."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_ctc_basics.py", "02_downsampling.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
