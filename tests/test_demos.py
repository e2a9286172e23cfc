"""The quick demos and the README's library tour match the current library API,
and tools/parity.py runs its whole pipeline."""

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


def test_parity_script_recognises_words_and_phonemes(parity_run):
    parity, out, code = parity_run
    assert code == 0
    logs = sorted(out.glob("*.stdout"))
    assert len(logs) == len(parity["STEPS"])
    assert all(log.read_text().endswith("exit 0\n") for log in logs)
    for model in ("word", "phone"):
        hyps = (out / ("dec-%s" % model) / "hypotheses.tsv").read_text().splitlines()
        assert any(line.split("\t")[1] for line in hyps), model
    assert (out / "ana" / "overlap_histogram.tsv").exists()
    # field 7 of a trainlog line counts the epoch's skipped utterances
    assert all(int(line.split("\t")[6]) > 0
               for line in (out / "word16" / "trainlog.tsv").read_text().splitlines())
    assert "overlap_permutation_pvalue" in (out / "ana" / "summary.tsv").read_text()
