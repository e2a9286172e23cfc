"""Smoke test of tools/interleave.py: one source tree on both sides, at toy size."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
TOOL = ROOT / "tools" / "interleave.py"
# the workloads' flags with a few utterances a split, and one epoch
TOY = {
    "eval-64w": {"synth": ["--seed", "11", "--vocab-size", "64", "--n-train", "4",
                           "--n-dev", "2", "--n-test", "2"], "epochs": 1},
    "train-phone-ds1": {"synth": ["--seed", "0", "--n-train", "6", "--n-dev", "2",
                                  "--n-test", "2"], "subset": 4},
    "train-word-ds4": {"synth": ["--seed", "0", "--n-train", "6", "--n-dev", "2",
                                 "--n-test", "2"], "subset": 4},
}


@pytest.fixture(scope="module")
def interleave():
    spec = importlib.util.spec_from_file_location("interleave_tool", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.mark.parametrize("workload", sorted(TOY))
def test_one_tree_on_both_sides_gives_equal_outputs(interleave, monkeypatch, capsys, workload):
    assert sorted(TOY) == sorted(interleave.bench.WORKLOADS)
    monkeypatch.setitem(interleave.bench.WORKLOADS, workload,
                        {**interleave.bench.WORKLOADS[workload], **TOY[workload]})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    src = str(ROOT / "src")
    assert interleave.main([src, src, workload, "--pairs", "3"]) == 0
    [line] = capsys.readouterr().out.splitlines()
    result = json.loads(line)
    assert result["workload"] == workload
    assert result["pairs"] == 3
    assert result["outputs_equal"] is True and result["max_abs_diff"] == 0.0
    assert 0 <= result["change_faster_pairs"] <= 3
    for side in ("parent_s", "change_s"):
        q = result[side]
        assert 0 < q["q1"] <= q["median"] <= q["q3"]
    assert result["median_ratio_change_over_parent"] > 0


def test_missing_package_is_named(tmp_path):
    done = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path), str(ROOT / "src"), "eval-64w", "--pairs", "2"],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert "no wordctc package under %s" % tmp_path in done.stderr
