"""Fixtures shared by the test modules."""

import os
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


@pytest.fixture(scope="session")
def parity_run(tmp_path_factory):
    """One run of tools/parity.py's whole pipeline, shared by the tests that read it:
    the script's namespace, its output directory and run_all's exit code."""
    parity = runpy.run_path(str(ROOT / "tools" / "parity.py"))
    out = tmp_path_factory.mktemp("parity") / "out"
    # run_all changes into its output directory
    cwd = os.getcwd()
    try:
        code = parity["run_all"](out)
    finally:
        os.chdir(cwd)
    return parity, out, code
