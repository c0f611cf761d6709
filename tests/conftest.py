"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ico_hbac


def _run_probe(probe: str) -> str:
    """Stdout of ``probe`` run by a fresh interpreter that imports this package."""
    source = str(Path(ico_hbac.__file__).resolve().parents[1])
    path = os.pathsep.join([source, os.environ.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return result.stdout


@pytest.fixture
def run_probe():
    """``_run_probe``: a module's state at import can be seen only in a fresh interpreter."""
    return _run_probe
