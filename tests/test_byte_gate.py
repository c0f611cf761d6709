"""``tools/byte_gate.py``'s command matrix, checked without running any command."""

import importlib.util
import sys
from pathlib import Path

from test_cli import _PINNED_STDOUT

ROOT = Path(__file__).resolve().parents[1]


def test_matrix_holds_every_pinned_and_workload_command(monkeypatch):
    monkeypatch.setattr(sys, "path", [str(ROOT), *sys.path])  # the gate adds to it as well
    spec = importlib.util.spec_from_file_location("byte_gate", ROOT / "tools" / "byte_gate.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    matrix = gate.matrix()
    pinned = [tuple(argv.split()) for argv, _digest in _PINNED_STDOUT]
    assert [command for command in pinned if command not in matrix] == []
    from bench import workloads

    workload = [
        command.argv
        for name in workloads.SIZES
        for seed in (1, 2, 3)
        for command in workloads.build(name, seed).commands
    ]
    assert [command for command in workload if command not in matrix] == []
