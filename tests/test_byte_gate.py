"""``tools/byte_gate.py``: its command matrix, and its fork server against fresh processes."""

import importlib.util
import sys
from pathlib import Path

import pytest

from test_cli import _PINNED_STDOUT

import ico_hbac.cli as cli
from ico_hbac.register import MAX_REGISTER_EXPONENT
from ico_hbac.schemes import MAX_REPUMP_ROUNDS

ROOT = Path(__file__).resolve().parents[1]

# both sides of each SchemeConfig range bound, as flag values
_RANGE_SIDES = {
    "n": ("0", "1", str(MAX_REGISTER_EXPONENT), str(MAX_REGISTER_EXPONENT + 1)),
    "epsilon": ("0", "1e-300", "709.7", "709.8"),  # > 0, and 2 cosh(epsilon) finite
    "seed": ("-1", "0", str(2**64 - 1), str(2**64)),
    "desired_success": ("0", "1e-300", "0.999999", "1"),
    "repump_rounds": ("-1", "0", str(MAX_REPUMP_ROUNDS), str(MAX_REPUMP_ROUNDS + 1)),
    "max_attempts": ("0", "1"),
}


@pytest.fixture(scope="module")
def gate():
    sys.path.insert(0, str(ROOT))  # the gate reads bench.workloads
    spec = importlib.util.spec_from_file_location("byte_gate", ROOT / "tools" / "byte_gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    sys.path.remove(str(ROOT))


@pytest.fixture(scope="module")
def matrix(gate):
    return gate.matrix()


def _values(matrix, flag):
    """Every value ``flag`` takes in ``matrix``."""
    return {argv[i + 1] for argv in matrix for i in range(len(argv) - 1) if argv[i] == flag}


def _flag(name):
    return "--eps" if name == "epsilon" else "--" + name.replace("_", "-")


def test_matrix_holds_every_pinned_and_workload_command(matrix):
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


def test_every_runspec_key_has_axis_points(gate):
    # a key added to _RUNSPEC with no choices, no minimum and no entry in _EDGES fails here
    assert [name for name in cli._RUNSPEC if not gate._points(name)] == []
    assert [name for name in gate._EDGES if name not in cli._RUNSPEC] == []


@pytest.mark.parametrize("name", list(cli._RUNSPEC))
def test_matrix_reaches_every_choice_minimum_and_range_side(matrix, name):
    key = cli._RUNSPEC[name]
    wanted = set(key.choices or ())
    if key.minimum is not None:
        wanted |= {str(key.minimum), str(key.minimum - 1)}
    wanted |= set(_RANGE_SIDES.get(name, ()))
    assert wanted - _values(matrix, _flag(name)) == set()


def test_matrix_reaches_both_sides_of_k_in_1_to_n(matrix):
    kico = [argv for argv in matrix if ("--scheme", "hbac-kico") in zip(argv, argv[1:])]
    gaps = {
        int(argv[argv.index("--k") + 1]) - int(argv[argv.index("--n") + 1])
        for argv in kico
        if "--k" in argv and "--n" in argv
    }
    assert {0, 1} <= gaps
    assert {"0", "1"} <= _values(kico, "--k")


def test_fork_server_gives_the_fresh_process_tuples(gate, tmp_path):
    commands = [
        ("sample", "--scheme", "hbac", "--n", "2", "--eps", "0.5", "--trials", "0"),  # refused
        # exit 4, then the JSON document in --output
        ("run", "--scheme", "hbac-kico", "--n", "3", "--k", "2", "--eps", "0.5", "--format", "json",
         "--output", "missing-directory/out.json"),
        ("table1", "--help"),  # argparse's SystemExit
    ]
    src = str(ROOT / "src")
    forked = gate._forked(src, commands, tmp_path)
    assert forked == [gate._outcome(src, command, tmp_path) for command in commands]
    refused, missing, usage = forked
    assert refused[0] == refused[3] == 2 and refused[6] is None
    assert (missing[0], missing[3]) == (4, 0) and missing[6] is not None
    assert usage[0] == 0 and usage[2] == ""
