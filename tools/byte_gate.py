"""Byte gate: the CLI's output bytes from two source trees, command by command.

    python3 tools/byte_gate.py PARENT_SRC CHANGE_SRC

``PARENT_SRC`` and ``CHANGE_SRC`` are the ``src`` directories of two
checkouts.  Every command of ``matrix()`` runs as a fresh
``python3 -m ico_hbac.cli`` process from each tree, the trees in alternating
order (the parent first on even commands), once writing to stdout and once
with ``--output``.  For each command the gate compares the exit code, the
SHA-256 of stdout, the ``--output`` bytes and the last line of stderr.  It
prints every command whose results differ, then a count, and exits 1 if any
differs.  The commands run in a temporary directory holding the pinned
configs of ``tests/test_cli.py``, which also gives the pinned commands, and
the gate's own ``_CONFIGS``, ``_REFUSED_CONFIGS`` and ``_RAW_CONFIGS``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCHEME_SIZES = range(1, 7)
_SEEDS = (1, 2, 3)


def _scheme_variants(n: int):
    """The scheme arguments ``sample`` and ``run`` take at ``n``: every scheme, and its pairs and ``k``."""
    yield "--scheme", "hbac", "--eps", "0.5"
    yield "--scheme", "hbac-ico", "--eps", "0.5"
    yield "--scheme", "ico-alone"
    yield "--scheme", "ico-alone", "--eps", "0.3", "--pair", "ideal"
    yield "--scheme", "ico-tree-sort", "--eps", "0.5"
    yield "--scheme", "hbac-kico", "--k", "1", "--eps", "0.5", "--repump-rounds", "1"
    yield "--scheme", "hbac-kico", "--k", str(n), "--eps", "0.5"


# explicit initial vectors for the schemes the pinned configs leave out, written
# next to them: a reduced register for the k-switch, a full one for the others
_CONFIGS = {
    "hbac-kico-initial.json": {
        "scheme": "hbac-kico", "n": 2, "k": 1, "epsilon": 0.5, "repump_rounds": 1,
        "initial": [0.1, 0.2, 0.3, 0.4],
    },
    "ico-tree-sort-initial.json": {
        "scheme": "ico-tree-sort", "n": 2, "epsilon": 0.5,
        "initial": [0.3, 0.05, 0.1, 0.1, 0.1, 0.1, 0.05, 0.2],
    },
    "ico-alone-ideal-initial.json": {
        "scheme": "ico-alone", "n": 2, "pair": "ideal",
        "initial": [0.05, 0.3, 0.1, 0.1, 0.1, 0.1, 0.05, 0.2],
    },
}
# run specs that ``run`` refuses, one check each
_REFUSED_CONFIGS = {
    "not-an-object.json": [1, 2],
    "unknown-key.json": {"scheme": "hbac", "n": 2, "epsilon": 0.5, "colour": 1},
    "bool-n.json": {"scheme": "hbac", "n": True, "epsilon": 0.5},
    "string-n.json": {"scheme": "hbac", "n": "2", "epsilon": 0.5},
    "text-initial-entry.json": {"scheme": "hbac-ico", "n": 1, "epsilon": 0.5, "initial": [0.5, "x"]},
    "other-pair.json": {"scheme": "ico-alone", "n": 2, "pair": "other"},
    "no-scheme.json": {"n": 2, "epsilon": 0.5},
    "short-initial.json": {"scheme": "hbac-ico", "n": 1, "epsilon": 0.5, "initial": [0.5, 0.2, 0.3]},
    "zero-initial.json": {"scheme": "hbac-ico", "n": 1, "epsilon": 0.5, "initial": [0.0, 0.0]},
    "negative-initial.json": {"scheme": "hbac-ico", "n": 1, "epsilon": 0.5, "initial": [0.6, -0.1]},
    "nan-initial.json": {"scheme": "hbac-ico", "n": 1, "epsilon": 0.5, "initial": [math.nan, 0.5]},
    # ico-alone's plus weight is entries 0 and -1 of the full register: zero, then subnormal
    "ico-alone-zero-plus.json": {"scheme": "ico-alone", "n": 1, "initial": [0.0, 0.5, 0.5, 0.0]},
    "ico-alone-tiny-plus.json": {"scheme": "ico-alone", "n": 1, "initial": [5e-321, 0.5, 0.5, 0.0]},
}
# config files that are not JSON, written as they are
_RAW_CONFIGS = {"malformed.json": '{"scheme": "hbac", "n": '}


def _scheme_facts():
    """Commands over every scheme fact: initial states, re-pump rounds, nondemolition, usage errors."""
    draw = ("--trials", "20", "--seed", "1")
    switched = (
        ("--scheme", "hbac-kico", "--n", "3", "--k", "2", "--eps", "0.5", "--repump-rounds", "1"),
        ("--scheme", "ico-tree-sort", "--n", "3", "--eps", "0.5"),
        ("--scheme", "ico-alone", "--n", "3", "--eps", "0.5", "--pair", "ideal"),
    )
    for fmt in ("csv", "json"):
        for variant in switched:
            for selector in ("uniform", "thermal", "fixed-point"):
                size = (*variant, "--initial", selector, "--format", fmt)
                yield ("sample", *size, *draw)
                yield ("run", *size)
        for name in _CONFIGS:
            yield ("sample", "--config", name, *draw, "--format", fmt)
            yield ("run", "--config", name, "--format", fmt)
        for n in _SCHEME_SIZES:
            yield ("run", "--scheme", "ico-tree-sort", "--n", str(n), "--nondemolition", "--format", fmt)
            yield ("table1", "--n", str(n), "--eps", "0.5", "--nondemolition", "--format", fmt)
    for n in range(1, 5):
        for k in range(1, n + 1):
            for rounds in range(3):
                kico = ("--scheme", "hbac-kico", "--n", str(n), "--k", str(k), "--eps", "0.5")
                yield ("sample", *kico, "--repump-rounds", str(rounds), *draw)
    for command in ("sample", "run"):
        yield (command, "--scheme", "hbac", "--n", "2", "--eps", "0.5", "--initial", "uniform")
        yield (command, "--scheme", "hbac-kico", "--n", "2", "--eps", "0.5")
        for scheme in ("hbac", "hbac-ico", "ico-alone", "ico-tree-sort"):
            yield (command, "--scheme", scheme, "--n", "2", "--eps", "0.5", "--k", "1")


def _usage_errors():
    """Commands that exit 2 with one line on stderr, or 4 for an output in a missing directory."""
    for name in (*_REFUSED_CONFIGS, *_RAW_CONFIGS):
        yield ("run", "--config", name, "--desired-success", "0.9")
    hbac = ("--scheme", "hbac", "--eps", "0.5")
    kico = ("--scheme", "hbac-kico", "--k", "1", "--eps", "0.5")
    yield ("run", *hbac)  # no --n
    yield ("sample", *hbac, "--n", "2", "--trials", "0")
    yield ("run", "--scheme", "hbac-kico", "--n", "3", "--k", "4", "--eps", "0.5")
    yield ("run", "--scheme", "hbac-ico", "--n", "2")
    yield ("run", "--scheme", "hbac-ico", "--n", "2", "--eps", "0.5", "--desired-success", "1.5")
    for rounds in ("-1", "10001"):
        yield ("run", *kico, "--n", "2", "--repump-rounds", rounds)
    yield ("sample", *hbac, "--n", "2", "--max-attempts", "0")
    yield ("sample", *hbac, "--n", "2", "--seed", str(2**64))
    yield ("run", "--scheme", "ico-alone", "--n", "2", "--initial", "thermal")
    # exhausts the attempt budget on a plus probability that is never zero
    yield ("sample", "--scheme", "hbac-ico", "--n", "3", "--eps", "0.5", "--trials", "200",
           "--seed", "3", "--max-attempts", "5")
    yield ("run", *hbac, "--n", "25")
    yield ("fixed-point", "--n", "0", "--eps", "0.5")
    yield from (("table1", "--n", "3", "--eps", eps) for eps in ("0", "-1", "nan"))
    for flag, value in (("--nmax", "0"), ("--nmax", "7"), ("--trials", "0"), ("--seed", "-1")):
        yield ("validate", flag, value)
    yield ("sample", *hbac, "--n", "2", "--trials", str(2**59))  # numpy's named MemoryError
    yield ("run", *hbac, "--n", "2", "--output", "missing-directory/out.csv")


@functools.cache
def _test_cli():
    """``tests/test_cli.py``, which holds ``_PINNED_STDOUT`` and the ``_PINNED_CONFIGS`` they read."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import test_cli

    return test_cli


def _workload_commands():
    sys.path.insert(0, str(ROOT))
    from bench import workloads

    for name in workloads.SIZES:
        for seed in _SEEDS:
            yield from (command.argv for command in workloads.build(name, seed).commands)


def matrix() -> list[tuple[str, ...]]:
    """Every command the gate runs, once each, in order."""
    commands = [tuple(argv.split()) for argv, _digest in _test_cli()._PINNED_STDOUT]
    commands += _workload_commands()
    for n in _SCHEME_SIZES:
        for fmt in ("csv", "json"):
            for variant in _scheme_variants(n):
                size = ("--n", str(n), *variant, "--format", fmt)
                commands.append(("sample", *size, "--trials", "20", "--seed", "1"))
                commands.append(("run", *size, "--desired-success", "0.9"))
            commands.append(("fixed-point", "--n", str(n), "--eps", "0.5", "--format", fmt))
            commands.append(("table1", "--n", str(n), "--eps", "0.5", "--k", "1", "--format", fmt))
    for nmax in _SCHEME_SIZES:
        commands += [("validate", "--nmax", str(nmax), "--seed", str(seed)) for seed in _SEEDS]
    # several chain rows per float-kernel call, each swapped for its text once rendered:
    # the heralded chain in JSON, the bath-free retry's one shared row, a re-pumped k-switch chain
    wide = ("--n", "10", "--trials", "20", "--seed", "1")
    commands.append(("sample", "--scheme", "hbac-ico", "--eps", "0.05", *wide, "--format", "json"))
    commands.append(("sample", "--scheme", "ico-alone", "--eps", "0.3", *wide))
    kico = ("sample", "--scheme", "hbac-kico", "--k", "1", "--eps", "0.5", "--repump-rounds", "1")
    commands += [(*kico, *wide, "--format", fmt) for fmt in ("csv", "json")]
    # a chain whose plus probability is exactly 0 from attempt 2 on, at the default --max-attempts
    stuck = ("--scheme", "hbac-kico", "--n", "4", "--k", "2", "--eps", "0.5")
    commands.append(("sample", *stuck, "--trials", "100", "--seed", "1"))
    # draws wider than the Philox kernel's lane block and than one sample_batch slice
    wide_draw = ("--trials", "20000", "--seed", "1")
    commands.append(("sample", "--scheme", "ico-tree-sort", "--n", "4", "--eps", "0.5", *wide_draw))
    commands.append((*kico, "--n", "3", *wide_draw))
    # the largest --eps accepted and the first two rejected
    commands += [("table1", "--n", "3", "--eps", eps) for eps in ("709.7", "709.8", "710")]
    commands += _scheme_facts()
    commands += _usage_errors()
    return list(dict.fromkeys(commands))


def _outcome(src: str, argv: tuple[str, ...], workdir: Path) -> tuple:
    """Exit code, stdout SHA-256 and last stderr line of ``argv``, then the same with ``--output``."""
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    output = workdir / "output.bin"
    results = []
    for extra in ((), ("--output", str(output))):
        output.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, "-m", "ico_hbac.cli", *argv, *extra],
            cwd=workdir, env=env, stdin=subprocess.DEVNULL, capture_output=True, timeout=600,
        )
        lines = proc.stderr.decode(errors="replace").splitlines()
        results += [proc.returncode, hashlib.sha256(proc.stdout).hexdigest(), lines[-1] if lines else ""]
    written = hashlib.sha256(output.read_bytes()).hexdigest() if output.exists() else None
    return (*results, written)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/byte_gate.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    trees = [str(Path(tree).resolve()) for tree in argv]
    commands = matrix()
    differ = 0
    with tempfile.TemporaryDirectory() as directory:
        workdir = Path(directory)
        for name, config in (_test_cli()._PINNED_CONFIGS | _CONFIGS | _REFUSED_CONFIGS).items():
            (workdir / name).write_text(json.dumps(config))
        for name, text in _RAW_CONFIGS.items():
            (workdir / name).write_text(text)
        for index, command in enumerate(commands):
            order = trees if index % 2 == 0 else trees[::-1]
            results = {tree: _outcome(tree, command, workdir) for tree in order}
            parent, change = (results[tree] for tree in trees)
            if parent != change:
                differ += 1
                print(" ".join(command))
                print(f"  parent: {parent}\n  change: {change}")
    print(f"{len(commands)} commands, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
