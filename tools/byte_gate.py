"""Byte gate: the CLI's output bytes from two source trees, command by command.

    python3 tools/byte_gate.py PARENT_SRC CHANGE_SRC

The arguments are the ``src`` directories of two checkouts.  Each gets a fork
server, which imports ``ico_hbac.cli`` once and forks one child per command of
``matrix()``, one at a time, once to stdout and once with ``--output``.  The gate
prints each command whose ``_tuple`` differs, then a count, and exits 1 if any
differs.  ``_outcome`` gives the tuple from fresh ``python3 -m ico_hbac.cli``
processes: the reference the fork server is held to.  Both run in one fixed
environment and one temporary directory (JSON echoes the ``--output`` path), which
holds the configs of ``tests/test_cli.py``.
"""

import functools
import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# A run-spec key's axis points are its choices, its minimum with the value below it,
# and its edges here: both sides of each SchemeConfig range bound, and None for the key
# left out.  A flag that takes no value (``--nondemolition``) has the point True.
_EDGES = {
    "scheme": (None,),
    "n": (None, "0", "1", "4", "25"),  # the accepted 24: see matrix()
    "k": (None, "0", "1", "3", "4"),  # [1, n] at the k-switch base's n = 3
    "epsilon": (None, "0", "1e-300", "709.7", "709.8"),  # 709.8 overflows the partition constant
    "seed": ("-1", "0", str(2**64 - 1), str(2**64)),
    "desired_success": (None, "0", "1e-300", "0.999999", "1"),
    "nondemolition": (True,),
    "repump_rounds": ("-1", "0", "10000", "10001"),
    "max_attempts": ("0", "1"),
    "output": ("missing-directory/out.csv",),
}
# the accepted commands each point is set in, one key at a time, in each format: one
# per scheme for run and sample; a key the command has no flag for is not varied
_SCHEME_BASES = [
    *(
        {"n": "2", "scheme": scheme, "epsilon": "0.5"}
        for scheme in ("hbac", "hbac-ico", "ico-alone", "ico-tree-sort")
    ),
    {"n": "3", "scheme": "hbac-kico", "k": "3", "epsilon": "0.5"},  # k = n: a chain not stuck at 0
]
_BASES = {
    "fixed-point": ({"n": "3", "epsilon": "0.5"},),
    "table1": ({"n": "3", "epsilon": "0.5", "k": "1"},),
    "run": [{**base, "format": "csv", "desired_success": "0.9"} for base in _SCHEME_BASES],
    "sample": [{**base, "format": "csv", "trials": "20", "seed": "1"} for base in _SCHEME_BASES],
    "validate": ({"nmax": "1"},),
}


@functools.cache
def _test_cli():
    """``tests/test_cli.py``: the pinned commands, the configs, and the ``cli`` it imports."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import test_cli

    return test_cli


def _points(name: str) -> tuple:
    """The axis points of run-spec key ``name``: its choices, its minimum and below, its edges."""
    key = _test_cli().cli._RUNSPEC[name]
    below = () if key.minimum is None else (str(key.minimum), str(key.minimum - 1))
    return (*(key.choices or ()), *below, *_EDGES.get(name, ()))


def _argv(command: str, spec: dict) -> tuple[str, ...]:
    argv = [command]
    for name, value in spec.items():
        if value is not None:
            argv.append("--eps" if name == "epsilon" else "--" + name.replace("_", "-"))
            argv += () if value is True else (value,)
    return tuple(argv)


def _generated():
    """Every base of ``_BASES`` with one flag set to each of its points, in each format."""
    cli = _test_cli().cli
    runspec = cli._RUNSPEC
    (subcommands,) = cli.build_parser()._subparsers._group_actions
    for command, parser in subcommands.choices.items():
        names = [action.dest for action in parser._actions if action.dest in runspec]
        formats = runspec["format"].choices if "format" in names else (None,)
        for base in _BASES[command]:
            for name in names:
                for point in _points(name):
                    yield from (_argv(command, {**base, "format": f, name: point}) for f in formats)


def matrix() -> list[tuple[str, ...]]:
    """Every command the gate runs, once each, in order."""
    tests = _test_cli()
    commands = [tuple(argv.split()) for argv, _digest in tests._PINNED_STDOUT]
    sys.path.insert(0, str(ROOT))
    from bench import workloads

    for name, seed in ((name, seed) for name in workloads.SIZES for seed in (1, 2, 3)):
        commands += [command.argv for command in workloads.build(name, seed).commands]
    commands += _generated()
    # validate's --nmax, which no run-spec key declares, in [1, 6] and past both ends
    for nmax in range(1, 7):
        commands += [("validate", "--nmax", str(nmax), "--seed", str(seed)) for seed in (1, 2, 3)]
    commands += [("validate", "--nmax", "0"), ("validate", "--nmax", "7")]
    # the largest n accepted, where a command's cost does not grow with n
    commands.append(("table1", "--n", "24", "--eps", "0.5"))
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
    # run arrays that numpy cannot allocate, cannot size and cannot index
    hbac = ("sample", "--scheme", "hbac", "--eps", "0.5", "--n", "2", "--trials")
    commands += [(*hbac, str(trials)) for trials in (2**59, 2**63 - 1, 10**20)]
    # the largest --eps accepted, the first two rejected, and three more outside the range
    commands += [("table1", "--n", "3", "--eps", eps) for eps in ("709.7", "709.8", "710", "0", "-1", "nan")]
    # the help texts, and validate at its default nmax, seed and trials
    commands += [("--help",), *((command, "--help") for command in _BASES), ("validate",)]
    # explicit initial vectors, an infinite expected-trials (null in JSON), and refused configs
    for fmt in ("csv", "json"):
        for name in tests._CONFIGS:
            commands.append(("sample", "--config", name, "--trials", "20", "--seed", "1", "--format", fmt))
            commands.append(("run", "--config", name, "--format", fmt))
        commands.append(("run", "--config", "ico-alone-zero-plus.json", "--format", fmt))
    refused = (*tests._REFUSED_CONFIGS, *tests._RAW_CONFIGS)
    commands += [("run", "--config", name, "--desired-success", "0.9") for name in refused]
    # a selector that needs the epsilon a bath-free scheme may leave out
    commands.append(("run", "--scheme", "ico-alone", "--n", "2", "--initial", "thermal"))
    # argparse's own errors: a choice it does not offer, and values of the wrong type
    table1 = ("table1", "--n", "3", "--eps", "0.5")
    commands += [(*table1, "--format", "xml"), (*table1, "--k", "x"), ("validate", "--trials", "x")]
    commands.append(("fixed-point", "--n", "3", "--eps", "x"))
    return list(dict.fromkeys(commands))


_TIMEOUT = 600  # seconds a command may run, in either runner


def _env(src: str) -> dict:
    """A command's whole environment: nothing else is inherited, ``PYTHONUNBUFFERED`` included."""
    kept = {name: os.environ[name] for name in ("PATH", "HOME") if name in os.environ}
    threads = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    return {**kept, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1", **threads}


def _outcome(src: str, argv: tuple[str, ...], workdir: Path) -> tuple:
    """``_tuple`` of ``argv`` run as fresh ``python3 -m ico_hbac.cli`` processes."""

    def run(args):
        proc = subprocess.run(
            [sys.executable, "-m", "ico_hbac.cli", *args], cwd=workdir, env=_env(src),
            stdin=subprocess.DEVNULL, capture_output=True, timeout=_TIMEOUT,
        )
        return proc.returncode, proc.stdout, proc.stderr

    return _tuple(run, argv, workdir)


def _tuple(run, argv, workdir: Path) -> tuple:
    """Exit code, stdout SHA-256, last stderr line of ``run(argv)``; the same with ``--output``."""
    output = workdir / "output.bin"
    results = []
    for extra in ((), ("--output", str(output))):
        output.unlink(missing_ok=True)
        code, stdout, stderr = run([*argv, *extra])
        lines = stderr.decode(errors="replace").splitlines()
        results += [code, hashlib.sha256(stdout).hexdigest(), lines[-1] if lines else ""]
    return (*results, hashlib.sha256(output.read_bytes()).hexdigest() if output.exists() else None)


def _serve() -> None:
    """The fork server: a JSON list of commands in, the ``_tuple`` of each out, as JSON."""
    from ico_hbac import cli, jsontext, oracle, sampling  # noqa: F401  imported once, before any fork

    captured = tempfile.TemporaryFile(), tempfile.TemporaryFile()

    def run(args):
        for handle in captured:
            handle.seek(0)
            handle.truncate()
        pid = os.fork()
        if pid == 0:  # the child runs cli.main as python3 -m ico_hbac.cli does, then ends
            code = 1
            try:
                os.dup2(os.open(os.devnull, os.O_RDONLY), 0)
                for fd, handle in enumerate(captured, start=1):
                    os.dup2(handle.fileno(), fd)
                signal.alarm(_TIMEOUT)
                try:
                    code = cli.main(args)
                except SystemExit as exc:
                    code = exc.code or 0
                except BaseException:
                    traceback.print_exc()
                sys.stdout.flush()
                sys.stderr.flush()
            finally:
                os._exit(code)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        for handle in captured:
            handle.seek(0)
        return code, *(handle.read() for handle in captured)

    json.dump([_tuple(run, argv, Path.cwd()) for argv in json.load(sys.stdin)], sys.stdout)


def _forked(src: str, commands: list, workdir) -> list[tuple]:
    """``_outcome`` of every command, one at a time, from one fork server of tree ``src``."""
    serve = f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
    serve += "import byte_gate; byte_gate._serve()"
    server = subprocess.run(
        [sys.executable, "-c", serve], cwd=workdir, env=_env(src), input=json.dumps(commands),
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return [tuple(result) for result in json.loads(server.stdout)]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/byte_gate.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    commands = matrix()
    with tempfile.TemporaryDirectory() as workdir:
        _test_cli()._write_configs(Path(workdir))
        parent, change = (_forked(str(Path(tree).resolve()), commands, workdir) for tree in argv)
    differ = [(command, old, new) for command, old, new in zip(commands, parent, change) if old != new]
    for command, old, new in differ:
        print(" ".join(command))
        print(f"  parent: {old}\n  change: {new}")
    print(f"{len(commands)} commands, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
