"""Benchmark of the ico-hbac command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in ``workloads.py``.  Each repetition runs the
workload's whole command list, one fresh ``python3 -m ico_hbac.cli`` child at
a time, with stdout and stderr sent to files under ``.bench_work/``.
Children are spawned by ``launcher.py`` so that their peak RSS is their own.
Repetitions continue until about ``S`` seconds of commands have run.  Every
repetition uses the same inputs, so the first one's stdout is checked in full
(outside the timed region) and later ones must repeat its SHA-256 digest.

With ``--trace 0`` it prints the end-to-end metrics:

* ``wall_s``: median over repetitions of the command list's wall-clock time,
  each command timed from spawn to reap;
* ``cpu_s``: median of the children's user plus system CPU time;
* ``peak_rss_mb``: median of the largest ``ru_maxrss`` of any child in a
  repetition, read per child from ``os.wait4``;
* ``setup_s``: median of fifteen fresh interpreters importing
  ``ico_hbac.cli`` and returning from ``build_parser()``, spawn to reap,
  spread over the run;
* ``ok_rate``: commands that ended as expected over commands attempted,
  i.e. one minus the error rate.

A command fails when its exit code is not one it may end with, is not one of
the documented codes 0/2/3/4, when it prints a traceback, when an exit 2 does
not come with a one-line message, or when its output check or digest fails.
Failures are counted in ``failed``; ``correct`` is false only when an output
that the program produced was wrong (a check or digest failed).

With ``--trace 1`` untraced and traced repetitions alternate; traced ones run
each command under ``tracer.py`` and the per-layer metrics of
``BENCHMARK.json`` are printed instead.  Busy and self times are medians over
traced repetitions; counts must repeat exactly in every traced repetition.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A table on stderr gives each metric with its
unit, sample count, and smallest and largest sample.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"
WORK = ROOT / ".bench_work"

# one child at a time on a small shared machine: keep BLAS single-threaded
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

sys.path[:0] = [str(ROOT), str(SRC)]
from bench import checks, tracer, workloads  # noqa: E402

# metric and workload names, units and directions are those of BENCHMARK.json
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(workload["name"] for workload in SPEC["workloads"])
END_TO_END_UNITS = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER_UNITS = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
DOCUMENTED_EXITS = (0, 2, 3, 4)
SETUP_RUNS = 15
SETUP_FIRST = 3
SETUP_CODE = "import ico_hbac.cli as cli; cli.build_parser()"
# the whole run must end well inside three minutes, even if a command hangs
DEADLINE_S = 150.0

SPEC_BUILDERS = ("switch.standard_pair", "switch.ideal_pair", "switch.k_pair", "switch.tree_pair")
STATE_CHECKS = ("register.DiagonalState.__post_init__", "register.ReducedState.__post_init__")


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stderr: bytes


def child_env() -> dict:
    env = {key: value for key, value in os.environ.items() if key != "ICO_HBAC_MAX_N"}
    env["PYTHONPATH"] = str(SRC)
    return env


class Launcher:
    """Client of ``launcher.py``, which spawns every timed child."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.proc = subprocess.Popen(
            [sys.executable, str(LAUNCHER)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=ROOT,
            text=True,
        )

    def run(self, argv: list[str], stdout: Path, stderr: Path) -> Child:
        timeout = max(self.deadline - time.perf_counter(), 1.0)
        request = {"argv": argv, "stdout": str(stdout), "stderr": str(stderr), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process ended unexpectedly")
        fields = json.loads(reply)
        return Child(fields["wall"], fields["cpu"], fields["rss_mb"], fields["code"], stderr.read_bytes())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def failure_reason(expect: tuple[int, ...], child: Child) -> str | None:
    if b"Traceback (most recent call last)" in child.stderr:
        return f"traceback, exit {child.code}"
    if child.code not in DOCUMENTED_EXITS:
        return f"undocumented exit code {child.code}"
    if child.code not in expect:
        return f"exit {child.code}, expected one of {expect}"
    if child.code != 0 and len(child.stderr.strip().splitlines()) != 1:
        return f"exit {child.code} without a one-line message"
    return None


def _counts(totals: dict, name: str) -> tuple[int, float, float]:
    entry = totals.get(name)
    return (entry["calls"], entry["total_s"], entry["self_s"]) if entry else (0, 0.0, 0.0)


def layer_values(totals: dict, counters: dict, rows: int, written: int) -> dict:
    """Per-layer metrics of one traced repetition (``trace.overhead_s`` aside)."""

    def calls(*names):
        return sum(_counts(totals, name)[0] for name in names)

    def busy(*names):
        return sum(_counts(totals, name)[1] for name in names)

    trajectories = counters.get("trajectories", 0)
    attempts = counters.get("attempts", 0)
    return {
        # cli.main and the cli commands it calls, less the other layers' spans
        "cli.self_s": sum(entry["self_s"] for name, entry in totals.items() if name.startswith("cli.")),
        "cli.rows": rows,
        "cli.bytes_written": written,
        "schemes.trajectory_rng_calls": calls("schemes.trajectory_rng"),
        "schemes.trajectory_rng_s": busy("schemes.trajectory_rng"),
        "schemes.sample_batch_self_s": _counts(totals, "schemes.sample_batch")[2],
        "schemes.trajectories": trajectories,
        "schemes.attempts": attempts,
        "schemes.success_ratio": trajectories / attempts if attempts else 0.0,
        "schemes.chain_states": calls("schemes.failure_update"),
        "schemes.failure_update_s": busy("schemes.failure_update"),
        "schemes.plus_weight_vector_calls": calls("schemes.plus_weight_vector"),
        "schemes.plus_weight_vector_s": busy("schemes.plus_weight_vector"),
        "switch.spec_builds": calls(*SPEC_BUILDERS),
        "switch.spec_build_s": busy(*SPEC_BUILDERS),
        "switch.branches_calls": calls("switch.switch_branches"),
        "switch.branches_s": busy("switch.switch_branches"),
        "switch.branch_transfer_s": busy("switch.branch_transfer"),
        "register.states_checked": calls(*STATE_CHECKS),
        "register.state_check_s": busy(*STATE_CHECKS),
        "register.state_bytes_checked": counters.get("state_bytes_checked", 0),
        "register.reset_calls": calls("register.reset"),
        "register.reduce_calls": calls("register.reduce"),
        "hbac_core.round_calls": calls("hbac_core.hbac_round"),
        "hbac_core.round_s": busy("hbac_core.hbac_round"),
        "hbac_core.iterate_rounds": counters.get("iterate_rounds", 0),
        "hbac_core.iterate_s": busy("hbac_core.iterate"),
        "hbac_core.fixed_point_s": busy("hbac_core.fixed_point"),
        "hbac_core.build_transfer_s": busy("hbac_core.build_transfer"),
        "oracle.compare_s": busy("oracle.compare"),
        "oracle.switch_channel_calls": calls("oracle.switch_channel"),
    }


class Session:
    """Repetitions of one workload with their checks and tallies."""

    def __init__(self, workload, workdir: Path, launcher: Launcher, log=None):
        self.workload = workload
        self.workdir = workdir
        self.launcher = launcher
        self.log = log or (lambda message: print(message, file=sys.stderr))
        self.reference: dict[int, tuple[str, str | None]] = {}
        self.stats: dict = {}
        self.setup: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong_output = False

    def setup_sample(self, record: bool = True) -> None:
        out, err = self.workdir / "setup.out", self.workdir / "setup.err"
        child = self.launcher.run([sys.executable, "-c", SETUP_CODE], out, err)
        if child.code != 0:
            raise RuntimeError(f"importing ico_hbac.cli failed: {child.stderr.decode(errors='replace')}")
        if record:
            self.setup.append(child.wall)

    def _check(self, index: int, command, data: bytes) -> str | None:
        digest = hashlib.sha256(data).hexdigest()
        if index in self.reference:
            first_digest, first_reason = self.reference[index]
            return first_reason if digest == first_digest else "output differs from the first repetition"
        reason = None
        if command.check is not None:
            try:
                self.stats.update(command.check(data))
            except (checks.CheckError, ValueError, KeyError, IndexError, TypeError) as exc:
                reason = f"output check: {exc}"
        self.reference[index] = (digest, reason)
        return reason

    def repetition(self, traced: bool) -> dict:
        record = {"wall": 0.0, "cpu": 0.0, "rss": 0.0, "rows": 0, "bytes": 0, "totals": {}, "counters": {}}
        for index, command in enumerate(self.workload.commands):
            out = self.workdir / f"{index}.out"
            err = self.workdir / f"{index}.err"
            spans = self.workdir / f"{index}.spans.json"
            if traced:
                argv = [sys.executable, str(TRACER), str(spans), *command.argv]
            else:
                argv = [sys.executable, "-m", "ico_hbac.cli", *command.argv]
            child = self.launcher.run(argv, out, err)
            self.attempted += 1
            reason = failure_reason(command.expect, child)
            data = out.read_bytes() if child.code == 0 else b""
            if reason is None and child.code == 0:
                reason = self._check(index, command, data)
                self.wrong_output |= reason is not None
            if reason is not None:
                self.failed += 1
                self.log(f"{self.workload.name}: command {index} ({' '.join(command.argv[:3])}) failed: {reason}")
            record["wall"] += child.wall
            record["cpu"] += child.cpu
            record["rss"] = max(record["rss"], child.rss_mb)
            record["rows"] += data.count(b"\n")
            record["bytes"] += len(data)
            if traced and spans.is_file():
                dump = json.loads(spans.read_text())
                for name, entry in tracer.layer_totals(dump).items():
                    total = record["totals"].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                    for key in total:
                        total[key] += entry[key]
                for key, value in dump["counters"].items():
                    record["counters"][key] = record["counters"].get(key, 0) + value
                spans.unlink()
        return record


def repeat(session: Session, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
    """Untraced (and, with ``trace``, alternating traced) repetitions for ``seconds``.

    Set-up samples are spread over the run: a few first, the rest as the
    repetitions progress, so that they see the same machine load.
    """
    kinds = (False, True) if trace else (False,)
    plain, traced = [], []
    session.setup_sample(record=False)  # warm-up: bytecode caches
    if not trace:
        for _ in range(SETUP_FIRST):
            session.setup_sample()
    begin = time.perf_counter()
    while True:
        kind = kinds[(len(plain) + len(traced)) % len(kinds)]
        (traced if kind else plain).append(session.repetition(kind))
        walls = [record["wall"] for record in plain + traced]
        elapsed = time.perf_counter() - begin
        share = min(elapsed / seconds, 1.0) if seconds > 0 else 1.0
        while not trace and len(session.setup) < SETUP_FIRST + (SETUP_RUNS - SETUP_FIRST) * share:
            session.setup_sample()
        if len(plain) + len(traced) < len(kinds):
            continue
        if elapsed + statistics.median(walls) / 2 >= seconds:
            break
        if session.launcher.deadline - time.perf_counter() < max(walls):
            break
    while not trace and len(session.setup) < SETUP_RUNS:
        session.setup_sample()
    return plain, traced


def measure(workload, seconds: float, trace: bool, workdir: Path, started: float, log=None) -> dict:
    launcher = Launcher(started + DEADLINE_S)
    try:
        session = Session(workload, workdir, launcher, log)
        plain, traced = repeat(session, seconds, trace)
    finally:
        launcher.close()

    series: dict[str, list[float]] = {}
    metrics: dict[str, float] = {}
    if not trace:
        series = {
            "wall_s": [r["wall"] for r in plain],
            "cpu_s": [r["cpu"] for r in plain],
            "peak_rss_mb": [r["rss"] for r in plain],
            "setup_s": session.setup,
        }
        metrics = {name: statistics.median(values) for name, values in series.items()}
        metrics["ok_rate"] = (session.attempted - session.failed) / session.attempted
        series["ok_rate"] = [metrics["ok_rate"]] * session.attempted
        units = END_TO_END_UNITS
    else:
        per_rep = [layer_values(r["totals"], r["counters"], r["rows"], r["bytes"]) for r in traced]
        for name, value in per_rep[0].items():
            series[name] = [values[name] for values in per_rep]
            if PER_LAYER_UNITS[name] == "s":
                metrics[name] = statistics.median(series[name])
            else:
                if any(other != value for other in series[name]):
                    session.wrong_output = True
                    session.log(f"{workload.name}: count {name} differs between traced repetitions")
                metrics[name] = value
        metrics["schemes.mean_trials_z"] = session.stats.get("mean_trials_z", 0.0)
        series["schemes.mean_trials_z"] = [metrics["schemes.mean_trials_z"]]
        plain_wall = statistics.median(r["wall"] for r in plain)
        series["trace.overhead_s"] = [r["wall"] - plain_wall for r in traced]
        metrics["trace.overhead_s"] = statistics.median(series["trace.overhead_s"])
        units = PER_LAYER_UNITS
    for name, values in series.items():
        print(
            f"{workload.name:>15} {name:<34} {metrics[name]:>14.6g} {units[name]:<6}"
            f" n={len(values):<6} min {min(values):<12.6g} max {max(values):.6g}",
            file=sys.stderr,
        )
    return {
        "correct": not session.wrong_output,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ico_hbac" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'ico_hbac'}", file=sys.stderr)
        return 2
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.build(args.workload, args.seed)
        result = measure(workload, args.seconds, bool(args.trace), workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
