"""Smoke test of the benchmark itself at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
import time

import pytest

from bench import checks, run, workloads

TINY = {
    "sample-narrow": {"n": 3, "eps": 0.5, "trials": 50},
    "sample-wide": {"n": 4, "eps": 0.05, "trials": 3},
    "tree-sort-json": {"n": 3, "eps": 0.5, "trials": 5},
    "analysis": {"nmax": 2, "table_n": 4, "run_n": 4, "sample_n": 3},
}


def cli_stdout(argv) -> bytes:
    proc = subprocess.run(
        [sys.executable, "-m", "ico_hbac.cli", *argv],
        capture_output=True, env=run.child_env(), cwd=run.ROOT, timeout=120, check=True,
    )
    return proc.stdout


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_is_emitted(tmp_path, name, trace):
    workload = workloads.build(name, 1, TINY)
    result = run.measure(workload, 0.0, trace, tmp_path, time.perf_counter(), log=lambda _m: None)
    expected = set(run.PER_LAYER_UNITS) if trace else set(run.END_TO_END_UNITS)
    assert set(result["metrics"]) == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] is True
    assert result["attempted"] >= len(workload.commands)
    if name != "analysis":
        assert result["failed"] == 0


def _flip_leading_digit(data: bytes) -> bytes:
    """Change the first significant digit of the first state cell."""
    lines = data.split(b"\r\n")
    row = lines[1]
    cell = row.rindex(b",") + 1
    digit = next(i for i in range(cell, len(row)) if row[i : i + 1] in b"123456789")
    flipped = row[:digit] + bytes([b"5"[0] if row[digit] != b"5"[0] else b"6"[0]]) + row[digit + 1 :]
    return b"\r\n".join([lines[0], flipped, *lines[2:]])


def test_flipped_state_byte_is_a_failure(tmp_path):
    workload = workloads.build("sample-narrow", 1, TINY)
    command = workload.commands[0]
    data = cli_stdout(command.argv)
    assert command.check(data)["trajectories"] == TINY["sample-narrow"]["trials"]
    bad = _flip_leading_digit(data)
    with pytest.raises(checks.CheckError):
        command.check(bad)
    # a later repetition is held to the first one's digest, to the last byte
    session = run.Session(workload, tmp_path, launcher=None)
    assert session._check(0, command, data) is None
    last = data.index(b"\r\n", data.index(b"\r\n") + 2) - 1
    tail_flip = data[:last] + (b"1" if data[last:last + 1] != b"1" else b"2") + data[last + 1 :]
    assert session._check(0, command, tail_flip) == "output differs from the first repetition"


def test_digest_follows_the_seed():
    def digest(seed):
        argv = workloads.build("sample-narrow", seed, TINY).commands[0].argv
        return hashlib.sha256(cli_stdout(argv)).hexdigest()

    assert digest(3) == digest(3)
    assert digest(3) != digest(4)

