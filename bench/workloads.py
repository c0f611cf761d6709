"""The benchmark's workloads: CLI command lists built from a seed.

Every workload is a list of ``ico-hbac`` invocations with the exit codes each
one may end with and the check its stdout must pass.  ``build`` takes the
sizes as an argument so the smoke test can run the same lists at tiny sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import checks


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``check`` runs on stdout when it exits 0."""

    argv: tuple[str, ...]
    expect: tuple[int, ...] = (0,)
    check: Callable[[bytes], dict] | None = None


@dataclass
class Workload:
    name: str
    commands: list[Command]


# sample-wide runs at this sample seed whatever the benchmark seed: the
# attempt total of its 20 trajectories ranges over 3x between seeds
# (1.7k to 5.2k over seeds 1-6), so only a fixed seed gives equal work
WIDE_SEED = 1

SIZES = {
    "sample-narrow": {"n": 3, "eps": 0.5, "trials": 20_000},
    "sample-wide": {"n": 10, "eps": 0.05, "trials": 20},
    "tree-sort-json": {"n": 8, "eps": 0.5, "trials": 200},
    "analysis": {"nmax": 4, "table_n": 20, "run_n": 16, "sample_n": 9},
}


def sample_argv(scheme: str, n: int, eps: float, trials: int, seed: int, *extra: str) -> tuple[str, ...]:
    return (
        "sample", "--scheme", scheme, "--n", str(n), "--eps", repr(eps),
        "--trials", str(trials), "--seed", str(seed), *extra,
    )


def _heralded(name: str, size: dict, sample_seed: int) -> Workload:
    n, eps, trials = size["n"], size["eps"], size["trials"]
    chain = checks.HeraldedChain(n, eps)

    def check(data: bytes) -> dict:
        stats = checks.check_heralded_csv(data, chain, trials)
        stats["mean_trials_z"] = chain.mean_trials_z(stats["mean_trials"], trials)
        return stats

    command = Command(sample_argv("hbac-ico", n, eps, trials, sample_seed), check=check)
    return Workload(name, [command])


def _analysis(seed: int, size: dict) -> list[Command]:
    nmax, table_n, run_n, sample_n = size["nmax"], size["table_n"], size["run_n"], size["sample_n"]
    return [
        Command(("validate", "--nmax", str(nmax), "--seed", str(seed)), check=checks.check_validate),
        Command(
            ("table1", "--n", str(table_n), "--eps", "0.01", "--k", "3"),
            check=lambda data: checks.check_table1(data, table_n, 0.01, 3),
        ),
        Command(
            ("run", "--scheme", "hbac", "--n", str(run_n), "--eps", "0.01"),
            check=lambda data: checks.check_run_hbac(data, run_n, 0.01),
        ),
        Command(
            ("run", "--scheme", "hbac-kico", "--n", str(run_n), "--k", "3", "--eps", "0.01", "--format", "json"),
            check=lambda data: checks.check_run_kico_json(data, run_n, 3, 0.01),
        ),
        Command(
            sample_argv("hbac", sample_n, 0.05, 1, seed),
            check=lambda data: checks.check_hbac_sample(data, sample_n, 0.05),
        ),
        # documented defects, kept at their documented sizes: the iterate
        # solver's ConvergenceError must become exit 0 or a one-line exit 2,
        # and the zero-probability k-switch chain must end in exit 2
        Command(
            sample_argv("hbac", 10, 0.01, 1, seed),
            expect=(0, 2),
            check=lambda data: checks.check_hbac_sample(data, 10, 0.01),
        ),
        Command(sample_argv("hbac-kico", 4, 0.5, 100, seed, "--k", "2", "--max-attempts", "2000"), expect=(2,)),
    ]


def build(name: str, seed: int, sizes: dict | None = None) -> Workload:
    """The workload's command list for benchmark seed ``seed``."""
    size = (sizes or SIZES)[name]
    if name == "sample-narrow":
        return _heralded(name, size, seed)
    if name == "sample-wide":
        return _heralded(name, size, WIDE_SEED)
    if name == "tree-sort-json":
        n, eps, trials = size["n"], size["eps"], size["trials"]
        command = Command(
            sample_argv("ico-tree-sort", n, eps, trials, seed, "--format", "json"),
            check=lambda data: checks.check_tree_json(data, n, eps, trials),
        )
        return Workload(name, [command])
    if name == "analysis":
        return Workload(name, _analysis(seed, size))
    raise KeyError(name)
