"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import csv
import functools
import json
import math
import time

import numpy as np
import pytest

import ico_hbac.cli as cli
import ico_hbac.oracle as oracle
from ico_hbac.hbac_core import build_transfer, fixed_point, iterate, two_sort
from ico_hbac.register import (
    DiagonalState,
    ground_state,
    make_thermal_params,
    reset,
    uniform_reduced,
)
from ico_hbac.schemes import (
    HBAC_ICO,
    HBAC_KICO,
    SchemeConfig,
    final_state,
    run_round,
    success_probability,
)
from ico_hbac.switch import MINUS, PLUS, branch_transfer, standard_pair

EPSILONS = (0.1, 0.5, 1.0)


def criterion(number, name, budget_seconds=None):
    def wrap(fn):
        @functools.wraps(fn)
        def runner(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                if budget_seconds is not None:
                    assert elapsed < budget_seconds, (
                        f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
                    )
            except BaseException:
                print(f"ACCEPTANCE criterion {number} ({name}): FAIL")
                raise
            print(
                f"ACCEPTANCE criterion {number} ({name}): PASS "
                f"({time.perf_counter() - start:.2f}s)"
            )

        return runner

    return wrap


@criterion(1, "power iteration reaches the closed-form fixed point", budget_seconds=5.0)
def test_criterion_1_fixed_point_convergence():
    for eps in EPSILONS:
        params = make_thermal_params(eps)
        for n in range(1, 11):
            converged, _steps = iterate(uniform_reduced(n), params, tol=1e-13, max_steps=100_000)
            closed_form = fixed_point(n, params)
            l1 = float(np.abs(converged.populations - closed_form.populations).sum())
            assert l1 < 1e-10, f"n={n} eps={eps}: L1 error {l1:.3e}"


@criterion(2, "branch transfer algebra")
def test_criterion_2_branch_algebra():
    for eps in EPSILONS:
        params = make_thermal_params(eps)
        ground = params.ground_population
        excited = params.excited_population
        for n in range(1, 9):
            spec = standard_pair(n)
            plus = branch_transfer(n, params, spec, PLUS).entries
            minus = branch_transfer(n, params, spec, MINUS).entries
            full = build_transfer(n, params).entries
            assert np.abs(plus + minus - full).max() < 1e-14
            assert np.count_nonzero(plus) == 2
            assert plus[0, 0] == pytest.approx(ground, abs=1e-15)
            assert plus[-1, -1] == pytest.approx(excited, abs=1e-15)


@criterion(3, "dense-channel oracle equivalence", budget_seconds=30.0)
def test_criterion_3_oracle_equivalence():
    report = oracle.compare(nmax=3, trials=100, seed=20240809)
    assert report.max_abs_deviation < 1e-12, f"diag deviation {report.max_abs_deviation:.3e}"
    assert report.max_offdiagonal < 1e-12, f"off-diag {report.max_offdiagonal:.3e}"
    families = {label.split(" ")[0].split("=")[0] for label, _sign in report.by_case}
    assert {"standard", "ideal", "k", "tree"} <= families


@criterion(4, "closed-form success probabilities")
def test_criterion_4_success_probabilities():
    # switch-after-cooling: the stated closed form against the operational
    # plus-branch norm, at a register size where the finite tail is below
    # double precision
    for eps in EPSILONS:
        params = make_thermal_params(eps)
        formula = (1.0 - math.exp(-2.0 * eps)) * math.exp(eps) / (2.0 * math.cosh(eps))
        config = SchemeConfig(scheme=HBAC_ICO, n=10, epsilon=eps)
        plus, _minus = run_round(fixed_point(10, params), config)
        assert abs(formula - plus.norm) < 1e-12
        assert abs(success_probability(config) - plus.norm) < 1e-12
    # single-switch after cooling: success equals the leading stationary entry
    for eps in EPSILONS:
        params = make_thermal_params(eps)
        for n in range(2, 9):
            config = SchemeConfig(scheme=HBAC_KICO, n=n, epsilon=eps, k=1)
            plus, _minus = run_round(fixed_point(n, params), config)
            first_entry = float(fixed_point(n, params).populations[0])
            assert abs(success_probability(config) - first_entry) < 1e-12
            assert abs(success_probability(config) - plus.norm) < 1e-12
    # k-switch closed form across the (n, k) grid
    for eps in EPSILONS:
        params = make_thermal_params(eps)
        for n in range(2, 9):
            for k in range(1, n + 1):
                formula = math.expm1(-eps * 2**k) / math.expm1(-eps * 2 ** (n + 1))
                config = SchemeConfig(scheme=HBAC_KICO, n=n, epsilon=eps, k=k)
                plus, _minus = run_round(fixed_point(n, params), config)
                assert abs(formula - plus.norm) < 1e-12
    # hot-bath asymptotes at the pinned parameters
    hot = SchemeConfig(scheme=HBAC_ICO, n=10, epsilon=0.01)
    assert abs(success_probability(hot) / 0.01 - 1.0) < 0.1
    hot_k = SchemeConfig(scheme=HBAC_KICO, n=12, epsilon=0.005, k=3)
    assert abs(success_probability(hot_k) / (2**3 * 0.005) - 1.0) < 0.1


def assert_heralds_pure_ground(config, plus):
    """The plus branch sits exactly on the two extremal labels, both occupied, and
    ``run``'s final state is the pure ground of the ``n`` surviving qubits.

    Reading the reset slot leaves all ground ("g") or all excited ("e"), and a
    pi-pulse maps the latter to all ground, so either outcome gives that state.
    """
    heralded = plus.normalized().populations
    assert float(heralded[1:-1].sum()) == 0.0
    assert heralded[0] > 0.0 and heralded[-1] > 0.0
    pure = final_state(config)
    assert np.array_equal(pure.populations, ground_state(config.n - 1).populations)
    assert pure.n == config.n - 1  # n surviving qubits
    assert abs(pure.populations[0] - 1.0) < 1e-12
    assert float(pure.populations[1:].sum()) < 1e-12


@criterion(5, "heralded output is exactly pure")
def test_criterion_5_purity_of_output():
    for eps in EPSILONS:
        params = make_thermal_params(eps)
        for n in range(1, 9):
            config = SchemeConfig(scheme=HBAC_ICO, n=n, epsilon=eps)
            plus, _minus = run_round(fixed_point(n, params), config)
            assert_heralds_pure_ground(config, plus)


@criterion(6, "resource table reproduction")
def test_criterion_6_resource_table(capsys):
    n, eps, k = 10, 0.5, 3
    assert cli.main(["table1", "--n", str(n), "--eps", str(eps), "--k", str(k), "--format", "json"]) == 0
    rows = {row["scheme"]: row for row in json.loads(capsys.readouterr().out)["rows"]}
    expected_resources = {
        "hbac": (eps, 0, 0),
        "hbac-ico": (eps, 1, n),
        "ico-alone": (None, 1, n),
        "ico-tree-sort": (None, n, n),
        "hbac-kico": (eps, 1, n + 1 - k),
    }
    assert set(rows) == set(expected_resources)
    for scheme, (bath, inputs, outputs) in expected_resources.items():
        assert rows[scheme]["bath"] == bath
        assert rows[scheme]["input_pure_qubits"] == inputs
        assert rows[scheme]["output_pure_qubits"] == outputs
    assert rows["hbac"]["success_probability"] == 1.0
    assert rows["ico-tree-sort"]["success_probability"] == 1.0
    # numeric success columns at criterion-4 tolerance
    formula = (1.0 - math.exp(-2.0 * eps)) * math.exp(eps) / (2.0 * math.cosh(eps))
    assert abs(rows["hbac-ico"]["success_probability"] - formula) < 1e-12
    k_formula = math.expm1(-eps * 2**k) / math.expm1(-eps * 2 ** (n + 1))
    assert abs(rows["hbac-kico"]["success_probability"] - k_formula) < 1e-12
    # nondemolition footnote: tree-sort input drops to one pure qubit
    assert cli.main(
        ["table1", "--n", str(n), "--eps", str(eps), "--nondemolition", "--format", "json"]
    ) == 0
    rows = {row["scheme"]: row for row in json.loads(capsys.readouterr().out)["rows"]}
    assert rows["ico-tree-sort"]["input_pure_qubits"] == 1


@criterion(7, "Monte Carlo trial statistics and determinism", budget_seconds=60.0)
def test_criterion_7_monte_carlo(tmp_path):
    n, eps, trials, seed = 3, 0.5, 100_000, 20240809
    params = make_thermal_params(eps)
    spec = standard_pair(n)
    # analytic expectation and variance of the trial count, accumulated along
    # the deterministic failure-update chain built from the dense matrices
    minus_matrix = branch_transfer(n, params, spec, MINUS).entries
    plus_diagonal = np.diag(branch_transfer(n, params, spec, PLUS).entries)
    state = fixed_point(n, params).populations
    expectation = 0.0
    second_moment = 0.0
    survival = 1.0
    for attempt in range(1, 2000):
        p = float(plus_diagonal @ state)
        weight = survival * p
        expectation += attempt * weight
        second_moment += attempt**2 * weight
        survival *= 1.0 - p
        step = minus_matrix @ state
        state = step / step.sum()
        if survival < 1e-16:
            break
    standard_error = math.sqrt((second_moment - expectation**2) / trials)

    argv = [
        "sample",
        "--scheme",
        "hbac-ico",
        "--n",
        str(n),
        "--eps",
        str(eps),
        "--trials",
        str(trials),
        "--seed",
        str(seed),
    ]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert cli.main(argv + ["--output", str(first)]) == 0
    assert cli.main(argv + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes(), "fixed seed must reproduce bytes"

    with open(first, newline="") as handle:
        rows = list(csv.DictReader(handle))
    summary = {row["outcome"]: row["value"] for row in rows if row["trials"] == ""}
    assert float(summary["trajectories"]) == trials
    mean = float(summary["mean-trials"])
    assert abs(mean - expectation) < 3.0 * standard_error, (
        f"mean {mean} vs analytic {expectation} (3 SE = {3 * standard_error:.4f})"
    )


@criterion(8, "stochasticity and permutation properties")
def test_criterion_8_stochasticity_and_permutation():
    for eps in EPSILONS:
        params = make_thermal_params(eps)
        for n in range(1, 9):
            columns = build_transfer(n, params).entries.sum(axis=0)
            assert np.abs(columns - 1.0).max() < 1e-12
    rng = np.random.default_rng(20240809)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        vec = rng.random(2 ** (n + 1))
        state = DiagonalState(vec)
        once = two_sort(state)
        assert once.norm == state.norm
        assert np.array_equal(np.sort(once.populations), np.sort(state.populations))
        assert np.array_equal(two_sort(once).populations, state.populations)


def test_headline_plain_cooling_stays_mixed_but_heralding_purifies():
    """Joint reading of criteria 1 and 5: the plain-cooling limit leaves every
    qubit mixed, while the heralded branch is exactly pure."""
    params = make_thermal_params(0.5)
    n = 3
    full = two_sort(reset(fixed_point(n, params), params))
    lam = full.populations
    for qubit in range(n + 1):
        stride = 2 ** (n - qubit)
        indices = np.arange(lam.size)
        ground_marginal = float(lam[(indices // stride) % 2 == 0].sum())
        assert ground_marginal < 1.0 - 1e-6, f"qubit {qubit} looks pure under plain cooling"
    config = SchemeConfig(scheme=HBAC_ICO, n=n, epsilon=0.5)
    plus, _minus = run_round(fixed_point(n, params), config)
    assert_heralds_pure_ground(config, plus)
    print("ACCEPTANCE headline (pure output beyond the plain-cooling limit): PASS")
