"""Output checks for the benchmark's CLI commands.

Each check takes a command's captured stdout and raises :class:`CheckError`
when the output is wrong.  Reference values come from the benchmark itself:
heralded failure chains from the dense ``branch_transfer`` matrices, tree-sort
branches from the block rule of ``tree_pair`` written out here, and Table 1
rows from the closed forms of the geometric fixed point.  The
``expected-trials`` summary row of ``sample`` is deliberately not checked: it
is ``1/p0``, which is not the mean trial count of a bath scheme.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import numpy as np

TOLERANCE = 1e-12
FIXED_POINT_L1 = 1e-10
CSV_COLUMNS = ["scheme", "n", "k", "epsilon", "round", "outcome", "probability", "trials", "value"]
SCHEMES = ("hbac", "hbac-ico", "ico-alone", "ico-tree-sort", "hbac-kico")


class CheckError(Exception):
    """A command's output differs from the reference."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _close(actual: float, expected: float, what: str, tol: float = TOLERANCE) -> None:
    _require(abs(actual - expected) <= tol, f"{what}: {actual!r} != {expected!r} (tol {tol})")


def _vector(cell: str) -> np.ndarray:
    return np.array(cell.split("|"), dtype=np.float64)


def _csv_rows(data: bytes) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
    _require(bool(rows) and rows[0] == CSV_COLUMNS, "missing or wrong CSV header")
    return rows[1:]


# ---------------------------------------------------------------------------
# reference values
# ---------------------------------------------------------------------------


def thermal_weights(eps: float) -> tuple[float, float]:
    """Populations of |g> and |e> for a slot thermalised at gap ``eps``."""
    return 1.0 / (1.0 + math.exp(-2.0 * eps)), 1.0 / (1.0 + math.exp(2.0 * eps))


def geometric_fixed_point(n: int, eps: float) -> np.ndarray:
    """Stationary reduced profile of plain cooling: ratio ``exp(-2 eps)``."""
    size = 2**n
    return math.expm1(-2.0 * eps) / math.expm1(-2.0 * eps * size) * np.exp(
        -2.0 * eps * np.arange(size)
    )


def closed_form_success(scheme: str, n: int, eps: float, k: int | None) -> float:
    """Per-attempt success probability at the scheme's evaluation state."""
    if scheme in ("hbac", "ico-tree-sort"):
        return 1.0
    ground, excited = thermal_weights(eps)
    if scheme == "ico-alone":  # thermal input: all-ground plus all-excited label
        return ground ** (n + 1) + excited ** (n + 1)
    first = math.expm1(-2.0 * eps) / math.expm1(-2.0 * eps * 2**n)
    if scheme == "hbac-ico":  # reset then keep the two end labels
        return ground * first + excited * first * math.exp(-2.0 * eps * (2**n - 1))
    # hbac-kico keeps the first 2**(k-1) reduced entries of the fixed point
    return math.expm1(-2.0 * eps * 2 ** (k - 1)) / math.expm1(-2.0 * eps * 2**n)


class HeraldedChain:
    """Failure chain of ``hbac-ico`` built from the dense branch matrices.

    State ``j`` is the pre-measurement reduced state of attempt ``j``; the
    next one is the normalised minus-branch image.  ``moments`` gives the
    exact mean and second moment of the trial count from the same matrices.
    """

    def __init__(self, n: int, eps: float):
        from ico_hbac.register import make_thermal_params
        from ico_hbac.switch import branch_transfer, standard_pair

        params = make_thermal_params(eps)
        spec = standard_pair(n)
        self.minus = branch_transfer(n, params, spec, "-").entries
        self.plus_weights = np.diag(branch_transfer(n, params, spec, "+").entries).copy()
        self.states = [geometric_fixed_point(n, eps)]
        self.probabilities = [float(self.plus_weights @ self.states[0])]

    def at(self, attempt: int) -> tuple[np.ndarray, float]:
        while len(self.states) < attempt:
            step = self.minus @ self.states[-1]
            state = step / step.sum()
            self.states.append(state)
            self.probabilities.append(float(self.plus_weights @ state))
        return self.states[attempt - 1], self.probabilities[attempt - 1]

    def moments(self) -> tuple[float, float]:
        """``E[T]`` and ``E[T^2]``: the unnormalised chain is ``minus**(j-1) s1``."""
        resolvent = np.eye(self.minus.shape[0]) - self.minus
        once = np.linalg.solve(resolvent, self.states[0])
        twice = np.linalg.solve(resolvent, once)
        thrice = np.linalg.solve(resolvent, twice)
        mean = float(self.plus_weights @ twice)
        second = float(self.plus_weights @ (thrice + self.minus @ thrice))
        return mean, second

    def mean_trials_z(self, mean: float, trajectories: int) -> float:
        expectation, second = self.moments()
        return (mean - expectation) / math.sqrt((second - expectation**2) / trajectories)


def tree_branches(state: np.ndarray, n: int, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalised plus and minus branches of ``tree_pair(n, level)``.

    Each of the ``2**level`` dyadic sub-blocks has scalar blocks on its first
    half (kept by plus) and Pauli pairs on its second half (swapped by minus).
    """
    blocks = state.reshape(2**level, -1)
    half = blocks.shape[1] // 2
    plus = np.zeros_like(blocks)
    plus[:, :half] = blocks[:, :half]
    minus = np.zeros_like(blocks)
    minus[:, half:] = blocks[:, half:].reshape(2**level, -1, 2)[:, :, ::-1].reshape(2**level, half)
    return plus.ravel(), minus.ravel()


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def check_heralded_csv(data: bytes, chain: HeraldedChain, trials: int) -> dict:
    """Rows are minus...minus then plus per trajectory, cells follow the chain."""
    seen: dict[int, tuple[str, str]] = {}
    summary: dict[str, str] = {}
    index, last_round, closed, total = 0, 0, True, 0
    for row in _csv_rows(data):
        if row[7] == "":
            summary[row[5]] = row[8]
            continue
        trajectory, round_index, outcome = int(row[7]), int(row[4]), row[5]
        if round_index == 1:
            _require(closed and trajectory == index + 1, f"trajectory {trajectory} starts out of order")
            index, closed = trajectory, False
        else:
            _require(
                not closed and trajectory == index and round_index == last_round + 1,
                f"trajectory {trajectory} round {round_index} out of order",
            )
        last_round = round_index
        _require(outcome in ("+", "-"), f"unknown outcome {outcome!r}")
        if outcome == "+":
            closed = True
            total += round_index
        cells = (row[6], row[8])
        if seen.get(round_index) != cells:
            state, probability = chain.at(round_index)
            _close(float(row[6]), probability, f"probability of round {round_index}")
            deviation = float(np.abs(_vector(row[8]) - state).max())
            _close(deviation, 0.0, f"state of round {round_index}")
            seen[round_index] = cells
    _require(closed and index == trials, f"expected {trials} closed trajectories, got {index}")
    _require(summary.get("trajectories") == str(trials), "wrong trajectories summary row")
    mean = total / trials
    _close(float(summary.get("mean-trials", "nan")), mean, "mean-trials summary", TOLERANCE * mean)
    return {"mean_trials": mean, "trajectories": trials, "attempts": total}


def check_tree_json(data: bytes, n: int, eps: float, trials: int) -> dict:
    """Every trajectory walks ``n`` tree levels from the thermal input."""
    obj = json.loads(data)
    trajectories = obj["trajectories"]
    _require(len(trajectories) == trials, f"expected {trials} trajectories, got {len(trajectories)}")
    _require(obj["summary"]["trajectories"] == trials, "wrong trajectories summary")
    _close(obj["summary"]["mean_trials"], 1.0, "mean_trials summary")
    start = np.ones(1)
    for _ in range(n + 1):
        start = np.kron(start, thermal_weights(eps))
    states = {"": start}
    for index, trajectory in enumerate(trajectories, start=1):
        _require(trajectory["index"] == index, f"trajectory {index} out of order")
        _require(trajectory["trials_used"] == 1 and trajectory["terminal"] is True, "bad trial count")
        attempts = trajectory["attempts"]
        _require(len(attempts) == n, f"trajectory {index} has {len(attempts)} levels")
        prefix = ""
        for level, attempt in enumerate(attempts):
            _require(attempt["round"] == level + 1, f"trajectory {index} level out of order")
            outcome = attempt["outcome"]
            _require(outcome in ("+", "-"), f"unknown outcome {outcome!r}")
            state = states[prefix]
            plus, minus = tree_branches(state, n, level)
            _close(attempt["probability"], float(plus.sum()), f"probability at level {level}")
            deviation = float(np.abs(np.asarray(attempt["state"]) - state).max())
            _close(deviation, 0.0, f"state at level {level}")
            prefix += outcome
            if prefix not in states:
                chosen = plus if outcome == "+" else minus
                states[prefix] = chosen / chosen.sum()
    return {"mean_trials": 1.0, "trajectories": trials, "attempts": trials}


def check_hbac_sample(data: bytes, n: int, eps: float) -> dict:
    """Plain cooling samples one converged state within 1e-10 L1 of the fixed point."""
    attempts = [row for row in _csv_rows(data) if row[7] != ""]
    _require(len(attempts) == 1, f"expected one attempt row, got {len(attempts)}")
    row = attempts[0]
    _require(row[4] == "1" and row[5] == "+", "plain cooling must succeed at round 1")
    _close(float(row[6]), 1.0, "probability")
    distance = float(np.abs(_vector(row[8]) - geometric_fixed_point(n, eps)).sum())
    _require(distance < FIXED_POINT_L1, f"state is {distance:.3e} L1 from the fixed point")
    return {}


# ---------------------------------------------------------------------------
# analysis commands
# ---------------------------------------------------------------------------

_OVERALL = re.compile(r"overall: (\d+)/(\d+) checks passed")


def check_validate(data: bytes) -> dict:
    lines = data.decode("utf-8").splitlines()
    match = _OVERALL.search(lines[-1]) if lines else None
    _require(match is not None, "validate printed no overall line")
    _require(match.group(1) == match.group(2), f"validate passed {match.group(1)}/{match.group(2)}")
    return {}


def _pure_qubits(scheme: str, n: int, k: int | None) -> tuple[int, int]:
    if scheme == "hbac":
        return 0, 0
    if scheme == "ico-tree-sort":
        return n, n
    if scheme == "hbac-kico":
        return 1, n + 1 - k
    return 1, n


def check_table1(data: bytes, n: int, eps: float, k: int) -> dict:
    rows: dict[str, dict[str, list[str]]] = {}
    for row in _csv_rows(data):
        rows.setdefault(row[0], {})[row[5]] = row
    _require(sorted(rows) == sorted(SCHEMES), f"table1 schemes {sorted(rows)}")
    for scheme, quantities in rows.items():
        scheme_k = k if scheme == "hbac-kico" else None
        expected = closed_form_success(scheme, n, eps, scheme_k)
        for quantity, row in quantities.items():
            _close(float(row[6]), expected, f"{scheme} probability column")
            _require(row[2] == ("" if scheme_k is None else str(k)), f"{scheme} k column")
        _close(float(quantities["success-probability"][8]), expected, f"{scheme} success")
        trials = float(quantities["expected-trials"][8])
        _close(trials, 1.0 / expected, f"{scheme} expected trials", TOLERANCE * trials)
        pure = (int(quantities["input-pure-qubits"][8]), int(quantities["output-pure-qubits"][8]))
        _require(pure == _pure_qubits(scheme, n, scheme_k), f"{scheme} pure qubits {pure}")
        bath = quantities["bath"][8]
        if scheme in ("ico-alone", "ico-tree-sort"):
            _require(bath == "none", f"{scheme} bath {bath}")
        else:
            _close(float(bath), eps, f"{scheme} bath")
    return {}


def check_run_hbac(data: bytes, n: int, eps: float) -> dict:
    """Plain cooling's final state is two_sort(reset(fixed point))."""
    rows = _csv_rows(data)
    values = {row[5]: row[8] for row in rows if row[5] != "final-state"}
    _close(float(values["success-probability"]), 1.0, "success-probability")
    final = np.array([float(row[8]) for row in rows if row[5] == "final-state"])
    ground, excited = thermal_weights(eps)
    expected = np.empty(2 ** (n + 1))
    profile = geometric_fixed_point(n, eps)
    expected[0::2] = profile * ground
    expected[1::2] = profile * excited
    expected[1:-2:2], expected[2:-1:2] = expected[2:-1:2].copy(), expected[1:-2:2].copy()
    _require(final.shape == expected.shape, f"final state has {final.size} entries")
    _close(float(np.abs(final - expected).max()), 0.0, "final state")
    return {}


def check_run_kico_json(data: bytes, n: int, k: int, eps: float) -> dict:
    report = json.loads(data)["report"]
    _close(report["success_probability"], closed_form_success("hbac-kico", n, eps, k), "success")
    _require(report["output_pure_qubits"] == n + 1 - k, "output pure qubits")
    final = np.asarray(report["final_state"])
    _require(final.size == 2 ** (n + 1 - k) and final[0] == 1.0 and final.sum() == 1.0, "final state")
    return {}
