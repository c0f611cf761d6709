"""Bath-assisted cooling dynamics on reduced populations.

One cooling round is reset -> two_sort -> reduce.  On the reduced register
this acts as a column-stochastic transfer matrix whose dominant eigenvector
is a geometric profile; :func:`fixed_point` evaluates that profile in closed
form and :func:`iterate` reproduces it by repeated round application.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .register import (
    DiagonalState,
    ReducedState,
    ThermalParams,
    _check_exponent,
    _reduce_raw,
    _reset_raw,
)

DENSE_MATRIX_CAP = 12


class ConvergenceError(RuntimeError):
    """Iteration exhausted its step budget; carries the last iterate."""

    def __init__(self, message: str, state: ReducedState, steps: int):
        super().__init__(message)
        self.state = state
        self.steps = steps


@dataclass(frozen=True, eq=False)
class TransferMatrix:
    """Reduced-space linear map of one protocol round (``2**n x 2**n``).

    ``entries`` is a square, power-of-two, nonnegative matrix, stored
    read-only; a state's image is ``entries @ state.populations``.  Built by
    :func:`build_transfer` for the unconditioned round and by
    ``switch.branch_transfer`` for a round conditioned on one outcome.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.float64, copy=True)
        size = arr.shape[0] if arr.ndim == 2 else 0
        if arr.shape != (size, size) or size < 1 or size & (size - 1):
            raise ValueError(f"expected a square power-of-two shape, got {arr.shape}")
        if float(arr.min()) < 0.0:
            raise ValueError("transfer matrix entries must be nonnegative")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)


def _swap_interior(arr: np.ndarray) -> None:
    # pairs (1,2), (3,4), ..., (M-3, M-2) in 0-based indexing; both ends fixed
    tmp = arr[1:-2:2].copy()
    arr[1:-2:2] = arr[2:-1:2]
    arr[2:-1:2] = tmp


def two_sort(state: DiagonalState) -> DiagonalState:
    """Sorting permutation that pushes large populations toward all-ground.

    Fixes the first and last populations, swaps every interior adjacent pair;
    applying it twice is the identity.
    """
    if state.n < 1:
        raise ValueError("two_sort needs a register with at least two qubits")
    arr = state.populations.copy()
    _swap_interior(arr)
    return DiagonalState(arr, state.norm)


def _round_raw(p: np.ndarray, ground: float, excited: float) -> np.ndarray:
    lam = _reset_raw(p, ground, excited)
    _swap_interior(lam)
    return _reduce_raw(lam)


def hbac_round(state: ReducedState, params: ThermalParams) -> ReducedState:
    """One full cooling round on the reduced register: reset, sort, reduce."""
    if state.n < 1:
        raise ValueError("a cooling round needs at least one storage qubit")
    vec = _round_raw(state.populations, params.ground_population, params.excited_population)
    return ReducedState(vec, state.norm)


def build_transfer(n: int, params: ThermalParams) -> TransferMatrix:
    """Dense transfer matrix of one round.

    Row 0 is ``(e^eps, e^eps, 0, ...)/z``, interior rows carry ``e^-eps/z`` on
    the subdiagonal and ``e^eps/z`` on the superdiagonal, and the last row
    ends ``(e^-eps, e^-eps)/z``.  Columns sum to one.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > DENSE_MATRIX_CAP:
        raise ValueError(f"dense transfer matrices are capped at n={DENSE_MATRIX_CAP}, got n={n}")
    size = 2**n
    ground = params.ground_population
    excited = params.excited_population
    matrix = np.zeros((size, size))
    matrix[0, 0] = matrix[0, 1] = ground
    inner = np.arange(1, size - 1)
    matrix[inner, inner - 1] = excited
    matrix[inner, inner + 1] = ground
    matrix[size - 1, size - 2] = matrix[size - 1, size - 1] = excited
    return TransferMatrix(matrix)


def fixed_point(n: int, params: ThermalParams) -> ReducedState:
    """Stationary reduced state: a geometric profile with ratio ``exp(-2 eps)``.

    Entry ``k`` is ``(1 - e^{-2 eps}) / (1 - e^{-2 eps 2^n}) * e^{-2 eps k}``,
    evaluated through ``expm1`` so small gaps do not cancel; for very cold
    baths the denominator saturates at one automatically.
    """
    _check_exponent(n)
    size = 2**n
    eps = params.epsilon
    prefactor = math.expm1(-2.0 * eps) / math.expm1(-2.0 * eps * size)
    vec = prefactor * np.exp(-2.0 * eps * np.arange(size))
    return ReducedState(vec, 1.0)


def iterate(
    state0: ReducedState,
    params: ThermalParams,
    tol: float = 1e-12,
    max_steps: int = 100_000,
) -> tuple[ReducedState, int]:
    """Apply cooling rounds until successive iterates differ by < ``tol`` in L1.

    Returns the converged state and the number of rounds used.  Raises
    :class:`ConvergenceError` carrying the last iterate when the budget runs
    out.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    if state0.n < 1:
        raise ValueError("iteration needs at least one storage qubit")
    ground = params.ground_population
    excited = params.excited_population
    norm = state0.norm
    p = state0.populations.copy()
    for step in range(1, max_steps + 1):
        nxt = _round_raw(p, ground, excited)
        if norm > 0.0:
            # one round preserves the norm only to rounding; rescaling keeps
            # ulp-sized errors from compounding over thousands of rounds
            nxt *= norm / float(nxt.sum())
        diff = float(np.abs(nxt - p).sum())
        p = nxt
        if diff < tol:
            return ReducedState(p, state0.norm), step
    raise ConvergenceError(
        f"no convergence to tol={tol} within {max_steps} rounds",
        ReducedState(p, state0.norm),
        max_steps,
    )
