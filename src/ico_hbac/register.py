"""State containers and thermal-reset primitives for qubit registers.

A register holds ``n + 1`` two-level systems: ``n`` storage qubits plus one
designated reset slot that exchanges population with an external bath.  All
protocol bookkeeping happens on computational-basis populations, so states
are plain nonnegative vectors:

* full register: length ``2**(n+1)`` (:class:`DiagonalState`),
* reset slot traced out: length ``2**n`` (:class:`ReducedState`).

Basis convention, fixed here and used everywhere: entry ``i`` corresponds to
the bits of ``i`` written big-endian with ``g = 0`` and ``e = 1``, and the
reset slot is the least significant bit.  Entry 0 is therefore the all-ground
label and entry 1 is all ground except the reset slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

MAX_REGISTER_EXPONENT = 24  # largest n of every state, spec and command

NORM_TOLERANCE = 1e-12


def _check_exponent(n: int) -> None:
    """Reject an exponent outside ``[1, MAX_REGISTER_EXPONENT]`` before any allocation."""
    if not 1 <= n <= MAX_REGISTER_EXPONENT:
        raise ValueError(f"n must be in [1, {MAX_REGISTER_EXPONENT}], got {n}")


@dataclass(frozen=True)
class ThermalParams:
    """Bath gap ``epsilon`` in units of k_B*T, with partition constant ``z = 2*cosh(epsilon)``.

    A slot thermalized against the bath carries populations
    ``(exp(epsilon)/z, exp(-epsilon)/z)`` on ``(|g>, |e>)``.  ``epsilon`` must
    be a finite number > 0 whose ``z`` does not overflow a float.
    """

    epsilon: float

    def __post_init__(self):
        epsilon = self.epsilon
        if isinstance(epsilon, bool) or not isinstance(epsilon, (int, float)):
            raise ValueError(f"epsilon must be a number, got {epsilon!r}")
        if not math.isfinite(epsilon) or epsilon <= 0:
            raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
        object.__setattr__(self, "epsilon", float(epsilon))
        try:
            z = 2.0 * math.cosh(self.epsilon)
        except OverflowError:
            z = math.inf
        if not math.isfinite(z):
            raise ValueError(f"epsilon={self.epsilon} overflows the partition constant")

    @property
    def ground_population(self) -> float:
        """Thermal weight of |g>, i.e. exp(epsilon)/z, evaluated without cancellation."""
        return 1.0 / (1.0 + math.exp(-2.0 * self.epsilon))

    @property
    def excited_population(self) -> float:
        """Thermal weight of |e>, i.e. exp(-epsilon)/z."""
        try:
            return 1.0 / (1.0 + math.exp(2.0 * self.epsilon))
        except OverflowError:
            # where exp(2 eps) overflows, 1/(1 + exp(2 eps)) is exp(-2 eps) to the last ulp
            return math.exp(-2.0 * self.epsilon)


def make_thermal_params(epsilon: float) -> ThermalParams:
    """Validate the gap and build :class:`ThermalParams`."""
    return ThermalParams(epsilon)


@dataclass(frozen=True, eq=False)
class _Populations:
    """Populations of ``n`` storage qubits plus ``RESET_SLOTS`` reset slots.

    The length, a power of two, fixes ``n``.  ``norm`` is the total
    probability carried: 1 for normalized states and less for unnormalized
    post-measurement branches.  It defaults to the sum of the entries.
    """

    RESET_SLOTS: ClassVar[int]

    populations: np.ndarray
    norm: float | None = None

    def __post_init__(self):
        arr = np.array(self.populations, dtype=np.float64, copy=True)
        if arr.ndim != 1:
            raise ValueError(f"populations must be one-dimensional, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("populations contains non-finite entries")
        if arr.size and arr.min() < 0.0:
            raise ValueError("populations contains negative entries")
        arr += 0.0  # -0.0 becomes 0.0, in place: no population carries a sign
        size, minimum = arr.size, 2**self.RESET_SLOTS
        if size < minimum or size & (size - 1):
            raise ValueError(
                f"population length must be a power of two >= {minimum}, got {size}"
            )
        n = size.bit_length() - 1 - self.RESET_SLOTS
        if n > MAX_REGISTER_EXPONENT:
            raise ValueError(f"n={n} outside [0, {MAX_REGISTER_EXPONENT}]")
        total = float(arr.sum())
        norm = total if self.norm is None else self.norm
        kind = type(self).__name__
        if not (isinstance(norm, (int, float)) and math.isfinite(norm)) or norm < 0:
            raise ValueError(f"{kind} norm must be finite and >= 0, got {norm!r}")
        if abs(total - norm) > NORM_TOLERANCE * max(1.0, norm):
            raise ValueError(f"{kind} entries sum to {total}, expected norm {norm}")
        arr.setflags(write=False)
        object.__setattr__(self, "populations", arr)
        object.__setattr__(self, "norm", float(norm))

    @property
    def n(self) -> int:
        return self.populations.size.bit_length() - 1 - self.RESET_SLOTS

    def normalized(self):
        if self.norm <= 0.0:
            raise ValueError("cannot normalize a zero-norm state")
        return type(self)(self.populations / self.norm, 1.0)


@dataclass(frozen=True, eq=False)
class DiagonalState(_Populations):
    """Computational-basis populations of the full ``n + 1``-qubit register."""

    RESET_SLOTS = 1
    # bound here, not only inherited: bench/tracer.py wraps each kind's own
    # __post_init__, and the register.* span metrics are read from those spans
    __post_init__ = _Populations.__post_init__


@dataclass(frozen=True, eq=False)
class ReducedState(_Populations):
    """Populations of the ``n`` storage qubits after tracing out the reset slot."""

    RESET_SLOTS = 0
    __post_init__ = _Populations.__post_init__  # bound here as in DiagonalState


def ground_state(n: int) -> DiagonalState:
    """All ``n + 1`` qubits in |g>: unit population on entry 0."""
    vec = np.zeros(2 ** (n + 1))
    vec[0] = 1.0
    return DiagonalState(vec, 1.0)


def uniform_full(n: int) -> DiagonalState:
    """Maximally mixed diagonal over the full register."""
    size = 2 ** (n + 1)
    return DiagonalState(np.full(size, 1.0 / size), 1.0)


def uniform_reduced(n: int) -> ReducedState:
    """Maximally mixed diagonal over the storage qubits."""
    size = 2**n
    return ReducedState(np.full(size, 1.0 / size), 1.0)


def _thermal_product(factors: int, params: ThermalParams) -> np.ndarray:
    weights = np.array([params.ground_population, params.excited_population])
    vec = np.ones(1)
    for _ in range(factors):
        vec = np.kron(vec, weights)
    return vec


def thermal_full(n: int, params: ThermalParams) -> DiagonalState:
    """Every qubit independently thermalized against the bath."""
    return DiagonalState(_thermal_product(n + 1, params), 1.0)


def thermal_reduced(n: int, params: ThermalParams) -> ReducedState:
    """Storage qubits independently thermalized against the bath."""
    return ReducedState(_thermal_product(n, params), 1.0)


def _reduce_raw(lam: np.ndarray) -> np.ndarray:
    return lam[0::2] + lam[1::2]


def reduce(state: DiagonalState) -> ReducedState:
    """Trace out the reset slot: pairwise sums of adjacent populations."""
    return ReducedState(_reduce_raw(state.populations), state.norm)


def _reset_raw(p: np.ndarray, ground: float, excited: float) -> np.ndarray:
    out = np.empty(2 * p.size)
    out[0::2] = p * ground
    out[1::2] = p * excited
    return out


def reset(state: ReducedState, params: ThermalParams) -> DiagonalState:
    """Attach a freshly thermalized reset slot to the reduced register.

    Entry ``2k`` of the result is ``p_k * exp(epsilon)/z`` and entry ``2k+1``
    is ``p_k * exp(-epsilon)/z``; the carried norm is unchanged.
    """
    out = _reset_raw(state.populations, params.ground_population, params.excited_population)
    return DiagonalState(out, state.norm)
