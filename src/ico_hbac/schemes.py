"""Executable purification protocols and their bookkeeping.

Five schemes are modeled.  Plain bath cooling converges to the geometric
stationary profile and never produces an exactly pure qubit.  The
switch-augmented variants condition on a control measurement: a plus outcome
heralds pure output qubits, a minus outcome triggers a retry policy.  Each
scheme is one ``_Scheme`` record, read here and in ``sampling`` in place of
its name, with a closed-form per-attempt success probability and a resource
summary.  :func:`sample_batch` draws seeded Monte Carlo runs; the attempt
chain it walks, its random draws and what a run means live in ``sampling``,
which only the commands that sample import.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .hbac_core import fixed_point, two_sort
from .register import (
    DiagonalState,
    ReducedState,
    ThermalParams,
    _check_exponent,
    ground_state,
    make_thermal_params,
    reset,
    thermal_full,
    thermal_reduced,
    uniform_full,
    uniform_reduced,
)
from .switch import (
    BlockUnitarySpec,
    ideal_pair,
    k_pair,
    standard_pair,
    switch_branches,
    tree_pair,
)

HBAC = "hbac"
HBAC_ICO = "hbac-ico"
ICO_ALONE = "ico-alone"
ICO_TREE_SORT = "ico-tree-sort"
HBAC_KICO = "hbac-kico"

STANDARD = "standard"
IDEAL = "ideal"
_PAIRS = {STANDARD: standard_pair, IDEAL: ideal_pair}  # ico-alone's two block layouts
PAIR_CHOICES = tuple(_PAIRS)


@dataclass(frozen=True, eq=False, slots=True)
class _Scheme:
    """What one scheme does.  ``retry`` is what a minus outcome leads to:

    * ``"step"``: keep the register and apply the minus-branch update, then
      ``repump_rounds`` plain cooling rounds toward the stationary profile;
    * ``"reprepare"``: re-prepare the input, because the bath-free minus
      branch empties the heralding labels;
    * ``"tree"``: none, since either outcome heralds: a run is one trial;
    * ``None``: plain cooling, which has no switch step.
    """

    retry: str | None
    spec: Callable[[SchemeConfig], BlockUnitarySpec | None]  # the switch block layout
    pure: Callable[[SchemeConfig], tuple[int, int]]  # (input, output) exactly pure qubits
    takes_k: bool = False

    @property
    def bath(self) -> bool:  # on the reduced register, which a minus step keeps, as cooling does
        return self.retry in (None, "step")


_SCHEMES = {
    HBAC: _Scheme(None, lambda c: None, lambda c: (0, 0)),
    HBAC_ICO: _Scheme("step", lambda c: standard_pair(c.n), lambda c: (1, c.n)),
    ICO_ALONE: _Scheme("reprepare", lambda c: _PAIRS[c.pair](c.n), lambda c: (1, c.n)),
    ICO_TREE_SORT: _Scheme(
        "tree", lambda c: tree_pair(c.n), lambda c: (1 if c.nondemolition else c.n, c.n)
    ),
    HBAC_KICO: _Scheme(
        "step", lambda c: k_pair(c.n, c.k), lambda c: (1, c.n + 1 - c.k), takes_k=True
    ),
}
SCHEMES = tuple(_SCHEMES)

INITIAL_SELECTORS = ("uniform", "thermal", "fixed-point")

# most cooling rounds a failed attempt may re-pump: every chain row runs them all,
# at O(2**n) each, so an unbounded count lets an accepted input spin
MAX_REPUMP_ROUNDS = 10_000


class MaxAttemptsError(RuntimeError):
    """A trajectory exhausted its attempt budget without a plus outcome.

    ``trajectory`` is the failed run's trials used, its whole budget.
    """

    def __init__(self, message: str, trajectory: int):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass(frozen=True, eq=False)
class SchemeConfig:
    """Everything needed to evaluate or sample one purification scheme.

    ``epsilon`` is required for bath schemes and optional otherwise (used only
    to build thermal default initial states).  ``k`` is required exactly for
    the k-switch scheme.  ``initial`` overrides the default evaluation state
    of a switch scheme (plain cooling takes none): the stationary profile with
    a bath, a thermal product without one.  It is what a run spec gives, a
    selector from ``INITIAL_SELECTORS`` or a list of populations, and becomes
    the state it names once every other check has passed.
    """

    scheme: str
    n: int
    epsilon: float | None = None
    k: int | None = None
    initial: str | list | None = None
    desired_success: float | None = None
    seed: int = 0
    pair: str = STANDARD
    nondemolition: bool = False
    repump_rounds: int = 0
    max_attempts: int = 100_000

    def __post_init__(self):
        record = _SCHEMES.get(self.scheme)
        if record is None:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        _check_exponent(self.n)
        if record.takes_k:
            if self.k is None:
                raise ValueError(f"k is required for {self.scheme}")
            if not 1 <= self.k <= self.n:
                raise ValueError(f"k must be in [1, {self.n}], got {self.k}")
        elif self.k is not None:
            raise ValueError(f"k is only meaningful for {HBAC_KICO}")
        if record.retry is None and self.initial is not None:
            raise ValueError(f"{self.scheme} takes no initial state: it converges from any start")
        if record.bath and self.epsilon is None:
            raise ValueError(f"{self.scheme} needs epsilon")
        if self.epsilon is not None:
            make_thermal_params(self.epsilon)
        if self.desired_success is not None and not 0.0 < self.desired_success < 1.0:
            raise ValueError(f"desired_success must be in (0, 1), got {self.desired_success}")
        if self.pair not in PAIR_CHOICES:
            raise ValueError(f"pair must be one of {PAIR_CHOICES}, got {self.pair!r}")
        if self.repump_rounds < 0:
            raise ValueError(f"repump_rounds must be >= 0, got {self.repump_rounds}")
        if self.repump_rounds > MAX_REPUMP_ROUNDS:
            raise ValueError(
                f"repump_rounds is capped at {MAX_REPUMP_ROUNDS}, got {self.repump_rounds}"
            )
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.initial is not None:
            object.__setattr__(self, "initial", _build_initial(self, self.initial))
            if self.initial.norm <= 0.0:
                raise ValueError(
                    f"initial state must have a positive norm, got {self.initial.norm}"
                )

    @property
    def params(self) -> ThermalParams | None:
        return None if self.epsilon is None else make_thermal_params(self.epsilon)

    @property
    def _record(self) -> _Scheme:
        return _SCHEMES[self.scheme]


@dataclass(frozen=True, eq=False)
class SchemeReport:
    """Resource row and success law for one scheme configuration."""

    success_probability: float
    output_pure_qubits: int
    input_pure_qubits: int
    bath_used: bool
    expected_trials: float
    trials_for_desired: int | None = None


def scheme_spec(config: SchemeConfig) -> BlockUnitarySpec | None:
    """Block-unitary family used by the scheme's switch step (None for plain cooling)."""
    return config._record.spec(config)


def _build_initial(config: SchemeConfig, initial: str | list) -> DiagonalState | ReducedState:
    """A selector's state, or a list of populations as a state, of the kind the scheme acts on."""
    bath = config._record.bath
    n, params = config.n, config.params
    if isinstance(initial, list):
        expected = 2**n if bath else 2 ** (n + 1)
        if len(initial) != expected:
            raise ValueError(
                f"explicit initial vector must have length {expected} for this scheme, "
                f"got {len(initial)}"
            )
        return (ReducedState if bath else DiagonalState)(initial)
    if not isinstance(initial, str) or initial not in INITIAL_SELECTORS:
        raise ValueError(
            f"initial must be one of {INITIAL_SELECTORS} or a list of populations, "
            f"got {initial!r}"
        )
    if initial == "uniform":
        return uniform_reduced(n) if bath else uniform_full(n)
    if params is None:
        raise ValueError(f"a {initial} initial state needs epsilon")
    if initial == "thermal":
        return thermal_reduced(n, params) if bath else thermal_full(n, params)
    profile = fixed_point(n, params)
    return profile if bath else reset(profile, params)


def initial_state(config: SchemeConfig) -> DiagonalState | ReducedState:
    """Evaluation state: the explicit initial, else the scheme default.

    Bath schemes default to the stationary profile; bath-free schemes default
    to a thermal product, or uniform without a bath.
    """
    if config.initial is not None:
        return config.initial
    if config._record.bath:
        return _build_initial(config, "fixed-point")
    return _build_initial(config, "uniform" if config.epsilon is None else "thermal")


def plus_weight_vector(config: SchemeConfig) -> np.ndarray:
    """Weights whose dot with the evaluation state gives the plus-branch norm.

    For bath schemes the weights act on reduced populations (the thermal
    reset is folded in); for bath-free schemes they act on full-register
    populations.
    """
    spec = scheme_spec(config)
    if spec is None:
        raise ValueError("plain bath cooling has no switch step")
    mask = spec.one_mask
    if config._record.bath:
        params = config.params
        return (
            params.ground_population * mask[0::2] + params.excited_population * mask[1::2]
        )
    return mask.astype(np.float64)


def success_probability(config: SchemeConfig) -> float:
    """Closed-form per-attempt success probability.

    Heralded schemes return the plus-branch norm at the evaluation state; the
    deterministic schemes return 1 since every outcome heralds success.
    """
    if config._record.retry in (None, "tree"):
        return 1.0
    params = config.params
    if config._record.retry == "reprepare":
        if config.initial is None and params is None:
            # two entries of uniform_full, each exactly 2**-(n + 1), over its exact sum 1
            return 2.0**-config.n
        if config.initial is None:
            # entries 0 and -1 (standard) or 1 (ideal) of thermal_full, each a
            # product of n + 1 weights in the Kronecker order
            g, e, n = params.ground_population, params.excited_population, config.n
            last = (e,) * (n + 1) if config.pair == STANDARD else (g,) * n + (e,)
            return math.prod((g,) * (n + 1)) + math.prod(last)
        return float(
            plus_weight_vector(config) @ config.initial.populations / config.initial.norm
        )
    eps = params.epsilon
    if config.scheme == HBAC_ICO:
        if config.initial is None:
            decay = math.exp(-2.0 * eps * 2**config.n)
            return (
                -math.expm1(-2.0 * eps)
                * (1.0 + decay)
                / ((1.0 + math.exp(-2.0 * eps)) * -math.expm1(-2.0 * eps * 2**config.n))
            )
        p = config.initial
        return float(
            (
                params.ground_population * p.populations[0]
                + params.excited_population * p.populations[-1]
            )
            / p.norm
        )
    # HBAC_KICO: the plus branch keeps the first 2**(k-1) reduced entries
    if config.initial is None:
        return math.expm1(-eps * 2**config.k) / math.expm1(-eps * 2 ** (config.n + 1))
    p = config.initial
    return float(p.populations[: 2 ** (config.k - 1)].sum() / p.norm)


def expected_trials(success_probability: float, desired: float) -> int:
    """Smallest attempt count whose cumulative success reaches ``desired``."""
    if not 0.0 <= success_probability <= 1.0:
        raise ValueError(f"success probability must be in [0, 1], got {success_probability}")
    if not 0.0 < desired < 1.0:
        raise ValueError(f"desired success must be in (0, 1), got {desired}")
    if success_probability == 0.0:
        raise ValueError("success probability is 0: no attempt count suffices")
    if success_probability == 1.0:
        return 1
    failure_log = math.log1p(-success_probability)
    estimate = math.log1p(-desired) / failure_log
    if math.isinf(2.0 * estimate):
        raise ValueError(
            f"success probability {success_probability!r} is too small to count attempts"
        )

    def reached(count: int) -> bool:
        return -math.expm1(count * failure_log) >= desired

    # bisect between a count that falls short and one that reaches: past 2**53
    # neighbouring counts share a float, so a walk of one count per step stalls
    short, enough = 0, max(1, math.ceil(estimate))
    while not reached(enough):
        short, enough = enough, 2 * enough
    while enough - short > 1:
        middle = (short + enough) // 2
        short, enough = (short, middle) if reached(middle) else (middle, enough)
    return enough


def run_round(
    state: DiagonalState | ReducedState, config: SchemeConfig
) -> tuple[DiagonalState, DiagonalState]:
    """One protocol round: thermal reset (bath schemes only), then the switch split.

    A bath scheme takes the reduced register (``ReducedState``), a bath-free
    scheme the full register (``DiagonalState``); either kind elsewhere raises
    ``TypeError``.
    """
    spec = scheme_spec(config)
    if spec is None:
        raise ValueError("plain bath cooling has no switch round")
    bath = config._record.bath
    if not isinstance(state, ReducedState if bath else DiagonalState):
        raise TypeError(f"{config.scheme} acts on the {'reduced' if bath else 'full'} register")
    if state.n != config.n:
        raise ValueError(f"state has n={state.n}, config has n={config.n}")
    return switch_branches(reset(state, config.params) if bath else state, spec)


# trajectories drawn together: bounds the draw's arrays (traced peak 1.9 MiB at n = 3)
_SLICE = 1 << 14


# kept out of sampling while bench/tracer.py reads schemes.sample_batch spans (ROADMAP D2)
def sample_batch(chain, count: int) -> np.ndarray:
    """Draw ``count`` runs against ``chain``, a ``sampling.AttemptChain``, one stream per index.

    Run ``i`` draws from the Philox stream keyed by ``(chain.config.seed, i)``,
    so results are identical however the batch is sliced; ``chain.draw``
    takes any other stream indices.  Each run is one entry of the returned
    1-D int64 array; ``sampling`` says what the integer means.  A heralded
    run that exhausts ``max_attempts``, or reaches a plus probability of
    exactly zero on a retry that cannot raise it, raises
    :class:`MaxAttemptsError`.  Chain states are computed only up to the
    last attempt some run reached.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    runs = np.empty(count, dtype=np.int64)
    for offset in range(0, count, _SLICE):
        end = min(offset + _SLICE, count)
        runs[offset:end] = chain.draw(np.arange(offset, end, dtype=np.uint64))
    return runs


def run_scheme(config: SchemeConfig) -> SchemeReport:
    """Evaluate the scheme's resource row and success law."""
    probability = success_probability(config)
    input_pure, output_pure = config._record.pure(config)
    expected = math.inf if probability == 0.0 else 1.0 / probability
    trials_for_desired = (
        None
        if config.desired_success is None
        else expected_trials(probability, config.desired_success)
    )
    return SchemeReport(
        success_probability=probability,
        output_pure_qubits=output_pure,
        input_pure_qubits=input_pure,
        bath_used=config._record.bath,
        expected_trials=expected,
        trials_for_desired=trials_for_desired,
    )


def final_state(config: SchemeConfig) -> DiagonalState:
    """Register state after the scheme runs.

    Plain cooling leaves the sorted, freshly reset stationary profile; every
    other scheme leaves its exactly pure output qubits, all in ``|g>``.
    """
    if config._record.retry is None:
        params = config.params
        return two_sort(reset(fixed_point(config.n, params), params))
    return ground_state(config._record.pure(config)[1] - 1)
