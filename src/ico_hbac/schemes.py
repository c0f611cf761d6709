"""Executable purification protocols and their bookkeeping.

Five schemes are modeled.  Plain bath cooling converges to the geometric
stationary profile and never produces an exactly pure qubit.  The
switch-augmented variants condition on a control measurement: a plus outcome
heralds pure output qubits, a minus outcome triggers a retry policy.  Each
scheme exposes a closed-form per-attempt success probability, a resource
summary, and a seeded Monte Carlo trajectory sampler.

Sampled runs of a heralded scheme are integers: each walks the scheme's one
deterministic failure chain until its first plus outcome, so the number of
trials it used is all there is to record.  Their random draws are the
counter-based Philox4x64-10 streams of ``numpy.random.Philox`` keyed
``(seed, index)``, computed in numpy for every unresolved run at once, in
counter blocks of four uniforms.

Retry policies:

* bath schemes keep the register and apply the minus-branch update (plus an
  optional number of plain cooling rounds, ``repump_rounds``, to re-pump
  toward the stationary profile); note that the k-switch branch maps are
  diagonal on the reduced register, so after a failure the heralding weight
  is exactly zero until at least one re-pump round runs;
* the bath-free switch scheme re-prepares the input, because its minus branch
  empties the heralding labels;
* the tree-sort scheme succeeds on either outcome, so it always uses one
  trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hbac_core import fixed_point, hbac_round, two_sort
from .register import (
    DiagonalState,
    ReducedState,
    ThermalParams,
    _check_exponent,
    ground_state,
    make_thermal_params,
    reduce,
    reset,
    thermal_full,
    thermal_reduced,
    uniform_full,
)
from .switch import (
    MINUS,
    PLUS,
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
SCHEMES = (HBAC, HBAC_ICO, ICO_ALONE, ICO_TREE_SORT, HBAC_KICO)

BATH_SCHEMES = frozenset({HBAC, HBAC_ICO, HBAC_KICO})

STANDARD = "standard"
IDEAL = "ideal"
PAIR_CHOICES = (STANDARD, IDEAL)

SUPPORT_TOLERANCE = 1e-12


class MaxAttemptsError(RuntimeError):
    """A trajectory exhausted its attempt budget without a plus outcome.

    ``trajectory`` is the failed run's trials used, its whole budget, and
    ``index`` its stream index: the lowest of the batch that failed.
    """

    def __init__(self, message: str, trajectory: int, index: int):
        super().__init__(message)
        self.trajectory = trajectory
        self.index = index


@dataclass(frozen=True, eq=False)
class SchemeConfig:
    """Everything needed to evaluate or sample one purification scheme.

    ``epsilon`` is required for bath schemes and optional otherwise (used only
    to build thermal default initial states).  ``k`` is required exactly for
    the k-switch scheme.  ``initial`` overrides the scheme default evaluation
    state: the stationary profile for bath switch schemes, a thermal product
    for the bath-free ones.
    """

    scheme: str
    n: int
    epsilon: float | None = None
    k: int | None = None
    initial: DiagonalState | ReducedState | None = None
    desired_success: float | None = None
    seed: int = 0
    pair: str = STANDARD
    level: int = 0
    nondemolition: bool = False
    repump_rounds: int = 0
    max_attempts: int = 100_000

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        _check_exponent(self.n)
        if self.scheme == HBAC_KICO:
            if self.k is None:
                raise ValueError(f"k is required for {HBAC_KICO}")
            if not 1 <= self.k <= self.n:
                raise ValueError(f"k must be in [1, {self.n}], got {self.k}")
        elif self.k is not None:
            raise ValueError(f"k is only meaningful for {HBAC_KICO}")
        if self.scheme in BATH_SCHEMES and self.epsilon is None:
            raise ValueError(f"{self.scheme} needs epsilon")
        if self.epsilon is not None:
            make_thermal_params(self.epsilon)
        if self.desired_success is not None and not 0.0 < self.desired_success < 1.0:
            raise ValueError(f"desired_success must be in (0, 1), got {self.desired_success}")
        if self.pair not in PAIR_CHOICES:
            raise ValueError(f"pair must be one of {PAIR_CHOICES}, got {self.pair!r}")
        if not 0 <= self.level <= self.n - 1:
            raise ValueError(f"level must be in [0, {self.n - 1}], got {self.level}")
        if self.repump_rounds < 0:
            raise ValueError(f"repump_rounds must be >= 0, got {self.repump_rounds}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.initial is not None:
            if self.scheme in BATH_SCHEMES:
                if not isinstance(self.initial, ReducedState):
                    raise TypeError("bath schemes take a ReducedState initial")
            elif not isinstance(self.initial, DiagonalState):
                raise TypeError("bath-free schemes take a DiagonalState initial")
            if self.initial.n != self.n:
                raise ValueError(
                    f"initial state has n={self.initial.n}, config has n={self.n}"
                )
            if self.initial.norm <= 0.0:
                raise ValueError(
                    f"initial state must have a positive norm, got {self.initial.norm}"
                )

    @property
    def params(self) -> ThermalParams | None:
        return None if self.epsilon is None else make_thermal_params(self.epsilon)


@dataclass(frozen=True, eq=False)
class SchemeReport:
    """Resource row and success law for one scheme configuration."""

    success_probability: float
    output_pure_qubits: int
    input_pure_qubits: int
    bath_used: bool
    expected_trials: float
    trials_for_desired: int | None = None


class TreeOutcomes(str):
    """One tree-sort run: its control outcomes, one ``+`` or ``-`` per level.

    The cascade succeeds on either outcome, so the run is a single trial.
    """

    trials_used = 1


def scheme_spec(config: SchemeConfig) -> BlockUnitarySpec | None:
    """Block-unitary family used by the scheme's switch step (None for plain cooling)."""
    if config.scheme == HBAC:
        return None
    if config.scheme == HBAC_ICO:
        return standard_pair(config.n)
    if config.scheme == HBAC_KICO:
        return k_pair(config.n, config.k)
    if config.scheme == ICO_ALONE:
        return standard_pair(config.n) if config.pair == STANDARD else ideal_pair(config.n)
    return tree_pair(config.n, config.level)


def initial_state(config: SchemeConfig) -> DiagonalState | ReducedState:
    """Evaluation state: the explicit initial, else the scheme default.

    Bath schemes act on reduced states and default to a thermal product (plain
    cooling) or the stationary profile; bath-free schemes act on the full
    register and default to a thermal product, or uniform without a bath.
    """
    if config.initial is not None:
        return config.initial
    params = config.params
    if config.scheme == HBAC:
        return thermal_reduced(config.n, params)
    if config.scheme in BATH_SCHEMES:
        return fixed_point(config.n, params)
    return uniform_full(config.n) if params is None else thermal_full(config.n, params)


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
    if config.scheme in BATH_SCHEMES:
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
    scheme = config.scheme
    if scheme in (HBAC, ICO_TREE_SORT):
        return 1.0
    params = config.params
    if scheme == ICO_ALONE:
        if config.initial is None and params is None:
            # two entries of uniform_full, each exactly 2**-(n + 1), over its exact sum 1
            return 2.0**-config.n
        if config.initial is None:
            # entries 0 and -1 (standard) or 1 (ideal) of thermal_full, each a
            # product of n + 1 weights in the Kronecker order
            g, e, n = params.ground_population, params.excited_population, config.n
            last = (e,) * (n + 1) if config.pair == STANDARD else (g,) * n + (e,)
            return math.prod((g,) * (n + 1)) + math.prod(last)
        lam = initial_state(config)
        vec = lam.populations
        weight = vec[0] + (vec[-1] if config.pair == STANDARD else vec[1])
        return float(weight / lam.norm)
    eps = params.epsilon
    if scheme == HBAC_ICO:
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

    def reached(count: int) -> bool:
        return -math.expm1(count * failure_log) >= desired

    m = max(1, math.ceil(math.log1p(-desired) / failure_log))
    while not reached(m):
        m += 1
    while m > 1 and reached(m - 1):
        m -= 1
    return m


def run_round(
    state: DiagonalState | ReducedState, config: SchemeConfig
) -> tuple[DiagonalState, DiagonalState]:
    """One protocol round: thermal reset (bath schemes only), then the switch split."""
    spec = scheme_spec(config)
    if spec is None:
        raise ValueError("plain bath cooling has no switch round")
    if config.scheme in BATH_SCHEMES:
        reduced = reduce(state) if isinstance(state, DiagonalState) else state
        if reduced.n != config.n:
            raise ValueError(f"state has n={reduced.n}, config has n={config.n}")
        lam = reset(reduced, config.params)
    else:
        if not isinstance(state, DiagonalState):
            raise TypeError("bath-free schemes act on the full register")
        if state.n != config.n:
            raise ValueError(f"state has n={state.n}, config has n={config.n}")
        lam = state
    return switch_branches(lam, spec)


def failure_update(
    state: ReducedState, params: ThermalParams, spec: BlockUnitarySpec
) -> ReducedState:
    """Renormalized reduced state after a minus outcome of reset-then-switch."""
    _plus, minus = switch_branches(reset(state, params), spec)
    survivor = reduce(minus)
    if survivor.norm <= 0.0:
        raise ValueError("minus branch carries zero probability; cannot condition on it")
    return survivor.normalized()


def pi_pulse_correct(state: DiagonalState, measured_qubit_outcome: str) -> DiagonalState:
    """Collapse a heralded extremal state to pure ground on the unmeasured qubits.

    The reset-slot qubit is read out in the energy basis.  A ``"g"`` result
    leaves the rest all ground; an ``"e"`` result leaves them all excited, and
    the deterministic flip maps that to all ground.  The surviving register of
    one fewer qubit is returned as a normalized pure ground state.
    """
    if measured_qubit_outcome not in ("g", "e"):
        raise ValueError(f"outcome must be 'g' or 'e', got {measured_qubit_outcome!r}")
    if state.n < 1:
        raise ValueError("need at least two qubits to measure one away")
    lam = state.populations
    leak = float(lam[1:-1].sum())
    if leak > SUPPORT_TOLERANCE * max(state.norm, 1e-300):
        raise ValueError(
            f"state is not supported on the two extremal labels (leak {leak:.3e})"
        )
    weight = lam[0] if measured_qubit_outcome == "g" else lam[-1]
    if weight <= 0.0:
        raise ValueError(f"measured outcome {measured_qubit_outcome!r} has zero probability")
    return ground_state(state.n - 1)


class AttemptChain:
    """Pre-measurement states and plus probabilities shared by a batch of runs.

    The state an attempt sees depends only on the outcomes before it, so every
    state and its plus probability are computed once, on first use, and all
    trajectories read them from here.  A position in the chain is

    * for heralded schemes, the 1-based attempt number along the
      deterministic failure chain (every earlier outcome was a minus);
    * for tree sort, the string of earlier outcomes: each prefix is split
      once, one level of the cascade per character;
    * for plain cooling, attempt 1 only: the stationary profile, which
      always heralds.
    """

    def __init__(self, config: SchemeConfig):
        self.config = config
        # zero heralding weight stays exactly zero on these retries: the
        # bath-free retry re-prepares the input, and without re-pump rounds
        # both k-switch branch maps are diagonal on the reduced register
        self.absorbing = config.scheme == ICO_ALONE or (
            config.scheme == HBAC_KICO and config.repump_rounds == 0
        )
        if config.scheme == ICO_TREE_SORT:
            self._level_specs = [tree_pair(config.n, level) for level in range(config.n)]
            self._tree: dict[str, tuple[DiagonalState, DiagonalState, DiagonalState]] = {}
            return
        if config.scheme == HBAC:
            # the stationary profile is unique: every initial converges to it
            self._states = [fixed_point(config.n, config.params)]
            self._probabilities = [1.0]
            return
        self._spec = scheme_spec(config)
        self._weights = plus_weight_vector(config)
        first = initial_state(config).normalized()
        self._states = [first]
        self._probabilities = [self._plus_probability(first)]

    def __len__(self) -> int:
        """Number of distinct states computed so far."""
        return len(self._tree) if self.config.scheme == ICO_TREE_SORT else len(self._states)

    def at(self, position) -> tuple[DiagonalState | ReducedState, float]:
        """(pre-measurement state, plus probability) at a chain position."""
        if self.config.scheme == ICO_TREE_SORT:
            state, plus, _minus = self._tree_node(position)
            return state, plus.norm
        while len(self._states) < position:
            nxt = self._next_state(self._states[-1])
            self._states.append(nxt)
            self._probabilities.append(self._plus_probability(nxt))
        return self._states[position - 1], self._probabilities[position - 1]

    def positions(self, outcomes: str):
        """Chain position of every attempt recorded in ``outcomes``, in order."""
        if self.config.scheme == ICO_TREE_SORT:
            return [outcomes[:level] for level in range(len(outcomes))]
        return range(1, len(outcomes) + 1)

    def _plus_probability(self, state) -> float:
        return float(self._weights @ state.populations)

    def _next_state(self, state):
        if self.config.scheme == ICO_ALONE:
            return self._states[0]  # retry re-prepares the input
        nxt = failure_update(state, self.config.params, self._spec)
        for _ in range(self.config.repump_rounds):
            nxt = hbac_round(nxt, self.config.params)
        return nxt

    def _tree_node(self, prefix: str):
        node = self._tree.get(prefix)
        if node is None:
            if prefix:
                _parent, plus, minus = self._tree_node(prefix[:-1])
                state = (plus if prefix[-1] == PLUS else minus).normalized()
            else:
                state = initial_state(self.config).normalized()
            node = (state, *switch_branches(state, self._level_specs[len(prefix)]))
            self._tree[prefix] = node
        return node


# Philox4x64-10 round multipliers and key increments (Salmon et al., SC'11), as
# numpy.random.Philox uses them.  They stay Python ints until the kernel runs:
# building uint64 arrays at import costs every command about 0.2 MB of RSS.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)

_SLICE = 1 << 14  # trajectories drawn together: bounds the kernel's temporaries (~5 MB)
_LANES = 1024  # (stream, block) pairs a kernel call fills once few runs are live


def _philox_uniforms(seed: int, streams: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Counter block ``blocks[i]`` of the stream keyed ``(seed, streams[i])``, as uniforms.

    Row ``i`` holds the four doubles that
    ``Generator(Philox(key=[seed, streams[i]])).random()`` returns as its draws
    ``4 * blocks[i]`` to ``4 * blocks[i] + 3``: numpy bumps the counter before
    each block, so block ``b`` is counter ``(b + 1, 0, 0, 0)``, and a double is
    the top 53 bits of a word times ``2**-53``.  The high word of each 64-bit
    product is assembled from 32-bit halves.
    """
    low32, shift = np.uint64(0xFFFFFFFF), np.uint64(32)
    # one row per product word
    multiplier = np.array(_PHILOX_M, dtype=np.uint64)[:, None]
    weyl = np.array(_PHILOX_W, dtype=np.uint64)[:, None]
    m_low, m_high = multiplier & low32, multiplier >> shift
    key = np.empty((2, streams.size), dtype=np.uint64)
    key[0] = seed
    key[1] = streams
    words = np.zeros((4, streams.size), dtype=np.uint64)
    words[0] = blocks + 1
    for round_index in range(10):
        if round_index:
            key += weyl
        factor = words[0::2]
        low, high = factor & low32, factor >> shift
        low_m_low = low * m_low
        high_m_low = high * m_low
        cross = (low_m_low >> shift) + (high_m_low & low32) + low * m_high
        top = high * m_high + (high_m_low >> shift) + (cross >> shift)
        bottom = factor * multiplier
        words = np.stack(
            (top[1] ^ words[1] ^ key[0], bottom[1], top[0] ^ words[3] ^ key[1], bottom[0])
        )
    return ((words >> np.uint64(11)) * 2.0**-53).T


def _exhausted(config: SchemeConfig, stream: int, zero_from: int | None = None):
    message = f"no plus outcome within {config.max_attempts} attempts"
    if zero_from is not None:
        message += f": the plus probability is exactly 0 from attempt {zero_from} on"
    return MaxAttemptsError(message, config.max_attempts, stream)


def _heralded_trials(chain: AttemptChain, streams: np.ndarray) -> np.ndarray:
    """Trials used by the run of each stream: attempt ``j`` reads uniform ``j - 1``."""
    config = chain.config
    trials = np.empty(streams.size, dtype=np.int64)
    live = np.arange(streams.size)
    uniforms = np.empty((streams.size, 0))
    first = 1  # the attempt that reads uniforms[:, 0]
    for attempt in range(1, config.max_attempts + 1):
        column = attempt - first
        if column == uniforms.shape[1]:
            # the next counter blocks of every live stream; when few are live,
            # one call looks several blocks ahead instead of one call per block
            ahead = max(1, _LANES // live.size)
            blocks = (attempt - 1) // 4 + np.arange(ahead)
            uniforms = _philox_uniforms(
                config.seed, np.repeat(streams[live], ahead), np.tile(blocks, live.size)
            ).reshape(live.size, 4 * ahead)
            first, column = attempt, 0
        _state, probability = chain.at(attempt)
        if probability == 0.0 and chain.absorbing:
            raise _exhausted(config, int(streams[live[0]]), zero_from=attempt)
        plus = uniforms[:, column] < probability
        if plus.any():
            trials[live[plus]] = attempt
            live, uniforms = live[~plus], uniforms[~plus]
            if not live.size:
                return trials
    raise _exhausted(config, int(streams[live[0]]))


def _prefix(code: int) -> str:
    """Outcome prefix of a code: a leading 1 bit, then one bit per level, 1 for plus."""
    return bin(code)[3:].replace("1", PLUS).replace("0", MINUS)


def _tree_outcomes(chain: AttemptChain, streams: np.ndarray) -> list[TreeOutcomes]:
    """Outcomes of the run of each stream: level ``l`` reads uniform ``l``."""
    config = chain.config
    codes = np.ones(streams.size, dtype=np.int64)
    for level in range(config.n):
        if level % 4 == 0:
            uniforms = _philox_uniforms(config.seed, streams, np.full(streams.size, level // 4))
        # one chain lookup per distinct prefix, however many runs share it
        distinct, inverse = np.unique(codes, return_inverse=True)
        probabilities = np.array([chain.at(_prefix(code))[1] for code in distinct.tolist()])
        codes = 2 * codes + (uniforms[:, level % 4] < probabilities[inverse])
    return [TreeOutcomes(_prefix(code)) for code in codes.tolist()]


def sample_batch(
    chain: AttemptChain, count: int, start_index: int = 0
) -> np.ndarray | list[TreeOutcomes]:
    """Draw ``count`` trajectories against ``chain`` with independent per-index streams.

    Trajectory ``i`` draws from the Philox stream keyed by
    ``(chain.config.seed, start_index + i)``, so results are identical however
    a batch is split.  A heralded run stops at its first plus outcome and is
    returned as its trials used, an int64 array over the batch; its outcomes
    are ``-`` for every trial before the last, which is ``+``.  Plain cooling
    always uses one trial and draws nothing.  Tree sort applies every level
    and returns each run's :class:`TreeOutcomes`.  A heralded run that exhausts
    ``max_attempts``, or reaches a plus probability of exactly zero on a retry
    that cannot raise it, raises :class:`MaxAttemptsError` for the lowest such
    index.  Chain states are computed only up to the last attempt some run
    reached.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    scheme = chain.config.scheme
    if scheme == HBAC:
        return np.ones(count, dtype=np.int64)
    runs = [] if scheme == ICO_TREE_SORT else np.empty(count, dtype=np.int64)
    for offset in range(0, count, _SLICE):
        end = min(offset + _SLICE, count)
        streams = np.arange(start_index + offset, start_index + end, dtype=np.uint64)
        if scheme == ICO_TREE_SORT:
            runs.extend(_tree_outcomes(chain, streams))
        else:
            runs[offset:end] = _heralded_trials(chain, streams)
    return runs


def _pure_qubits(config: SchemeConfig) -> tuple[int, int]:
    """(input, output) counts of exactly pure qubits."""
    n = config.n
    if config.scheme == HBAC:
        return 0, 0
    if config.scheme == ICO_TREE_SORT:
        return (1 if config.nondemolition else n), n
    if config.scheme == HBAC_KICO:
        return 1, n + 1 - config.k
    return 1, n


def run_scheme(config: SchemeConfig) -> SchemeReport:
    """Evaluate the scheme's resource row and success law."""
    probability = success_probability(config)
    input_pure, output_pure = _pure_qubits(config)
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
        bath_used=config.scheme in BATH_SCHEMES,
        expected_trials=expected,
        trials_for_desired=trials_for_desired,
    )


def final_state(config: SchemeConfig) -> DiagonalState:
    """Register state after the scheme runs.

    Plain cooling leaves the sorted, freshly reset stationary profile; every
    other scheme leaves its exactly pure output qubits, all in ``|g>``.
    """
    if config.scheme == HBAC:
        params = config.params
        return two_sort(reset(fixed_point(config.n, params), params))
    return ground_state(_pure_qubits(config)[1] - 1)
