"""The attempt chain, its random draws, and what a sampled run means.

Every sampled run is an integer.  A heralded run walks the scheme's one
deterministic failure chain until its first plus outcome, so the number of
trials it used is all there is to record; plain cooling heralds at attempt 1.
A tree-sort run applies every level in one trial, and its code is a leading 1
bit, then one bit per level, 1 for plus.  :meth:`AttemptChain.attempts` and
:meth:`AttemptChain.trials` decode a run.  The draws are the Philox4x64-10
streams of ``numpy.random.Philox`` keyed ``(seed, index)``, computed in numpy
for every unresolved run at once, in counter blocks of four uniforms.  Only
``sample`` and ``oracle.uniform_rows`` import this module, when they run.
"""

from __future__ import annotations

import numpy as np

from .hbac_core import _round_raw, fixed_point
from .register import _reduce_raw, _reset_raw
from .schemes import (
    HBAC,
    HBAC_KICO,
    ICO_ALONE,
    ICO_TREE_SORT,
    MaxAttemptsError,
    SchemeConfig,
    initial_state,
    plus_weight_vector,
    scheme_spec,
)
from .switch import MINUS, PLUS, BlockUnitarySpec, _minus_branch, _plus_branch, tree_pair


def _minus_step(
    p: np.ndarray, ground: float, excited: float, spec: BlockUnitarySpec, rounds: int
) -> np.ndarray:
    """Reduced populations after a minus outcome of reset-then-switch and ``rounds`` cooling rounds.

    The floats of ``reduce(switch_branches(reset(p), spec)[1]).normalized()``
    and of ``hbac_round`` after it, without building a state.
    """
    minus = _minus_branch(_reset_raw(p, ground, excited), spec)
    norm = float(minus.sum())
    if norm <= 0.0:
        raise ValueError("minus branch carries zero probability; cannot condition on it")
    out = _reduce_raw(minus)
    out /= norm  # in place: one fewer temporary per step keeps the chain's rows packed
    for _ in range(rounds):
        out = _round_raw(out, ground, excited)
    return out


class AttemptChain:
    """Pre-measurement states and plus probabilities shared by a batch of runs.

    The state an attempt sees depends only on the outcomes before it, so each
    distinct state is computed once, on first use, and kept once in
    ``states`` as a read-only float64 row of populations (its plus
    probability in ``probabilities``).  A position is an int:

    * for heralded schemes, the 1-based attempt number along the
      deterministic failure chain (every earlier outcome was a minus); each
      row is one minus step of the previous one; the bath-free retry
      re-prepares the input, so its positions share a row;
    * for tree sort, the prefix code of the earlier outcomes: a leading 1 bit,
      then one bit per level, 1 for plus.  ``code.bit_length() - 1`` is its
      level, ``code >> 1`` its parent, and its row is the normalized branch of
      the parent's that ``code & 1`` selects;
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
        self.states: list[np.ndarray] = []
        self.probabilities: list[float] = []
        if config.scheme == ICO_TREE_SORT:
            self._level_specs: dict[int, BlockUnitarySpec] = {}
            self._tree: dict[int, int] = {}  # prefix code -> index into states
            return
        if config.scheme == HBAC:
            self.states.append(fixed_point(config.n, config.params).populations)
            self.probabilities.append(1.0)
            return
        self._weights = plus_weight_vector(config)
        if config.scheme != ICO_ALONE:
            params = config.params
            ground, excited = params.ground_population, params.excited_population
            # _minus_step's arguments after the row
            self._step = (ground, excited, scheme_spec(config), config.repump_rounds)
        self._add(initial_state(config).normalized().populations)

    def at(self, position: int) -> tuple[np.ndarray, float]:
        """(pre-measurement populations, plus probability) at a chain position."""
        index = self._node(position)
        return self.states[index], self.probabilities[index]

    def draw(self, streams: np.ndarray) -> np.ndarray:
        """The run of each Philox stream index in ``streams``, as int64."""
        walk = _tree_outcomes if self.config.scheme == ICO_TREE_SORT else _heralded_trials
        return walk(self, streams)

    def attempts(self, run: int):
        """``(round, outcome, node)`` of every attempt of a run; ``node`` indexes ``states``.

        A heralded run failed every trial before its last; a tree-sort code
        holds one outcome per level after its leading 1 bit.
        """
        if self.config.scheme == ICO_TREE_SORT:
            signs = bin(run)[3:].replace("1", PLUS).replace("0", MINUS)
            nodes = [self._node(run >> shift) for shift in range(run.bit_length() - 1, 0, -1)]
        else:
            signs = MINUS * (run - 1) + PLUS
            nodes = [0] * run if self.config.scheme == ICO_ALONE else range(self._node(run) + 1)
        return zip(range(1, len(signs) + 1), signs, nodes)

    def trials(self, run: int) -> int:
        """Trials a run used: a tree-sort run applies every level in one."""
        return 1 if self.config.scheme == ICO_TREE_SORT else run

    def _add(self, row: np.ndarray) -> None:
        row.setflags(write=False)
        self.states.append(row)
        self.probabilities.append(float(self._weights @ row))

    def _node(self, position: int) -> int:
        """Index into ``states`` of the state at a chain position, computed on first use."""
        if self.config.scheme == ICO_TREE_SORT:
            return self._tree_node(position)
        if self.config.scheme == ICO_ALONE:
            return 0  # every retry re-prepares the input
        while len(self.states) < position:
            self._add(_minus_step(self.states[-1], *self._step))
        return position - 1

    def _tree_node(self, code: int) -> int:
        index = self._tree.get(code)
        if index is None:
            if not 1 <= code < 2**self.config.n:
                raise ValueError(f"a prefix code is in [1, {2**self.config.n}), got {code}")
            level = code.bit_length() - 1
            if level:
                parent = self.states[self._tree_node(code >> 1)]
                spec = self._level_spec(level - 1)
                # only the branch the last outcome selects, normalized
                row = (_plus_branch if code & 1 else _minus_branch)(parent, spec)
                norm = float(row.sum())
                if norm <= 0.0:
                    raise ValueError("cannot normalize a zero-norm state")
                row /= norm
                row.setflags(write=False)
            else:
                row = initial_state(self.config).normalized().populations
            index = len(self.states)
            self._tree[code] = index
            self.states.append(row)
            # the plus branch's norm, by the same float operations
            self.probabilities.append(float(_plus_branch(row, self._level_spec(level)).sum()))
        return index

    def _level_spec(self, level: int) -> BlockUnitarySpec:
        """The cascade level's block spec, built on first use."""
        if level not in self._level_specs:
            self._level_specs[level] = tree_pair(self.config.n, level)
        return self._level_specs[level]


# Philox4x64-10 round multipliers and key increments (Salmon et al., SC'11), as
# numpy.random.Philox uses them.  They stay Python ints until the kernel runs:
# building uint64 arrays at import costs every command about 0.2 MB of RSS.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)

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


def _tree_outcomes(chain: AttemptChain, streams: np.ndarray) -> np.ndarray:
    """Code of the run of each stream: level ``l`` reads uniform ``l``."""
    config = chain.config
    codes = np.ones(streams.size, dtype=np.int64)
    for level in range(config.n):
        if level % 4 == 0:
            uniforms = _philox_uniforms(config.seed, streams, np.full(streams.size, level // 4))
        # one chain lookup per distinct prefix, however many runs share it
        distinct, inverse = np.unique(codes, return_inverse=True)
        probabilities = np.array([chain.at(code)[1] for code in distinct.tolist()])
        codes = 2 * codes + (uniforms[:, level % 4] < probabilities[inverse])
    return codes
