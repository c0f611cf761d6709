"""The attempt chain, its random draws, and what a sampled run means.

Every sampled run is an integer.  A heralded run walks the scheme's one
deterministic failure chain until its first plus outcome, so the number of
trials it used is all there is to record; plain cooling heralds at attempt 1.
A tree-sort run applies every level in one trial, and its code is a leading 1
bit, then one bit per level, 1 for plus.  :meth:`AttemptChain.attempts` and
:meth:`AttemptChain.trials` decode a run.  The draws are the Philox4x64-10
streams of ``numpy.random.Philox`` keyed ``(seed, index)``, computed by
``philox`` for every unresolved run at once, in counter blocks of four
uniforms.  Only ``sample`` imports this module, when it runs.  Every branch
here reads the scheme's ``retry`` (see ``schemes._Scheme``), not its name.
"""

from __future__ import annotations

import functools

import numpy as np

from .hbac_core import _round_raw, fixed_point
from .philox import _philox_uniforms
from .register import _reduce_raw, _reset_raw
from .schemes import (
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
    probability in ``probabilities``).  Once the draw is done, ``sample``
    takes the rows with :meth:`release` and swaps each for its text, so the
    chain then holds no row and no text.  A position is an int:

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
        self._retry = config._record.retry
        # zero heralding weight stays exactly zero on a re-prepared retry, and
        # on a minus step without re-pump rounds when no Pauli pair straddles
        # two reduced entries: the step then keeps each reduced entry or zeroes it
        self.absorbing = self._retry == "reprepare"
        self.states: list | None = []  # float64 rows; None once released
        self.probabilities: list[float] = []
        if self._retry == "tree":
            # the cascade level's block spec, built on first use
            self._level_spec = functools.cache(functools.partial(tree_pair, config.n))
            self._tree: dict[int, int] = {}  # prefix code -> index into states
            return
        if self._retry is None:
            self.states.append(fixed_point(config.n, config.params).populations)
            self.probabilities.append(1.0)
            return
        self._weights = plus_weight_vector(config)
        if self._retry == "step":
            params, spec = config.params, scheme_spec(config)
            self.absorbing = not config.repump_rounds and not (spec.pair_starts % 2).any()
            ground, excited = params.ground_population, params.excited_population
            # _minus_step's arguments after the row
            self._step = (ground, excited, spec, config.repump_rounds)
        self._add(initial_state(config).normalized().populations)

    def at(self, position: int) -> tuple[np.ndarray, float]:
        """(pre-measurement populations, plus probability) at a chain position."""
        self._require_rows()
        index = self._node(position)
        return self.states[index], self.probabilities[index]

    def release(self) -> list:
        """The rows, handed over so that each can be swapped for its text in place.

        ``sample`` calls this once the draw is done, and drops each row as
        soon as its text exists, so rows and texts are never all held at
        once.  ``states`` is then None: the chain still decodes runs and
        keeps its probabilities, but from then on :meth:`at` raises
        ``RuntimeError``, and so does any position past the rows it held.
        """
        rows, self.states = self.states, None
        return rows

    def draw(self, streams: np.ndarray) -> np.ndarray:
        """The run of each Philox stream index in ``streams``, as int64."""
        walk = _tree_outcomes if self._retry == "tree" else _heralded_trials
        return walk(self, streams)

    def attempts(self, run: int):
        """``(round, outcome, node)`` of every attempt of a run; ``node`` indexes ``states``.

        A heralded run failed every trial before its last; a tree-sort code
        holds one outcome per level after its leading 1 bit.
        """
        if self._retry == "tree":
            signs = bin(run)[3:].replace("1", PLUS).replace("0", MINUS)
            positions = [run >> shift for shift in range(run.bit_length() - 1, 0, -1)]
        else:
            signs = MINUS * (run - 1) + PLUS
            positions = range(1, run + 1)
        return zip(range(1, len(signs) + 1), signs, map(self._node, positions))

    def trials(self, run: int) -> int:
        """Trials a run used: a tree-sort run applies every level in one."""
        return 1 if self._retry == "tree" else run

    def _require_rows(self) -> None:
        if self.states is None:
            raise RuntimeError("the chain released its rows to be rendered")

    def _add(self, row: np.ndarray) -> None:
        row.setflags(write=False)
        self.states.append(row)
        self.probabilities.append(float(self._weights @ row))

    def _node(self, position: int) -> int:
        """Index into ``states`` of the state at a chain position, computed on first use."""
        if self._retry == "tree":
            return self._tree_node(position)
        if self._retry == "reprepare":
            return 0  # every retry re-prepares the input
        while len(self.probabilities) < position:
            self._require_rows()
            self._add(_minus_step(self.states[-1], *self._step))
        return position - 1

    def _tree_node(self, code: int) -> int:
        index = self._tree.get(code)
        if index is None:
            if not 1 <= code < 2**self.config.n:
                raise ValueError(f"a prefix code is in [1, {2**self.config.n}), got {code}")
            self._require_rows()
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


_LANES = 1024  # (stream, block) pairs a kernel call fills once few runs are live


def _exhausted(config: SchemeConfig, zero_from: int | None = None):
    message = f"no plus outcome within {config.max_attempts} attempts"
    if zero_from is not None:
        message += f": the plus probability is exactly 0 from attempt {zero_from} on"
    return MaxAttemptsError(message, config.max_attempts)


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
            raise _exhausted(config, zero_from=attempt)
        plus = uniforms[:, column] < probability
        if plus.any():
            trials[live[plus]] = attempt
            live, uniforms = live[~plus], uniforms[~plus]
            if not live.size:
                return trials
    raise _exhausted(config)


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
