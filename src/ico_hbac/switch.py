"""Two-unitary switch machinery on diagonal states.

A control qubit prepared in the symmetric superposition applies two
block-diagonal unitaries in a superposition of both orders; measuring the
control in the superposition basis splits a diagonal state into two branches.
Blocks come from a two-letter alphabet: a 1x1 scalar (``ONE``) or a 2x2 Pauli
pair (``PAIR``, sigma_y in the first unitary and sigma_z in the second).
Because the two Paulis anticommute, the symmetrized product vanishes on PAIR
blocks and the antisymmetrized product vanishes on ONE blocks, which yields a
simple per-block population rule:

* plus branch: keep ONE-block entries, zero PAIR-block entries;
* minus branch: zero ONE-block entries, swap the two entries of each PAIR.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hbac_core import DENSE_MATRIX_CAP, TransferMatrix
from .register import DiagonalState, ThermalParams, _check_exponent, max_register_exponent

ONE = "one"
PAIR = "pair"

PLUS = "+"
MINUS = "-"
SIGNS = (PLUS, MINUS)


@dataclass(frozen=True)
class BlockUnitarySpec:
    """Ordered diagonal blocks defining a switch unitary pair.

    The same spec defines both unitaries of the pair; they differ only in
    which Pauli occupies the PAIR blocks.
    """

    blocks: tuple[str, ...]

    def __post_init__(self):
        blocks = tuple(self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks:
            raise ValueError("blocks must be nonempty")
        bad = sorted({blk for blk in blocks if blk not in (ONE, PAIR)})
        if bad:
            raise ValueError(f"unknown block kinds: {bad!r}")
        dim = sum(1 if blk == ONE else 2 for blk in blocks)
        if dim < 4 or dim & (dim - 1):
            raise ValueError(f"block dimensions sum to {dim}, expected a power of two >= 4")
        if dim.bit_length() - 2 > max_register_exponent():
            raise ValueError(f"dimension {dim} exceeds the register cap")

    @cached_property
    def dim(self) -> int:
        return sum(1 if blk == ONE else 2 for blk in self.blocks)

    @property
    def n(self) -> int:
        return self.dim.bit_length() - 2

    @cached_property
    def one_mask(self) -> np.ndarray:
        """Boolean mask of full-register entries sitting under scalar blocks."""
        # comparing an object array is faster than building a "<U4" string array
        kinds = np.array(self.blocks, dtype=object) == ONE
        mask = np.repeat(kinds, np.where(kinds, 1, 2))
        mask.setflags(write=False)
        return mask

    @cached_property
    def pair_starts(self) -> np.ndarray:
        """First full-register index of every PAIR block."""
        starts = np.flatnonzero(~self.one_mask)[::2]
        starts.setflags(write=False)
        return starts


def standard_pair(n: int) -> BlockUnitarySpec:
    """Scalar ends with Pauli pairs across the whole interior."""
    _check_exponent(n)
    return BlockUnitarySpec((ONE,) + (PAIR,) * (2**n - 1) + (ONE,))


def ideal_pair(n: int) -> BlockUnitarySpec:
    """Two leading scalars, Pauli pairs everywhere else (same as k_pair(n, 1))."""
    _check_exponent(n)
    return BlockUnitarySpec((ONE, ONE) + (PAIR,) * (2**n - 1))


def k_pair(n: int, k: int) -> BlockUnitarySpec:
    """``2**k`` leading scalars followed by ``2**n - 2**(k-1)`` Pauli pairs."""
    _check_exponent(n)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    return BlockUnitarySpec((ONE,) * 2**k + (PAIR,) * (2**n - 2 ** (k - 1)))


def tree_pair(n: int, level: int = 0) -> BlockUnitarySpec:
    """Dyadic scalar/pair split that purifies one qubit per application.

    Level 0 puts scalars on the first half and pairs on the second; level
    ``l`` repeats that split inside each of the ``2**l`` dyadic sub-blocks,
    so successive levels target successive qubits.  Valid levels are
    ``0 .. n-1``.
    """
    _check_exponent(n)
    if not 0 <= level <= n - 1:
        raise ValueError(f"level must be in [0, {n - 1}], got {level}")
    ones = 2 ** (n - level)
    pairs = 2 ** (n - level - 1)
    return BlockUnitarySpec(((ONE,) * ones + (PAIR,) * pairs) * 2**level)


@dataclass(frozen=True, eq=False)
class BranchOutcome:
    """Unnormalized post-measurement state for one control outcome."""

    sign: str
    state: DiagonalState
    probability: float

    def __post_init__(self):
        if self.sign not in SIGNS:
            raise ValueError(f"sign must be one of {SIGNS}, got {self.sign!r}")
        if abs(self.probability - self.state.norm) > 1e-12 * max(1.0, self.state.norm):
            raise ValueError(
                f"probability {self.probability} does not match branch norm {self.state.norm}"
            )


def switch_branches(
    state: DiagonalState, spec: BlockUnitarySpec
) -> tuple[BranchOutcome, BranchOutcome]:
    """Split a diagonal state into its two control-measurement branches.

    Branch norms are the outcome probabilities; they partition the input norm.
    """
    lam = state.populations
    if lam.size != spec.dim:
        raise ValueError(f"state dimension {lam.size} != spec dimension {spec.dim}")
    plus_vec = np.where(spec.one_mask, lam, 0.0)
    minus_vec = np.zeros_like(lam)
    starts = spec.pair_starts
    minus_vec[starts] = lam[starts + 1]
    minus_vec[starts + 1] = lam[starts]
    plus_p = float(plus_vec.sum())
    minus_p = float(minus_vec.sum())
    plus = BranchOutcome(PLUS, DiagonalState(state.n, plus_vec, plus_p), plus_p)
    minus = BranchOutcome(MINUS, DiagonalState(state.n, minus_vec, minus_p), minus_p)
    return plus, minus


def branch_transfer(
    n: int, params: ThermalParams, spec: BlockUnitarySpec, sign: str
) -> TransferMatrix:
    """Reduced-space matrix of reset-then-switch conditioned on one outcome.

    Column ``k`` is ``reduce(branch(reset(e_k)))``.  For the standard pair the
    plus matrix is ``Diag(e^eps, 0, ..., 0, e^-eps)/z`` and plus + minus
    equals the unconditioned transfer matrix.
    """
    if spec.n != n:
        raise ValueError(f"spec has n={spec.n}, expected n={n}")
    if n > DENSE_MATRIX_CAP:
        raise ValueError(f"dense transfer matrices are capped at n={DENSE_MATRIX_CAP}, got n={n}")
    if sign not in SIGNS:
        raise ValueError(f"sign must be one of {SIGNS}, got {sign!r}")
    size = 2**n
    ground = params.ground_population
    excited = params.excited_population
    matrix = np.zeros((size, size))
    if sign == PLUS:
        mask = spec.one_mask
        np.fill_diagonal(matrix, ground * mask[0::2] + excited * mask[1::2])
    else:
        starts = spec.pair_starts
        # a full-register entry j comes from reduced column j//2 with weight
        # ground (j even) or excited (j odd) and lands on row partner(j)//2
        for src, partner in ((starts, starts + 1), (starts + 1, starts)):
            rows = partner // 2
            cols = src // 2
            weights = np.where(src % 2 == 0, ground, excited)
            np.add.at(matrix, (rows, cols), weights)
    return TransferMatrix(n, matrix, "plus" if sign == PLUS else "minus")
