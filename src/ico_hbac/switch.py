"""Two-unitary switch machinery on diagonal states.

A control qubit prepared in the symmetric superposition applies two
block-diagonal unitaries in a superposition of both orders; measuring the
control in the superposition basis splits a diagonal state into two branches.
Both unitaries share one block layout made of 1x1 scalar blocks and 2x2 Pauli
pairs (sigma_y in the first unitary, sigma_z in the second).  Because the two
Paulis anticommute, the symmetrized product vanishes on pair blocks and the
antisymmetrized product vanishes on scalar blocks, which yields a simple
per-entry population rule:

* plus branch: keep the entries under scalar blocks, zero the pair entries;
* minus branch: zero the scalar entries, swap the two entries of each pair.

The rule reads nothing but which entries sit under scalar blocks, so a
:class:`BlockUnitarySpec` is exactly that boolean mask.  A branch is an
unnormalized :class:`DiagonalState` whose norm is its outcome probability.
The kernels behind :func:`switch_branches` take one population row or a
stack of rows ``(..., dim)``: the sampling chain calls them on rows, and
the dense oracle on whole stacks of random states.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hbac_core import DENSE_MATRIX_CAP, TransferMatrix
from .register import MAX_REGISTER_EXPONENT, DiagonalState, ThermalParams, _check_exponent

PLUS = "+"
MINUS = "-"
SIGNS = (PLUS, MINUS)


@dataclass(frozen=True, eq=False)
class BlockUnitarySpec:
    """Block layout of a switch unitary pair, as the mask of scalar-block entries.

    ``one_mask[j]`` is true where full-register entry ``j`` sits under a 1x1
    scalar block; every other entry belongs to a 2x2 Pauli pair, and pairs
    occupy adjacent entries.  The same spec defines both unitaries of the
    pair; they differ only in which Pauli occupies the pair blocks.
    """

    one_mask: np.ndarray

    def __post_init__(self):
        mask = np.array(self.one_mask, copy=True)
        if mask.ndim != 1 or mask.dtype != np.bool_:
            raise ValueError(
                f"one_mask must be a one-dimensional bool array, got {mask.dtype} "
                f"with shape {mask.shape}"
            )
        dim = mask.size
        if dim < 4 or dim & (dim - 1):
            raise ValueError(f"mask size {dim} is not a power of two >= 4")
        if dim.bit_length() - 2 > MAX_REGISTER_EXPONENT:
            raise ValueError(f"dimension {dim} exceeds the register cap")
        paired = np.flatnonzero(~mask)
        if paired.size % 2 or not np.array_equal(paired[1::2], paired[0::2] + 1):
            raise ValueError("entries outside the mask do not form adjacent pairs")
        mask.setflags(write=False)
        object.__setattr__(self, "one_mask", mask)

    @property
    def dim(self) -> int:
        return self.one_mask.size

    @property
    def n(self) -> int:
        return self.dim.bit_length() - 2

    @cached_property
    def pair_starts(self) -> np.ndarray:
        """First full-register index of every pair block."""
        starts = np.flatnonzero(~self.one_mask)[::2]
        starts.setflags(write=False)
        return starts

    @cached_property
    def partner(self) -> np.ndarray:
        """The entry each entry trades with: its pair mate, or itself under a scalar block."""
        partner = np.arange(self.dim)
        starts = self.pair_starts
        partner[starts] = starts + 1
        partner[starts + 1] = starts
        partner.setflags(write=False)
        return partner


def standard_pair(n: int) -> BlockUnitarySpec:
    """Scalar ends with Pauli pairs across the whole interior."""
    _check_exponent(n)
    mask = np.zeros(2 ** (n + 1), dtype=bool)
    mask[[0, -1]] = True
    return BlockUnitarySpec(mask)


def ideal_pair(n: int) -> BlockUnitarySpec:
    """Two leading scalars, Pauli pairs everywhere else."""
    return k_pair(n, 1)


def k_pair(n: int, k: int) -> BlockUnitarySpec:
    """``2**k`` leading scalars followed by ``2**n - 2**(k-1)`` Pauli pairs."""
    _check_exponent(n)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    mask = np.zeros(2 ** (n + 1), dtype=bool)
    mask[: 2**k] = True
    return BlockUnitarySpec(mask)


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
    mask = np.zeros(2 ** (n + 1), dtype=bool)
    mask.reshape(2**level, 2 ** (n + 1 - level))[:, : 2 ** (n - level)] = True
    return BlockUnitarySpec(mask)


def _plus_branch(lam: np.ndarray, spec: BlockUnitarySpec) -> np.ndarray:
    """Plus-branch populations of one row ``lam`` or of each row of a stack ``(..., dim)``."""
    return np.where(spec.one_mask, lam, 0.0)


def _minus_branch(lam: np.ndarray, spec: BlockUnitarySpec) -> np.ndarray:
    """Minus-branch populations of one row or of each row of a stack, as a fresh writable array."""
    out = lam.take(spec.partner, axis=-1)
    np.copyto(out, 0.0, where=spec.one_mask)
    return out


def switch_branches(
    state: DiagonalState, spec: BlockUnitarySpec
) -> tuple[DiagonalState, DiagonalState]:
    """Split a diagonal state into its unnormalized (plus, minus) branches.

    Branch norms are the outcome probabilities; they partition the input norm.
    """
    lam = state.populations
    if lam.size != spec.dim:
        raise ValueError(f"state dimension {lam.size} != spec dimension {spec.dim}")
    return DiagonalState(_plus_branch(lam, spec)), DiagonalState(_minus_branch(lam, spec))


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
        # a paired full-register entry j comes from reduced column j//2 with
        # weight ground (j even) or excited (j odd) and lands on row partner[j]//2
        src = np.flatnonzero(~spec.one_mask)
        weights = np.where(src % 2 == 0, ground, excited)
        np.add.at(matrix, (spec.partner[src] // 2, src // 2), weights)
    return TransferMatrix(matrix)
