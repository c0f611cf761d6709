"""Dense density-matrix ground truth for the diagonal fast path.

Everything here builds literal complex matrices: the block-diagonal unitaries,
the four-product switch channel, and the thermal reset as a partial trace
followed by a tensor product.  Sizes are capped at ``n = 6``
(128 x 128); this module exists for correctness checks, not scale.
:func:`compare` runs its random trials as bounded stacks of density matrices
through the same literal channel, since ``@`` broadcasts over leading axes,
and through the fast path's branch kernels, which take stacks of rows too.
Its random inputs are rows of :func:`uniform_rows`, the package's own Philox
streams, so ``numpy.random`` is never loaded.  :func:`validation_checks` is
the ``validate`` command's battery: :func:`compare` plus the structural
invariants of the fast path.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .hbac_core import build_transfer, fixed_point, hbac_round
from .philox import _philox_uniforms
from .register import DiagonalState, ReducedState, ThermalParams, make_thermal_params
from .schemes import (
    HBAC_ICO,
    HBAC_KICO,
    SchemeConfig,
    run_round,
    success_probability,
)
from .switch import (
    MINUS,
    SIGNS,
    PLUS,
    _minus_branch,
    _plus_branch,
    branch_transfer,
    BlockUnitarySpec,
    ideal_pair,
    k_pair,
    standard_pair,
    tree_pair,
)

DENSE_EXPONENT_CAP = 6

_STACK_BYTES = 1 << 16  # bytes of one stacked complex array in compare: bounds its temporaries

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_ROLE_BLOCKS = {"A": SIGMA_Y, "B": SIGMA_Z, "two-sort": SIGMA_X}


def _worst(*deviations: float) -> float:
    """The largest deviation, or NaN once any is NaN (``max`` drops a NaN after a number)."""
    return float(np.max(deviations))


def materialize(spec: BlockUnitarySpec, which: str) -> np.ndarray:
    """Literal block-diagonal unitary for role ``"A"``, ``"B"``, or ``"two-sort"``."""
    if which not in _ROLE_BLOCKS:
        raise ValueError(f"which must be one of {sorted(_ROLE_BLOCKS)}, got {which!r}")
    if spec.n > DENSE_EXPONENT_CAP:
        raise ValueError(f"dense unitaries are capped at n={DENSE_EXPONENT_CAP}, got n={spec.n}")
    pauli = _ROLE_BLOCKS[which]
    unitary = np.diag(spec.one_mask.astype(complex))
    pairs = spec.pair_starts[:, None] + np.arange(2)
    unitary[pairs[:, :, None], pairs[:, None, :]] = pauli
    return unitary


def unitarity_defect(unitary: np.ndarray) -> float:
    """Max-abs deviation of ``U U^dagger`` from the identity."""
    eye = np.eye(unitary.shape[0], dtype=complex)
    return float(np.abs(unitary @ unitary.conj().T - eye).max())


def density_defects(rho: np.ndarray, norm: float = 1.0) -> dict[str, float]:
    """Hermiticity, trace, and positivity diagnostics of a density matrix."""
    hermiticity = float(np.abs(rho - rho.conj().T).max())
    trace = float(abs(np.trace(rho).real - norm) + abs(np.trace(rho).imag))
    symmetrized = (rho + rho.conj().T) / 2.0
    min_eigenvalue = float(np.linalg.eigvalsh(symmetrized).min())
    return {"hermiticity": hermiticity, "trace": trace, "min_eigenvalue": min_eigenvalue}


def offdiagonal_magnitude(rho: np.ndarray) -> float:
    """Largest absolute off-diagonal element of a matrix or a stack ``(..., d, d)``."""
    stripped = np.array(rho, copy=True)
    diagonal = np.arange(rho.shape[-1])
    stripped[..., diagonal, diagonal] -= rho[..., diagonal, diagonal]
    return float(np.abs(stripped).max())


def dense_from_diagonal(state: DiagonalState) -> np.ndarray:
    """Embed a population vector as a diagonal density matrix."""
    return np.diag(state.populations).astype(complex)


def conjugate(unitary: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """``U rho U^dagger``."""
    return unitary @ rho @ unitary.conj().T


def dense_reset(rho: np.ndarray, params: ThermalParams) -> np.ndarray:
    """Partial trace over the reset slot followed by attaching a thermal slot.

    The reset slot is the least significant tensor factor, matching the
    register index convention.
    """
    dim = rho.shape[0]
    if rho.shape != (dim, dim) or dim < 2 or dim & (dim - 1):
        raise ValueError(f"density matrix must be square with power-of-two size, got {rho.shape}")
    half = dim // 2
    blocks = rho.reshape(half, 2, half, 2)
    traced = np.einsum("ajbj->ab", blocks)
    thermal = np.diag(
        [params.ground_population, params.excited_population]
    ).astype(complex)
    return np.kron(traced, thermal)


@functools.lru_cache(maxsize=1)  # compare runs all stacks of one spec in a row
def _ordered_products(spec: BlockUnitarySpec) -> tuple[np.ndarray, np.ndarray]:
    """``U_A U_B`` and ``U_B U_A`` of ``spec``, read-only."""
    u_a = materialize(spec, "A")
    u_b = materialize(spec, "B")
    products = (u_a @ u_b, u_b @ u_a)
    for product in products:
        product.setflags(write=False)
    return products


def switch_channel(rho: np.ndarray, spec: BlockUnitarySpec) -> tuple[np.ndarray, np.ndarray]:
    """Dense two-order interference channel, conditioned on each control outcome.

    Both unitaries share the block layout ``spec``: ``U_A`` carries sigma_y
    and ``U_B`` sigma_z on their pair blocks.

    ``rho`` is one density matrix or a stack of them, shape ``(..., dim, dim)``.
    Returns ``(plus, minus)``, in :data:`SIGNS` order: the literal four-term
    combination

        (U_A U_B rho U_B' U_A' + U_B U_A rho U_A' U_B'
         +/- U_A U_B rho U_A' U_B' +/- U_B U_A rho U_B' U_A') / 4

    (primes denoting adjoints), unnormalized: its trace is the outcome
    probability (per matrix of a stack).  Both outcomes share the two left
    products, so a call makes six matrix products, each over the whole
    stack; the ordered products of the last ``spec`` are kept.
    """
    if rho.shape[-2:] != (spec.dim, spec.dim):
        raise ValueError(f"density matrix shape {rho.shape} does not match dimension {spec.dim}")
    ab, ba = _ordered_products(spec)
    ab_adjoint, ba_adjoint = ab.conj().T, ba.conj().T
    left_ab, left_ba = ab @ rho, ba @ rho
    direct = left_ab @ ab_adjoint + left_ba @ ba_adjoint
    cross = left_ab @ ba_adjoint + left_ba @ ab_adjoint
    del left_ab, left_ba  # two stacks fewer alive while the outcomes are formed
    plus, minus = ((direct + factor * cross) / 4.0 for factor in (1.0, -1.0))
    return plus, minus


def spec_families(n: int) -> list[tuple[str, BlockUnitarySpec]]:
    """Every block-unitary family at register exponent ``n``, labeled."""
    families = [("standard", standard_pair(n)), ("ideal", ideal_pair(n))]
    families += [(f"k={k}", k_pair(n, k)) for k in range(1, n + 1)]
    families += [(f"tree level={level}", tree_pair(n, level)) for level in range(n)]
    return families


def uniform_rows(seed: int, first: int, count: int, width: int) -> np.ndarray:
    """Rows ``first`` to ``first + count - 1`` of a table of uniforms in [0, 1).

    Row ``r`` is the first ``width`` (a multiple of 4) draws of
    ``Generator(Philox(key=[seed, r])).random()``, so a row does not depend
    on which rows are drawn with it.
    """
    blocks = width // 4  # counter blocks of four uniforms per row
    streams = np.repeat(np.arange(first, first + count, dtype=np.uint64), blocks)
    return _philox_uniforms(seed, streams, np.tile(np.arange(blocks), count)).reshape(count, width)


@dataclass(frozen=True, eq=False)
class CompareReport:
    """Worst-case deviations of the fast path from the dense channel."""

    max_offdiagonal: float
    by_case: dict[tuple[str, str], float]

    @property
    def max_abs_deviation(self) -> float:
        return _worst(*self.by_case.values())


def compare(nmax: int = 3, trials: int = 100, seed: int = 7) -> CompareReport:
    """Fast-path branch outputs vs dense channel diagonals on random states.

    Runs every family at every ``n <= nmax`` on ``trials`` seeded random
    diagonal states, tracking the worst diagonal deviation per (family, sign)
    and the worst off-diagonal magnitude (which must vanish for diagonal
    inputs under these block unitaries).  Trial ``r`` of the whole run,
    counted across families and ``n``, is row ``r`` of :func:`uniform_rows`,
    normalized.  Trials run in stacks: each stack of density matrices holds
    at most ``_STACK_BYTES``, or one matrix when a single matrix is larger
    (``n = 6``), and goes through one :func:`switch_channel` call for both
    signs and one call of each fast-path branch kernel.  The uniforms are
    drawn ``_STACK_BYTES`` of float64 at a time, so memory is bounded by the
    dimension and not by ``trials``.  The states, and every reported value,
    are those of a per-trial loop.  Deterministic for a fixed seed.
    """
    if nmax < 1:
        raise ValueError(f"nmax must be >= 1, got {nmax}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if seed >= 2**64:  # a Philox key word
        raise ValueError(f"seed must be < 2**64, got {seed}")
    if nmax > DENSE_EXPONENT_CAP:
        raise ValueError(f"nmax={nmax} exceeds the dense cap {DENSE_EXPONENT_CAP}")
    by_case: dict[tuple[str, str], float] = {}
    max_offdiagonal = 0.0
    row = 0  # uniform_rows row of the next trial
    for n in range(1, nmax + 1):
        dim = 2 ** (n + 1)
        chunk = max(1, _STACK_BYTES // (dim * dim * np.dtype(complex).itemsize))
        per_draw = _STACK_BYTES // (dim * np.dtype(float).itemsize)  # a multiple of chunk
        diagonal = np.arange(dim)
        for label, spec in spec_families(n):
            for start in range(0, trials, chunk):
                if start % per_draw == 0:  # one kernel call per bounded run of trials
                    drawn = uniform_rows(seed, row, min(per_draw, trials - start), dim)
                    row += len(drawn)
                vecs = drawn[start % per_draw : start % per_draw + chunk]
                vecs /= vecs.sum(axis=1, keepdims=True)  # in place: rows of the stack below
                rho = np.zeros((len(vecs), dim, dim), dtype=complex)
                rho[:, diagonal, diagonal] = vecs
                fast = (_plus_branch(vecs, spec), _minus_branch(vecs, spec))
                for sign, dense, populations in zip(SIGNS, switch_channel(rho, spec), fast):
                    key = (label, sign)
                    by_case[key] = _worst(
                        by_case.get(key, 0.0),
                        np.abs(dense[:, diagonal, diagonal].real - populations).max(),
                        np.abs(
                            np.trace(dense, axis1=1, axis2=2).real - populations.sum(axis=1)
                        ).max(),
                    )
                    max_offdiagonal = _worst(max_offdiagonal, offdiagonal_magnitude(dense))
    return CompareReport(max_offdiagonal, by_case)


def validation_checks(nmax: int, trials: int, seed: int) -> list[tuple[str, bool, str]]:
    """``validate``'s battery, as (name, ok, detail): :func:`compare`, then five invariants.

    The invariants run over every ``(epsilon, n)`` of one grid, ``n`` up to
    8, each where its size allows; each transfer matrix is built once.  The
    matrix-free round reads row ``6 * i + n - 1`` of :func:`uniform_rows`
    for the ``i``-th epsilon.
    """
    report = compare(nmax=nmax, trials=trials, seed=seed)
    checks = [
        (f"oracle diagonal [{family} {sign}]", deviation < 1e-12, f"max dev {deviation:.3e}")
        for (family, sign), deviation in sorted(report.by_case.items())
    ]
    offdiagonal = report.max_offdiagonal
    checks.append(
        ("oracle off-diagonals vanish", offdiagonal < 1e-12, f"max off-diag {offdiagonal:.3e}")
    )

    def gap(config, start):
        """Closed-form success probability against the plus norm of one round from ``start``."""
        plus, _minus = run_round(start, config)
        return abs(success_probability(config) - plus.norm)

    epsilons = (0.1, 0.5, 1.0)
    rows = iter(uniform_rows(seed, 0, 6 * len(epsilons), 2**6))  # one row per (eps, n <= 6)
    columns = branches = stationary = matrix_free = closed = 0.0
    for eps, n in itertools.product(epsilons, range(1, 9)):
        params = make_thermal_params(eps)
        profile = fixed_point(n, params)
        residual = np.abs(hbac_round(profile, params).populations - profile.populations).sum()
        stationary = _worst(stationary, residual)
        if n <= 6:
            transfer = build_transfer(n, params)
            if n <= nmax + 2:
                columns = _worst(columns, np.abs(transfer.entries.sum(axis=0) - 1.0).max())
                spec = standard_pair(n)
                total = (
                    branch_transfer(n, params, spec, PLUS).entries
                    + branch_transfer(n, params, spec, MINUS).entries
                )
                branches = _worst(branches, np.abs(total - transfer.entries).max())
            vec = next(rows)[: 2**n]
            vec /= vec.sum()
            state = ReducedState(vec)
            direct = transfer.entries @ state.populations
            matrix_free = _worst(
                matrix_free, np.abs(direct - hbac_round(state, params).populations).max()
            )
        if 2 <= n <= nmax + 3:
            for k in range(1, n + 1):
                config = SchemeConfig(scheme=HBAC_KICO, n=n, epsilon=eps, k=k)
                closed = _worst(closed, gap(config, profile))
    for eps in epsilons:
        start = fixed_point(10, make_thermal_params(eps))
        closed = _worst(closed, gap(SchemeConfig(scheme=HBAC_ICO, n=10, epsilon=eps), start))
    return checks + [
        ("transfer columns sum to one", columns < 1e-12, f"max dev {columns:.3e}"),
        ("branch matrices sum to transfer", branches < 1e-14, f"max dev {branches:.3e}"),
        ("fixed point is stationary", stationary < 1e-12, f"max L1 residual {stationary:.3e}"),
        ("matrix-free round matches matrix", matrix_free < 1e-13, f"max dev {matrix_free:.3e}"),
        ("closed-form success matches branch norm", closed < 1e-12, f"max dev {closed:.3e}"),
    ]
