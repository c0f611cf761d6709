"""Dense-oracle tests: literal unitaries, the four-product channel, and
fast-path equivalence."""

import math

import numpy as np
import pytest

import ico_hbac.oracle as oracle
from ico_hbac import sampling
from ico_hbac.hbac_core import two_sort
from ico_hbac.oracle import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    CompareReport,
    compare,
    conjugate,
    dense_from_diagonal,
    dense_reset,
    density_defects,
    materialize,
    offdiagonal_magnitude,
    spec_families,
    switch_channel,
    unitarity_defect,
)
from ico_hbac.register import DiagonalState, ReducedState, make_thermal_params, reset
from ico_hbac.switch import (
    MINUS,
    PLUS,
    SIGNS,
    ideal_pair,
    k_pair,
    standard_pair,
    switch_branches,
    tree_pair,
)


def chunk_size(dim: int) -> int:
    """Trials per stack that ``compare`` uses at register dimension ``dim``."""
    return max(1, oracle._STACK_BYTES // (dim * dim * np.dtype(complex).itemsize))


def per_trial_compare(nmax: int, trials: int, seed: int):
    """The one-trial-at-a-time loop ``compare`` replaced: its reference."""
    row = 0
    by_case = {}
    max_offdiagonal = 0.0
    for n in range(1, nmax + 1):
        for label, spec in spec_families(n):
            for _ in range(trials):
                vec = np.random.Generator(np.random.Philox(key=[seed, row])).random(spec.dim)
                row += 1
                vec /= vec.sum()
                state = DiagonalState(vec)
                rho = np.diag(vec).astype(complex)
                outputs = zip(SIGNS, switch_channel(rho, spec), switch_branches(state, spec))
                for sign, dense, branch in outputs:
                    diagonal = np.diag(dense).real
                    deviation = float(np.abs(diagonal - branch.populations).max())
                    deviation = max(deviation, abs(float(np.trace(dense).real) - branch.norm))
                    key = (label, sign)
                    by_case[key] = max(by_case.get(key, 0.0), deviation)
                    stripped = dense - np.diag(np.diag(dense))
                    max_offdiagonal = max(max_offdiagonal, float(np.abs(stripped).max()))
    return by_case, max_offdiagonal


class TestPauliAlgebra:
    def test_anticommuting_product_identities(self):
        # the cancellation engine: sigma_y sigma_z = i sigma_x and the reverse
        assert np.abs(SIGMA_Y @ SIGMA_Z - 1j * SIGMA_X).max() < 1e-15
        assert np.abs(SIGMA_Z @ SIGMA_Y + 1j * SIGMA_X).max() < 1e-15

    def test_symmetrized_products_vanish_per_block(self):
        assert np.abs(SIGMA_Y @ SIGMA_Z + SIGMA_Z @ SIGMA_Y).max() < 1e-15


class TestMaterialize:
    def test_standard_pair_role_a_literal(self):
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        expected[1:3, 1:3] = SIGMA_Y
        expected[3, 3] = 1.0
        assert np.array_equal(materialize(standard_pair(1), "A"), expected)

    def test_two_sort_role_literal(self):
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[3, 3] = 1.0
        expected[1:3, 1:3] = SIGMA_X
        assert np.array_equal(materialize(standard_pair(1), "two-sort"), expected)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_unitarity_all_families(self, n):
        for _label, spec in spec_families(n):
            for which in ("A", "B", "two-sort"):
                assert unitarity_defect(materialize(spec, which)) < 1e-12

    def test_cap(self):
        with pytest.raises(ValueError):
            materialize(standard_pair(7), "A")

    def test_bad_role(self):
        with pytest.raises(ValueError):
            materialize(standard_pair(1), "C")

    @pytest.mark.parametrize("n", range(1, 4))
    def test_both_orders_induce_the_sort_permutation(self, n):
        # conjugating a diagonal state by either ordered product permutes
        # populations exactly like the plain sorting unitary
        spec = standard_pair(n)
        u_a = materialize(spec, "A")
        u_b = materialize(spec, "B")
        u_sort = materialize(spec, "two-sort")
        rng = np.random.default_rng(n)
        vec = rng.random(2 ** (n + 1))
        vec /= vec.sum()
        rho = np.diag(vec).astype(complex)
        sorted_fast = two_sort(DiagonalState(vec)).populations
        for product in (u_a @ u_b, u_b @ u_a, u_sort):
            out = conjugate(product, rho)
            assert np.abs(np.diag(out).real - sorted_fast).max() < 1e-14
            assert offdiagonal_magnitude(out) < 1e-14


class TestSwitchChannel:
    def test_frozen_example(self):
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        plus, minus = switch_channel(rho, standard_pair(1))
        assert np.trace(plus).real == pytest.approx(0.5, abs=1e-15)
        assert np.abs(np.diag(plus).real - [0.4, 0.0, 0.0, 0.1]).max() < 1e-15
        assert np.abs(np.diag(minus).real - [0.0, 0.2, 0.3, 0.0]).max() < 1e-15

    def test_ground_state_is_plus_deterministic(self):
        vec = np.zeros(8)
        vec[0] = 1.0
        rho = np.diag(vec).astype(complex)
        plus, minus = switch_channel(rho, standard_pair(2))
        assert np.abs(plus - rho).max() < 1e-15
        assert np.abs(minus).max() < 1e-15

    @pytest.mark.parametrize("n", range(1, 4))
    def test_trace_preservation_and_positivity(self, n):
        rng = np.random.default_rng(21 + n)
        for _label, spec in spec_families(n):
            vec = rng.random(2 ** (n + 1))
            vec /= vec.sum()
            rho = np.diag(vec).astype(complex)
            plus, minus = switch_channel(rho, spec)
            assert (np.trace(plus) + np.trace(minus)).real == pytest.approx(1.0, abs=1e-13)
            for branch, probability in ((plus, np.trace(plus).real), (minus, np.trace(minus).real)):
                defects = density_defects(branch, norm=probability)
                assert defects["hermiticity"] < 1e-13
                assert defects["trace"] < 1e-13
                assert defects["min_eigenvalue"] > -1e-10

    def test_dimension_mismatch(self):
        rho = np.eye(4, dtype=complex) / 4.0
        with pytest.raises(ValueError):
            switch_channel(rho, standard_pair(2))
        with pytest.raises(ValueError):  # a stack of non-square matrices
            switch_channel(np.zeros((3, 8, 9), dtype=complex), standard_pair(2))
        with pytest.raises(ValueError):  # a stack of the wrong dimension
            switch_channel(np.zeros((3, 4, 4), dtype=complex), standard_pair(2))
        with pytest.raises(ValueError):
            switch_channel(np.zeros(8, dtype=complex), standard_pair(2))

    @pytest.mark.parametrize("n", range(1, 4))
    def test_stack_equals_single_calls(self, n):
        # the channel is literal per matrix: stacking changes no bit, whether
        # the inputs are diagonal density matrices or arbitrary complex ones
        rng = np.random.default_rng(41 + n)
        dim = 2 ** (n + 1)
        diagonal = np.zeros((5, dim, dim), dtype=complex)
        diagonal[:, np.arange(dim), np.arange(dim)] = rng.random((5, dim))
        general = rng.standard_normal((5, dim, dim)) + 1j * rng.standard_normal((5, dim, dim))
        for _label, spec in spec_families(n):
            for stack in (diagonal, general):
                singles = [switch_channel(rho, spec) for rho in stack]
                for stacked, per_matrix in zip(switch_channel(stack, spec), zip(*singles)):
                    assert np.array_equal(stacked, np.stack(per_matrix))

    @pytest.mark.parametrize("n", range(1, 4))
    def test_equals_the_four_term_formula(self, n):
        # both outcomes of one call against the channel written out term by
        # term, for one matrix and for a stack
        rng = np.random.default_rng(61 + n)
        dim = 2 ** (n + 1)
        stack = rng.standard_normal((3, dim, dim)) + 1j * rng.standard_normal((3, dim, dim))
        for _label, spec in spec_families(n):
            u_a, u_b = materialize(spec, "A"), materialize(spec, "B")
            a_h, b_h = u_a.conj().T, u_b.conj().T
            for rho in (stack[0], stack):
                direct = u_a @ u_b @ rho @ b_h @ a_h + u_b @ u_a @ rho @ a_h @ b_h
                cross = u_a @ u_b @ rho @ a_h @ b_h + u_b @ u_a @ rho @ b_h @ a_h
                plus, minus = switch_channel(rho, spec)
                assert np.array_equal(plus, (direct + cross) / 4.0)
                assert np.array_equal(minus, (direct - cross) / 4.0)


class TestDenseReset:
    @pytest.mark.parametrize("n", range(1, 4))
    @pytest.mark.parametrize("eps", (0.1, 0.5, 1.0))
    def test_matches_fast_reset_on_diagonal_states(self, n, eps):
        params = make_thermal_params(eps)
        rng = np.random.default_rng(31 + n)
        vec = rng.random(2 ** (n + 1))
        vec /= vec.sum()
        rho = np.diag(vec).astype(complex)
        dense = dense_reset(rho, params)
        reduced = ReducedState(vec[0::2] + vec[1::2])
        fast = reset(reduced, params)
        assert np.abs(np.diag(dense).real - fast.populations).max() < 1e-13
        assert offdiagonal_magnitude(dense) < 1e-15

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            dense_reset(np.ones((3, 3), dtype=complex), make_thermal_params(0.5))


class TestMinusStep:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_step_matches_the_dense_channel(self, n):
        # the chain's array step against the literal path: reset, the minus
        # branch of the switch channel, normalize, then the re-pump rounds as
        # reset and the two-sort unitary; the reset slot traced out at the end
        rng = np.random.default_rng(40 + n)
        half = 2**n
        sort = materialize(standard_pair(n), "two-sort")
        for eps in (0.05, 0.5, 2.0):
            params = make_thermal_params(eps)
            ground, excited = params.ground_population, params.excited_population
            for label, spec in spec_families(n):
                p = rng.random(half)
                p /= p.sum()
                # any reset-slot state: dense_reset traces it out
                rho = np.kron(np.diag(p), np.diag([0.3, 0.7])).astype(complex)
                _plus, state = switch_channel(dense_reset(rho, params), spec)
                state = state / np.trace(state).real
                for rounds in range(3):
                    if rounds:
                        state = conjugate(sort, dense_reset(state, params))
                    reduced = np.einsum("ajbj->ab", state.reshape(half, 2, half, 2))
                    row = sampling._minus_step(p, ground, excited, spec, rounds)
                    deviation = float(np.abs(np.diag(reduced).real - row).max())
                    assert deviation < 1e-12, (label, eps, rounds)
                    assert offdiagonal_magnitude(reduced) < 1e-12


class TestCompare:
    def test_small_sweep_is_tight_and_deterministic(self):
        report = compare(nmax=2, trials=20, seed=5)
        assert isinstance(report, CompareReport)
        assert report.max_abs_deviation < 1e-12
        assert report.max_offdiagonal < 1e-12
        again = compare(nmax=2, trials=20, seed=5)
        assert again.max_abs_deviation == report.max_abs_deviation
        assert again.by_case == report.by_case

    def test_reports_every_family_and_sign(self):
        report = compare(nmax=2, trials=5, seed=9)
        labels = {label for label, _sign in report.by_case}
        assert {"standard", "ideal", "k=1", "k=2", "tree level=0", "tree level=1"} <= labels
        signs = {sign for _label, sign in report.by_case}
        assert signs == {PLUS, MINUS}

    def test_nmax_guard(self):
        with pytest.raises(ValueError):
            compare(nmax=7)

    @pytest.mark.parametrize("seed", (3, 11))
    @pytest.mark.parametrize("nmax", range(1, 5))
    def test_equals_the_per_trial_loop(self, nmax, seed):
        # chunk - 1 and chunk + 1 straddle a stack boundary at the largest n
        chunk = chunk_size(2 ** (nmax + 1))
        for trials in sorted({1, max(1, chunk - 1), chunk + 1, 100}):
            report = compare(nmax=nmax, trials=trials, seed=seed)
            by_case, max_offdiagonal = per_trial_compare(nmax, trials, seed)
            assert report.by_case == by_case
            assert report.max_offdiagonal == max_offdiagonal
            assert report.max_abs_deviation == max(by_case.values())

    def test_equals_the_per_trial_loop_across_uniform_draws(self, monkeypatch):
        # with 4 KiB stacks one uniform draw covers 128 trials at n = 1 and 64
        # at n = 2, so 129 trials take two and three draws
        monkeypatch.setattr(oracle, "_STACK_BYTES", 1 << 12)
        report = compare(nmax=2, trials=129, seed=2)
        assert (report.by_case, report.max_offdiagonal) == per_trial_compare(2, 129, 2)

    @pytest.mark.parametrize("dim", (4, 32, 64))
    def test_one_stacked_draw_is_successive_single_draws(self, dim):
        # row r is stream (seed, r) of numpy's Philox, however the rows are drawn
        stacked = oracle.uniform_rows(5, 3, 7, dim)
        singles = [oracle.uniform_rows(5, row, 1, dim)[0] for row in range(3, 10)]
        reference = [
            np.random.Generator(np.random.Philox(key=[5, row])).random(dim) for row in range(3, 10)
        ]
        assert np.array_equal(stacked, np.stack(singles))
        assert np.array_equal(stacked, np.stack(reference))

    @pytest.mark.parametrize("nmax,trials", [(4, 20), (5, 3), (6, 2)])
    def test_stacks_stay_within_the_byte_cap(self, monkeypatch, nmax, trials):
        # compare goes through the module-global name, once per stack for
        # both signs, so a wrapper there (as the benchmark tracer installs)
        # sees every call; a stack holds one matrix when one matrix is over
        # the cap (n = 6: 256 KiB)
        seen = []
        real = oracle.switch_channel

        def counting(rho, *args, **kwargs):
            seen.append((rho.nbytes, rho[0].nbytes))
            return real(rho, *args, **kwargs)

        monkeypatch.setattr(oracle, "switch_channel", counting)
        compare(nmax=nmax, trials=trials, seed=1)
        assert all(stack <= max(oracle._STACK_BYTES, matrix) for stack, matrix in seen)
        assert max(stack for stack, _matrix in seen) == max(
            oracle._STACK_BYTES, (2 ** (nmax + 1)) ** 2 * np.dtype(complex).itemsize
        )
        stacks = sum(
            len(spec_families(n)) * math.ceil(trials / chunk_size(2 ** (n + 1)))
            for n in range(1, nmax + 1)
        )
        assert len(seen) == stacks


class TestDiagonalHelpers:
    def test_offdiagonal_magnitude_of_a_stack(self):
        rng = np.random.default_rng(13)
        stack = rng.standard_normal((4, 8, 8)) + 1j * rng.standard_normal((4, 8, 8))
        stack[:, np.arange(8), np.arange(8)] *= 100.0  # the diagonal never counts
        singles = [offdiagonal_magnitude(rho) for rho in stack]
        assert offdiagonal_magnitude(stack) == max(singles)
        for rho, single in zip(stack, singles):
            assert single == float(np.abs(rho - np.diag(np.diag(rho))).max())

    def test_dense_from_diagonal(self):
        state = DiagonalState([0.4, 0.3, 0.2, 0.1])
        rho = dense_from_diagonal(state)
        assert rho.dtype == complex
        assert np.abs(np.diag(rho).real - state.populations).max() == 0.0

    def test_fast_and_dense_branches_agree_on_specific_state(self):
        spec = ideal_pair(2)
        vec = np.array([0.3, 0.25, 0.2, 0.1, 0.05, 0.05, 0.03, 0.02])
        state = DiagonalState(vec)
        dense_branches = switch_channel(np.diag(vec).astype(complex), spec)
        for dense, branch in zip(dense_branches, switch_branches(state, spec)):
            assert np.abs(np.diag(dense).real - branch.populations).max() < 1e-14

    def test_k_and_tree_specs_cover_expected_scalars(self):
        assert int(k_pair(3, 2).one_mask.sum()) == 4
        assert int(tree_pair(3, 0).one_mask.sum()) == 8

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_block_masks_match_the_literal_unitary(self, n):
        # scalar blocks sit on the diagonal, each Pauli pair puts one entry on
        # the superdiagonal at its first index
        for _label, spec in spec_families(n):
            unitary = materialize(spec, "A")
            assert np.array_equal(spec.one_mask, np.abs(np.diag(unitary)) == 1.0)
            assert np.array_equal(spec.pair_starts, np.flatnonzero(np.diag(unitary, 1)))
            assert not spec.one_mask.flags.writeable
            assert not spec.pair_starts.flags.writeable
