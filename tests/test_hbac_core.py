"""Unit tests for the sort step, transfer matrix, and fixed point."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ico_hbac.hbac_core import (
    ConvergenceError,
    TransferMatrix,
    build_transfer,
    fixed_point,
    hbac_round,
    iterate,
    two_sort,
)
from ico_hbac.register import (
    DiagonalState,
    ReducedState,
    make_thermal_params,
    reduce,
    reset,
    uniform_reduced,
)

EPSILONS = (0.1, 0.5, 1.0)


def power_iteration_oracle(matrix: np.ndarray, steps: int = 20000, tol: float = 1e-15):
    """Independent dominant-eigenvector oracle: plain repeated matvec."""
    p = np.full(matrix.shape[0], 1.0 / matrix.shape[0])
    for _ in range(steps):
        nxt = matrix @ p
        if np.abs(nxt - p).sum() < tol:
            return nxt
        p = nxt
    return p


class TestTwoSort:
    def test_single_interior_swap(self):
        state = DiagonalState([0.4, 0.3, 0.2, 0.1])
        assert np.allclose(two_sort(state).populations, [0.4, 0.2, 0.3, 0.1])

    def test_ground_state_is_fixed(self):
        state = DiagonalState([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert np.array_equal(two_sort(state).populations, state.populations)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
    def test_involution_and_permutation(self, n, seed):
        rng = np.random.default_rng(seed)
        vec = rng.random(2 ** (n + 1))
        state = DiagonalState(vec)
        once = two_sort(state)
        twice = two_sort(once)
        assert np.array_equal(twice.populations, state.populations)
        assert np.array_equal(np.sort(once.populations), np.sort(state.populations))
        assert once.norm == state.norm


class TestTransferMatrix:
    def test_smallest_size_matches_thermal_weights(self):
        params = make_thermal_params(0.5)
        a, b = params.ground_population, params.excited_population
        transfer = build_transfer(1, params)
        assert np.allclose(transfer.entries, [[a, a], [b, b]], atol=1e-15)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("eps", EPSILONS)
    def test_columns_sum_to_one(self, n, eps):
        transfer = build_transfer(n, make_thermal_params(eps))
        assert np.abs(transfer.entries.sum(axis=0) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_composed_round_on_basis_vectors(self, n):
        params = make_thermal_params(0.5)
        transfer = build_transfer(n, params)
        size = 2**n
        for k in range(size):
            basis = np.zeros(size)
            basis[k] = 1.0
            composed = reduce(two_sort(reset(ReducedState(basis), params)))
            assert np.abs(transfer.entries[:, k] - composed.populations).max() < 1e-15

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("eps", EPSILONS)
    def test_matrix_free_round_matches_matrix(self, n, eps):
        params = make_thermal_params(eps)
        transfer = build_transfer(n, params)
        rng = np.random.default_rng(42 + n)
        vec = rng.random(2**n)
        vec /= vec.sum()
        state = ReducedState(vec)
        direct = transfer.entries @ state.populations
        assert np.abs(direct - hbac_round(state, params).populations).max() < 1e-13

    def test_size_cap(self):
        with pytest.raises(ValueError):
            build_transfer(13, make_thermal_params(0.5))

    def test_kind_validation(self):
        for shape in ((3, 3), (2, 4), (4,), (0, 0)):
            with pytest.raises(ValueError, match="square power-of-two shape"):
                TransferMatrix(np.zeros(shape))
        with pytest.raises(ValueError, match="must be nonnegative"):
            TransferMatrix(np.array([[0.9, 0.0], [-1e-300, 0.9]]))
        entries = TransferMatrix(np.eye(4)).entries
        assert entries.shape == (4, 4) and not entries.flags.writeable


class TestFixedPoint:
    def test_smallest_size_equals_thermal_weights(self):
        params = make_thermal_params(0.5)
        profile = fixed_point(1, params)
        assert profile.populations[0] == pytest.approx(params.ground_population, abs=1e-15)
        assert profile.populations[1] == pytest.approx(params.excited_population, abs=1e-15)

    def test_frozen_values_n2(self):
        # frozen from the closed form and confirmed by power iteration of T
        profile = fixed_point(2, make_thermal_params(0.5))
        expected = [
            0.6439142598879724,
            0.23688281808991016,
            0.08714431874203257,
            0.032058603280084995,
        ]
        assert np.abs(profile.populations - expected).max() < 1e-14

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("eps", EPSILONS)
    def test_power_iteration_oracle(self, n, eps):
        params = make_thermal_params(eps)
        limit = power_iteration_oracle(build_transfer(n, params).entries)
        assert np.abs(limit - fixed_point(n, params).populations).sum() < 1e-10

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("eps", EPSILONS)
    def test_is_stationary(self, n, eps):
        params = make_thermal_params(eps)
        profile = fixed_point(n, params)
        image = build_transfer(n, params).entries @ profile.populations
        assert np.abs(image - profile.populations).max() < 1e-12

    def test_geometric_decay(self):
        for eps in EPSILONS:
            profile = fixed_point(4, make_thermal_params(eps)).populations
            ratios = profile[1:] / profile[:-1]
            assert np.abs(ratios - math.exp(-2.0 * eps)).max() < 1e-12

    def test_small_epsilon_against_high_precision(self):
        # oracle: mpmath evaluation of the raw geometric expression
        import mpmath

        mpmath.mp.dps = 60
        eps = mpmath.mpf("1e-9")
        n = 6
        size = 2**n
        r = mpmath.e ** (-2 * eps)
        c = (1 - r) / (1 - r**size)
        expected = np.array([float(c * r**k) for k in range(size)])
        got = fixed_point(n, make_thermal_params(1e-9)).populations
        assert np.abs(got - expected).max() < 1e-15
        assert got.sum() == pytest.approx(1.0, abs=1e-12)

    def test_cold_bath_saturation(self):
        # denominator underflows to exactly one; profile is effectively pure
        profile = fixed_point(10, make_thermal_params(1.0))
        assert profile.populations[0] == pytest.approx(1.0 - math.exp(-2.0), abs=1e-12)


class TestIterate:
    def test_converges_to_fixed_point(self):
        params = make_thermal_params(0.5)
        state, steps = iterate(uniform_reduced(2), params, tol=1e-10)
        assert steps > 1
        assert np.abs(state.populations - fixed_point(2, params).populations).sum() < 1e-9

    def test_fixed_point_needs_one_step(self):
        params = make_thermal_params(0.5)
        _state, steps = iterate(fixed_point(3, params), params, tol=1e-10)
        assert steps == 1

    def test_cold_bath_limit(self):
        params = make_thermal_params(5.0)
        state, _ = iterate(uniform_reduced(3), params, tol=1e-12)
        expected = np.zeros(8)
        expected[0] = 1.0
        assert np.abs(state.populations - expected).max() < 1e-4
        assert state.populations[0] > 0.9999

    def test_non_convergence_carries_state(self):
        params = make_thermal_params(0.1)
        with pytest.raises(ConvergenceError) as excinfo:
            iterate(uniform_reduced(4), params, tol=1e-15, max_steps=3)
        assert excinfo.value.steps == 3
        assert isinstance(excinfo.value.state, ReducedState)

    def test_rejects_bad_tolerance(self):
        params = make_thermal_params(0.5)
        with pytest.raises(ValueError):
            iterate(uniform_reduced(2), params, tol=0.0)


class TestSpectralGap:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_dominant_eigenvalue_is_one(self, n):
        params = make_thermal_params(0.5)
        moduli = np.sort(np.abs(np.linalg.eigvals(build_transfer(n, params).entries)))[::-1]
        assert moduli[0] == pytest.approx(1.0, abs=1e-10)
