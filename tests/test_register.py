"""Unit tests for state containers, thermal parameters, and reset/reduce."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ico_hbac.register as register
from ico_hbac.register import (
    DiagonalState,
    ReducedState,
    ThermalParams,
    ground_state,
    make_thermal_params,
    reduce,
    reset,
    thermal_full,
    thermal_reduced,
    uniform_full,
    uniform_reduced,
)


def reduced_from(values):
    return ReducedState(np.asarray(values, dtype=float))


class TestThermalParams:
    def test_frozen_values_eps_half(self):
        # independent evaluation: plain exp/cosh, no shared code path
        params = make_thermal_params(0.5)
        z = 2.0 * math.cosh(0.5)
        assert params.ground_population == pytest.approx(math.exp(0.5) / z, abs=1e-15)
        assert params.excited_population == pytest.approx(math.exp(-0.5) / z, abs=1e-15)
        assert params.ground_population == pytest.approx(0.731058578630005, abs=1e-12)
        assert params.excited_population == pytest.approx(0.26894142136999516, abs=1e-12)
        assert params.ground_population + params.excited_population == pytest.approx(1.0, abs=1e-15)

    def test_cold_bath_limit(self):
        params = make_thermal_params(20.0)
        assert abs(params.ground_population - 1.0) < 1e-12
        assert abs(params.excited_population) < 1e-12

    @pytest.mark.parametrize("eps", [400.0, 700.0, 709.7])
    def test_huge_epsilon_does_not_overflow(self, eps):
        # exp(2 eps) overflows at each of these; the excited weight is then exp(-2 eps)
        params = make_thermal_params(eps)
        assert params.ground_population == 1.0
        assert params.excited_population == math.exp(-2.0 * eps)

    @pytest.mark.parametrize("eps", [710.0, 800.0, 1e300])
    def test_overflowing_partition_constant_is_a_value_error(self, eps):
        with pytest.raises(ValueError, match="overflows the partition constant"):
            make_thermal_params(eps)
        with pytest.raises(ValueError, match="overflows the partition constant"):
            ThermalParams(epsilon=eps)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, "0.5", None, True])
    def test_rejects_bad_epsilon(self, bad):
        with pytest.raises(ValueError):
            make_thermal_params(bad)

    def test_tiny_epsilon_is_stable(self):
        params = make_thermal_params(1e-9)
        # populations straddle 1/2 by eps/2 to leading order
        assert params.ground_population - 0.5 == pytest.approx(0.5e-9, rel=1e-6)
        assert 0.5 - params.excited_population == pytest.approx(0.5e-9, rel=1e-6)


class TestStates:
    def test_diagonal_reads_n_off_the_length(self):
        state = DiagonalState([0.25, 0.25, 0.25, 0.25])
        assert state.n == 1
        assert state.norm == pytest.approx(1.0)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            DiagonalState([0.5, -0.1, 0.3, 0.3])

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            DiagonalState([0.5, 0.3, 0.2])

    def test_rejects_norm_mismatch(self):
        with pytest.raises(ValueError):
            DiagonalState([0.5, 0.5, 0.0, 0.0], norm=0.7)

    @pytest.mark.parametrize("cls,minimum", [(DiagonalState, 2), (ReducedState, 1)])
    def test_each_kind_keeps_its_messages(self, cls, minimum):
        name = cls.__name__
        with pytest.raises(ValueError, match=f"^{name} entries sum to 1.0, expected norm 0.5$"):
            cls([0.25, 0.25, 0.25, 0.25], norm=0.5)
        for size in range(minimum):
            with pytest.raises(
                ValueError,
                match=f"^population length must be a power of two >= {minimum}, got {size}$",
            ):
                cls([1.0] * size)
        smallest = cls([1.0] * minimum)
        assert (smallest.n, smallest.populations.size) == (0, minimum)
        assert type(smallest.normalized()) is cls

    @pytest.mark.parametrize("cls", [DiagonalState, ReducedState])
    def test_negative_zero_is_stored_as_zero(self, cls):
        given = np.array([0.5, -0.0, 0.25, 0.25])
        state = cls(given)
        assert not np.signbit(state.populations).any()
        assert np.array_equal(state.populations, given)
        assert np.signbit(given[1])  # the caller's array is left as it was

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ReducedState([0.5, math.nan])

    def test_exponent_above_the_cap_is_rejected(self, monkeypatch):
        # a state at the real cap of 24 takes 2**25 floats, so a lowered cap stands in
        monkeypatch.setattr(register, "MAX_REGISTER_EXPONENT", 3)
        assert DiagonalState(np.full(16, 1.0 / 16.0)).n == 3
        with pytest.raises(ValueError, match=r"^n=4 outside \[0, 3\]$"):
            DiagonalState(np.full(32, 1.0 / 32.0))

    def test_populations_are_immutable(self):
        state = uniform_full(2)
        with pytest.raises(ValueError):
            state.populations[0] = 1.0

    def test_normalized(self):
        state = DiagonalState([0.2, 0.2, 0.0, 0.0])
        normalized = state.normalized()
        assert normalized.norm == pytest.approx(1.0)
        assert normalized.populations[0] == pytest.approx(0.5)
        with pytest.raises(ValueError):
            DiagonalState([0.0, 0.0]).normalized()

    def test_factories(self):
        params = make_thermal_params(0.5)
        assert ground_state(2).populations[0] == 1.0
        assert uniform_reduced(3).populations.sum() == pytest.approx(1.0)
        full = thermal_full(2, params)
        # product state: entry for |g g e> is a*a*b
        a, b = params.ground_population, params.excited_population
        assert full.populations[1] == pytest.approx(a * a * b, abs=1e-15)
        reduced = thermal_reduced(2, params)
        assert reduced.populations[0] == pytest.approx(a * a, abs=1e-15)


class TestReduceReset:
    def test_reduce_pure_ground(self):
        state = DiagonalState([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(reduce(state).populations, [1.0, 0.0])

    def test_reduce_pairwise_sums(self):
        state = DiagonalState([0.4, 0.3, 0.2, 0.1])
        assert np.allclose(reduce(state).populations, [0.7, 0.3])

    def test_reset_tensor_product(self):
        # oracle: explicit tensor product of p with the thermal weights
        params = make_thermal_params(0.5)
        p = reduced_from([1.0, 0.0])
        expected = np.kron([1.0, 0.0], [math.exp(0.5), math.exp(-0.5)]) / (2 * math.cosh(0.5))
        out = reset(p, params)
        assert np.abs(out.populations - expected).max() < 1e-15
        assert out.populations[0] == pytest.approx(0.731058578630005, abs=1e-12)
        assert out.populations[1] == pytest.approx(0.26894142136999516, abs=1e-12)

    def test_reset_cold_bath(self):
        params = make_thermal_params(30.0)
        out = reset(reduced_from([0.5, 0.5]), params)
        assert np.abs(out.populations - [0.5, 0.0, 0.5, 0.0]).max() < 1e-12

    def test_reset_preserves_norm(self):
        params = make_thermal_params(0.7)
        rng = np.random.default_rng(5)
        vec = rng.random(8)
        p = ReducedState(vec)
        assert reset(p, params).norm == pytest.approx(p.norm)

    def test_reset_interleave_ratio(self):
        params = make_thermal_params(0.8)
        rng = np.random.default_rng(6)
        vec = rng.random(16) + 0.01
        out = reset(ReducedState(vec), params).populations
        ratios = out[0::2] / out[1::2]
        assert np.abs(ratios - math.exp(1.6)).max() < 1e-12

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(min_value=1, max_value=5),
        st.floats(min_value=1e-6, max_value=5.0),
        st.data(),
    )
    def test_reduce_reset_roundtrip(self, n, eps, data):
        entries = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0),
                min_size=2**n,
                max_size=2**n,
            )
        )
        p = ReducedState(np.asarray(entries))
        params = make_thermal_params(eps)
        back = reduce(reset(p, params))
        assert np.abs(back.populations - p.populations).max() <= 1e-14 * max(1.0, p.norm)
