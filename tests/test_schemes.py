"""Unit tests for scheme configs, success laws, retries, and the sampler."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ico_hbac import oracle, philox, register, sampling, schemes
from ico_hbac.hbac_core import build_transfer, fixed_point, hbac_round
from ico_hbac.register import (
    DiagonalState,
    ReducedState,
    _thermal_product,
    ground_state,
    make_thermal_params,
    reduce,
    reset,
    thermal_full,
    thermal_reduced,
    uniform_full,
    uniform_reduced,
)
from ico_hbac.schemes import (
    HBAC,
    HBAC_ICO,
    HBAC_KICO,
    ICO_ALONE,
    ICO_TREE_SORT,
    IDEAL,
    STANDARD,
    MaxAttemptsError,
    SchemeConfig,
    expected_trials,
    final_state,
    initial_state,
    plus_weight_vector,
    run_round,
    run_scheme,
    sample_batch,
    scheme_spec,
    success_probability,
)
from ico_hbac.sampling import AttemptChain, _philox_uniforms
from ico_hbac.switch import (
    MINUS,
    PLUS,
    branch_transfer,
    ideal_pair,
    k_pair,
    standard_pair,
    switch_branches,
    tree_pair,
)


class TestConfigValidation:
    def test_k_only_for_k_scheme(self):
        with pytest.raises(ValueError):
            SchemeConfig(scheme=HBAC_ICO, n=3, epsilon=0.5, k=2)
        with pytest.raises(ValueError):
            SchemeConfig(scheme=HBAC_KICO, n=3, epsilon=0.5)
        with pytest.raises(ValueError):
            SchemeConfig(scheme=HBAC_KICO, n=3, epsilon=0.5, k=4)

    def test_bath_schemes_need_epsilon(self):
        with pytest.raises(ValueError):
            SchemeConfig(scheme=HBAC_ICO, n=3)
        SchemeConfig(scheme=ICO_ALONE, n=3)  # fine without a bath

    def test_initial_state_type_and_size(self):
        reduced = [0.125] * 8
        full = [1.0 / 16.0] * 16
        SchemeConfig(scheme=HBAC_ICO, n=3, epsilon=0.5, initial=reduced)
        SchemeConfig(scheme=ICO_ALONE, n=3, initial=full)
        with pytest.raises(ValueError, match="must have length 8 for this scheme, got 16"):
            SchemeConfig(scheme=HBAC_ICO, n=3, epsilon=0.5, initial=full)
        with pytest.raises(ValueError, match="must have length 16 for this scheme, got 8"):
            SchemeConfig(scheme=ICO_ALONE, n=3, initial=reduced)
        with pytest.raises(ValueError, match="must have length 4 for this scheme, got 8"):
            SchemeConfig(scheme=HBAC_ICO, n=2, epsilon=0.5, initial=reduced)
        with pytest.raises(ValueError, match="hbac takes no initial state"):
            SchemeConfig(scheme=HBAC, n=3, epsilon=0.5, initial=reduced)
        with pytest.raises(ValueError, match="initial state must have a positive norm, got 0.0"):
            SchemeConfig(scheme=HBAC_ICO, n=3, epsilon=0.5, initial=[0.0] * 8)
        # selectors and population lists become the states the CLI once built from them
        params = make_thermal_params(0.5)
        profile = fixed_point(3, params)
        populations = [0.4, 0.3, 0.2, 0.1, 0.0, 0.0, 0.0, 0.0]
        rows = [
            (HBAC_ICO, "uniform", uniform_reduced(3)),
            (HBAC_ICO, "thermal", thermal_reduced(3, params)),
            (HBAC_ICO, "fixed-point", profile),
            (HBAC_ICO, populations, ReducedState(np.asarray(populations))),
            (ICO_ALONE, "uniform", uniform_full(3)),
            (ICO_ALONE, "thermal", thermal_full(3, params)),
            (ICO_ALONE, "fixed-point", reset(profile, params)),
            (ICO_ALONE, populations * 2, DiagonalState(np.asarray(populations * 2))),
        ]
        for scheme, initial, expected in rows:
            state = initial_state(SchemeConfig(scheme=scheme, n=3, epsilon=0.5, initial=initial))
            assert type(state) is type(expected)
            assert np.array_equal(state.populations, expected.populations)
        with pytest.raises(ValueError, match="initial must be one of"):
            SchemeConfig(scheme=ICO_ALONE, n=3, initial="bogus")
        with pytest.raises(ValueError, match="a thermal initial state needs epsilon"):
            SchemeConfig(scheme=ICO_ALONE, n=3, initial="thermal")
        with pytest.raises(ValueError, match="must have length 8 for this scheme, got 16"):
            SchemeConfig(scheme=HBAC_ICO, n=3, epsilon=0.5, initial=populations * 2)

    @pytest.mark.parametrize(
        "scheme,state",
        [(HBAC_ICO, ReducedState(np.full(8, 0.125))), (ICO_ALONE, uniform_full(3))],
    )
    def test_initial_takes_a_selector_or_a_list_not_a_state(self, scheme, state):
        forms = r"initial must be one of \('uniform', 'thermal', 'fixed-point'\) or a list of populations"
        with pytest.raises(ValueError, match=f"^{forms}, got {type(state).__name__}"):
            SchemeConfig(scheme=scheme, n=3, epsilon=0.5, initial=state)
        with pytest.raises(ValueError, match="hbac takes no initial state"):
            SchemeConfig(scheme=HBAC, n=3, epsilon=0.5, initial="uniform")

    def test_repump_rounds_are_capped(self):
        cap = schemes.MAX_REPUMP_ROUNDS
        SchemeConfig(scheme=HBAC_KICO, n=3, epsilon=0.5, k=1, repump_rounds=cap)
        with pytest.raises(ValueError, match=f"^repump_rounds is capped at {cap}, got {cap + 1}$"):
            SchemeConfig(scheme=HBAC_KICO, n=3, epsilon=0.5, k=1, repump_rounds=cap + 1)
        with pytest.raises(ValueError, match="^repump_rounds must be >= 0, got -1$"):
            SchemeConfig(scheme=HBAC_ICO, n=3, epsilon=0.5, repump_rounds=-1)

    def test_desired_success_range(self):
        with pytest.raises(ValueError):
            SchemeConfig(scheme=HBAC, n=2, epsilon=0.5, desired_success=1.0)

    def test_scheme_specs(self):
        assert scheme_spec(SchemeConfig(scheme=HBAC, n=2, epsilon=0.5)) is None
        standard = scheme_spec(SchemeConfig(scheme=HBAC_ICO, n=2, epsilon=0.5))
        assert standard.one_mask.tolist() == [True] + [False] * 6 + [True]
        k_switch = scheme_spec(SchemeConfig(scheme=HBAC_KICO, n=3, epsilon=0.5, k=2))
        assert k_switch.one_mask.tolist() == [True] * 4 + [False] * 12
        ideal = scheme_spec(SchemeConfig(scheme=ICO_ALONE, n=2, pair="ideal"))
        assert ideal.one_mask.tolist() == [True] * 2 + [False] * 6
        tree = scheme_spec(SchemeConfig(scheme=ICO_TREE_SORT, n=2, epsilon=0.5))
        assert tree.one_mask.tolist() == [True] * 4 + [False] * 4


class TestSuccessProbability:
    def test_switch_after_cooling_approaches_tanh(self):
        # at n=10 the finite-size correction is far below double precision
        config = SchemeConfig(scheme=HBAC_ICO, n=10, epsilon=0.5)
        assert success_probability(config) == pytest.approx(0.46211715726000974, abs=1e-14)

    def test_switch_after_cooling_matches_branch_norm_everywhere(self):
        for eps in (0.1, 0.5, 1.0):
            for n in range(1, 9):
                config = SchemeConfig(scheme=HBAC_ICO, n=n, epsilon=eps)
                plus, _ = run_round(fixed_point(n, make_thermal_params(eps)), config)
                assert success_probability(config) == pytest.approx(plus.norm, abs=1e-12)

    def test_k_switch_frozen_value(self):
        # frozen from (1 - e^-0.2) / (1 - e^-1.6), cross-checked against the
        # stationary-profile partial sum below
        config = SchemeConfig(scheme=HBAC_KICO, n=3, epsilon=0.1, k=1)
        assert success_probability(config) == pytest.approx(0.2271249919453481, abs=1e-14)

    def test_k_switch_equals_partial_stationary_sum(self):
        for eps in (0.1, 0.5, 1.0):
            for n in range(2, 8):
                profile = fixed_point(n, make_thermal_params(eps)).populations
                for k in range(1, n + 1):
                    config = SchemeConfig(scheme=HBAC_KICO, n=n, epsilon=eps, k=k)
                    assert success_probability(config) == pytest.approx(
                        float(profile[: 2 ** (k - 1)].sum()), abs=1e-12
                    )

    def test_k1_equals_first_stationary_entry(self):
        for n in range(2, 8):
            profile = fixed_point(n, make_thermal_params(0.3))
            config = SchemeConfig(scheme=HBAC_KICO, n=n, epsilon=0.3, k=1)
            assert success_probability(config) == pytest.approx(profile.populations[0], abs=1e-14)

    def test_small_gap_asymptotes(self):
        config = SchemeConfig(scheme=HBAC_ICO, n=10, epsilon=0.01)
        assert abs(success_probability(config) / 0.01 - 1.0) < 0.1
        config = SchemeConfig(scheme=HBAC_KICO, n=12, epsilon=0.005, k=3)
        assert abs(success_probability(config) / (8 * 0.005) - 1.0) < 0.1

    def test_bath_free_scheme_reads_extremal_weights(self):
        vec = [0.4, 0.3, 0.2, 0.1]
        standard = SchemeConfig(scheme=ICO_ALONE, n=1, initial=vec)
        assert success_probability(standard) == pytest.approx(0.5)
        ideal = SchemeConfig(scheme=ICO_ALONE, n=1, initial=vec, pair="ideal")
        assert success_probability(ideal) == pytest.approx(0.7)

    def test_bath_free_default_is_thermal(self):
        params = make_thermal_params(0.5)
        config = SchemeConfig(scheme=ICO_ALONE, n=3, epsilon=0.5)
        a, b = params.ground_population, params.excited_population
        assert success_probability(config) == pytest.approx(a**4 + b**4, abs=1e-14)

    def test_deterministic_schemes(self):
        assert success_probability(SchemeConfig(scheme=HBAC, n=3, epsilon=0.5)) == 1.0
        assert success_probability(SchemeConfig(scheme=ICO_TREE_SORT, n=3)) == 1.0

    def test_explicit_initial_for_bath_scheme(self):
        params = make_thermal_params(0.5)
        vec = [0.5, 0.3, 0.15, 0.05]
        config = SchemeConfig(scheme=HBAC_ICO, n=2, epsilon=0.5, initial=vec)
        expected = params.ground_population * 0.5 + params.excited_population * 0.05
        assert success_probability(config) == pytest.approx(expected, abs=1e-15)
        plus, _ = run_round(ReducedState(vec), config)
        assert plus.norm == pytest.approx(expected, abs=1e-15)


class TestExpectedTrials:
    def test_examples(self):
        assert expected_trials(0.5, 0.99) == 7
        assert expected_trials(1.0, 0.99) == 1

    def test_boundary_is_exact(self):
        # m=7 reaches 0.9921875, m=6 only 0.984375
        assert expected_trials(0.5, 0.984375) == 6
        assert expected_trials(0.5, 0.9843750000000001) == 7

    def test_unbounded(self):
        with pytest.raises(ValueError):
            expected_trials(0.0, 0.9)

    def test_scaling_with_small_probability(self):
        eps = 1e-4
        desired = 1.0 - 1.0 / math.e
        m = expected_trials(2 * eps, desired)
        assert abs(m * 2 * eps - 1.0) < 0.01

    @pytest.mark.parametrize("probability", [1e-300, 1e-20, 1e-17])
    def test_counts_past_float_precision(self, probability):
        # neighbouring counts share a float product here: the smallest count
        # that reaches is still found, without walking the ones that share it
        failure_log = math.log1p(-probability)
        m = expected_trials(probability, 0.9)
        assert -math.expm1(m * failure_log) >= 0.9
        assert -math.expm1((m - 1) * failure_log) < 0.9
        assert m * probability == pytest.approx(-math.log(0.1), rel=1e-12)

    @pytest.mark.parametrize("probability", [1e-320, 5e-324, 2.3e-308])
    def test_count_outside_the_float_range_is_a_domain_error(self, probability):
        with pytest.raises(ValueError, match="too small"):
            expected_trials(probability, 0.9)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            expected_trials(1.5, 0.9)
        with pytest.raises(ValueError):
            expected_trials(0.5, 0.0)


class TestRunRound:
    def test_plus_branch_support_after_cooling(self):
        config = SchemeConfig(scheme=HBAC_ICO, n=3, epsilon=0.5)
        plus, _ = run_round(fixed_point(3, make_thermal_params(0.5)), config)
        support = np.nonzero(plus.populations)[0]
        assert set(support) <= {0, 15}

    def test_bath_free_round_skips_reset(self):
        vec = [0.4, 0.3, 0.2, 0.1]
        config = SchemeConfig(scheme=ICO_ALONE, n=1, initial=vec)
        plus, minus = run_round(DiagonalState(vec), config)
        assert plus.norm == pytest.approx(0.5)
        assert np.allclose(minus.populations, [0.0, 0.2, 0.3, 0.0])

    def test_plain_cooling_has_no_round(self):
        config = SchemeConfig(scheme=HBAC, n=2, epsilon=0.5)
        with pytest.raises(ValueError):
            run_round(ReducedState(np.full(4, 0.25)), config)

    def test_type_and_size_mismatch(self):
        config = SchemeConfig(scheme=ICO_ALONE, n=2)
        with pytest.raises(TypeError):
            run_round(ReducedState(np.full(4, 0.25)), config)
        bath = SchemeConfig(scheme=HBAC_ICO, n=3, epsilon=0.5)
        with pytest.raises(ValueError):
            run_round(ReducedState(np.full(4, 0.25)), bath)

    @pytest.mark.parametrize("scheme,k", [(HBAC_ICO, None), (HBAC_KICO, 1)])
    def test_rejects_full_state_for_bath_scheme(self, scheme, k):
        # a bath scheme resets the reduced register itself: a full-register
        # state is refused as a bath-free scheme refuses a reduced one
        config = SchemeConfig(scheme=scheme, n=2, epsilon=0.5, k=k)
        with pytest.raises(TypeError):
            run_round(DiagonalState(np.full(8, 0.125)), config)


def _minus_row(state: ReducedState, params, spec, rounds: int = 0) -> np.ndarray:
    ground, excited = params.ground_population, params.excited_population
    return sampling._minus_step(state.populations, ground, excited, spec, rounds)


class TestFailureUpdate:
    def test_matches_minus_transfer_matrix(self):
        params = make_thermal_params(0.5)
        spec = standard_pair(2)
        profile = fixed_point(2, params)
        updated = _minus_row(profile, params, spec)
        minus_matrix = branch_transfer(2, params, spec, MINUS).entries
        expected = minus_matrix @ profile.populations
        expected /= expected.sum()
        assert np.abs(updated - expected).max() < 1e-14

    def test_norm_complement(self):
        params = make_thermal_params(0.5)
        spec = standard_pair(3)
        profile = fixed_point(3, params)
        minus_matrix = branch_transfer(3, params, spec, MINUS).entries
        config = SchemeConfig(scheme=HBAC_ICO, n=3, epsilon=0.5)
        assert float((minus_matrix @ profile.populations).sum()) == pytest.approx(
            1.0 - success_probability(config), abs=1e-12
        )

    def test_zero_probability_branch(self):
        # a pure ground input under a leading-scalars family never fails
        params = make_thermal_params(0.5)
        ground = ReducedState([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="zero probability"):
            _minus_row(ground, params, k_pair(2, 1))


def _retry_family(n: int, index: int):
    """Retry pair family ``index``: standard, ideal, then ``k_pair(n, k)`` for k = 1..n."""
    if index == 0:
        return standard_pair(n)
    return ideal_pair(n) if index == 1 else k_pair(n, index - 1)


class TestMinusStep:
    """The chain's array step against the validated reset -> switch -> reduce path, bit for bit."""

    @settings(deadline=None, max_examples=150)
    @given(
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=1e-6, max_value=709.7),
        st.integers(min_value=0, max_value=2),
        st.data(),
    )
    def test_equals_the_validated_path(self, n, eps, rounds, data):
        spec = _retry_family(n, data.draw(st.integers(min_value=0, max_value=n + 1)))
        entries = data.draw(st.lists(st.floats(0.0, 1.0), min_size=2**n, max_size=2**n))
        assume(sum(entries) > 0.0)
        state = ReducedState(entries).normalized()
        params = make_thermal_params(eps)
        try:
            expected = reduce(switch_branches(reset(state, params), spec)[1]).normalized()
        except ValueError:
            # the minus branch carries nothing: the step refuses to condition on it
            with pytest.raises(ValueError, match="zero probability"):
                _minus_row(state, params, spec, rounds)
            return
        for done in range(rounds + 1):
            if done:
                expected = hbac_round(expected, params)
            row = _minus_row(state, params, spec, done)
            assert row.dtype == np.float64
            assert row.tobytes() == expected.populations.tobytes()

    @settings(deadline=None, max_examples=30)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
    def test_tree_child_is_one_normalized_branch(self, n, seed):
        initial = np.random.default_rng(seed).random(2 ** (n + 1)).tolist()
        chain = AttemptChain(SchemeConfig(scheme=ICO_TREE_SORT, n=n, initial=initial))
        # every prefix code past the root and short of a leaf: 2 .. 2**n - 1
        for code in range(2, 2**n):
            parent, _probability = chain.at(code >> 1)
            level = code.bit_length() - 1
            plus, minus = switch_branches(DiagonalState(parent), tree_pair(n, level - 1))
            expected = (plus if code & 1 else minus).normalized()
            row, _probability = chain.at(code)
            assert row.tobytes() == expected.populations.tobytes()

    def test_chain_builds_no_state_objects(self, monkeypatch):
        # each state kind binds _Populations.__post_init__ in its own namespace
        checked = []
        for cls in (register._Populations, DiagonalState, ReducedState):
            original = vars(cls)["__post_init__"]

            def counting(self, original=original):
                checked.append(type(self).__name__)
                original(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        config = SchemeConfig(scheme=HBAC_ICO, n=6, epsilon=0.1)
        chain = AttemptChain(config)
        first = chain.states[0]
        built = len(checked)
        chain.at(40)
        early = chain.states[:40]
        chain.at(320)
        assert len(chain.states) == 320
        assert 0 < built <= 2  # the initial state only, and the wrappers count
        assert len(checked) == built
        # rows are kept, not copied into a larger buffer as the chain grows
        assert chain.states[0] is first
        assert all(a is b for a, b in zip(chain.states, early))
        for row in chain.states:
            assert row.dtype == np.float64 and row.shape == (2**6,)
            assert not row.flags.writeable
        with pytest.raises(ValueError):
            chain.states[-1][0] = 0.0


def _streams(start: int, stop: int) -> np.ndarray:
    """Philox stream indices ``start .. stop - 1``, as ``AttemptChain.draw`` takes them."""
    return np.arange(start, stop, dtype=np.uint64)


def _stream(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def reference_walk(config: SchemeConfig, count: int, start_index: int = 0):
    """The sampler as a plain loop: one generator per trajectory, one draw per attempt.

    Returns the chain it walked and ``(trials_used, run)`` per trajectory, or
    raises :class:`MaxAttemptsError` for the first trajectory that fails.  A
    heralded run is its trials used; a tree-sort run is its code, a leading 1
    bit, then one bit per level, 1 for plus.
    """
    chain = AttemptChain(config)
    runs = []
    for index in range(start_index, start_index + count):
        rng = _stream(config.seed, index)
        if config.scheme == ICO_TREE_SORT:
            code = 1
            for _level in range(config.n):
                _state, probability = chain.at(code)
                code = 2 * code + (1 if rng.random() < probability else 0)
            runs.append((1, code))
            continue
        trials = None
        message = f"no plus outcome within {config.max_attempts} attempts"
        for attempt in range(1, config.max_attempts + 1):
            _state, probability = chain.at(attempt)
            if probability == 0.0 and chain.absorbing:
                message += f": the plus probability is exactly 0 from attempt {attempt} on"
                break
            if rng.random() < probability:
                trials = attempt
                break
        if trials is None:
            raise MaxAttemptsError(message, config.max_attempts)
        runs.append((trials, trials))
    return chain, runs


def _sampled(config: SchemeConfig, count: int):
    """(chain, [(trials_used, run)]) from ``sample_batch`` and ``AttemptChain.trials``."""
    chain = AttemptChain(config)
    batch = sample_batch(chain, count)
    return chain, [(chain.trials(run), run) for run in batch.tolist()]


_REFERENCE_CASES = [
    dict(scheme=HBAC, epsilon=0.5),
    dict(scheme=HBAC_ICO, epsilon=0.5),
    dict(scheme=HBAC_ICO, epsilon=0.5, repump_rounds=2),
    dict(scheme=ICO_ALONE, epsilon=0.5),
    dict(scheme=ICO_ALONE, epsilon=0.5, pair="ideal"),
    dict(scheme=ICO_ALONE),
    dict(scheme=ICO_TREE_SORT, epsilon=0.5),
    dict(scheme=HBAC_KICO, epsilon=0.5, k=1, repump_rounds=1),
    dict(scheme=HBAC_KICO, epsilon=0.5, k=2, repump_rounds=1),
    dict(scheme=HBAC_KICO, epsilon=0.5, k=2, repump_rounds=2),
]


def _assert_lanes_match_numpy(lanes: int, seed: int = 2**63 + 5) -> None:
    """``_philox_uniforms`` over ``lanes`` lanes equals numpy's Philox, lane by lane.

    Each stream fills three neighbouring lanes with its counter blocks 2, 1
    and 0, so every lane block mixes streams and counter blocks.
    """
    lane = np.arange(lanes)
    streams = (lane // 3 + 2**32 - 1).astype(np.uint64)
    blocks = 2 - lane % 3
    draws = {stream: _stream(seed, stream).random(12) for stream in set(streams.tolist())}
    expected = [draws[s][4 * b : 4 * b + 4] for s, b in zip(streams.tolist(), blocks.tolist())]
    got = _philox_uniforms(seed, streams, blocks)
    assert got.shape == (lanes, 4)
    assert np.array_equal(got, np.array(expected))


class TestPhiloxKernel:
    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_blocks_match_numpy_philox(self, seed):
        # 2001 streams and three counter blocks each; the last stream index
        # needs the high 32 bits of the key word
        streams = np.array([*range(2000), 2**32 + 7], dtype=np.uint64)
        expected = np.array([_stream(seed, int(i)).random(12) for i in streams])
        for block in range(3):
            got = _philox_uniforms(seed, streams, np.full(streams.size, block))
            assert got.shape == (streams.size, 4)
            assert np.array_equal(got, expected[:, 4 * block : 4 * block + 4])

    @pytest.mark.parametrize("extra", [-1, 0, 1, philox._BLOCK + 3])
    def test_lane_blocks_match_numpy_philox(self, extra):
        # one lane short of a lane block, a block, one over, and two blocks and three
        _assert_lanes_match_numpy(philox._BLOCK + extra)

    def test_lane_blocks_of_seven(self, monkeypatch):
        monkeypatch.setattr(philox, "_BLOCK", 7)
        for lanes in (1, 6, 7, 8, 17, 100):
            _assert_lanes_match_numpy(lanes)

    def test_blocks_of_one_stream_may_differ_per_lane(self):
        # lanes pair any stream with any counter block, as the heralded walk's lookahead does
        streams = np.array([5, 5, 5, 9, 9], dtype=np.uint64)
        blocks = np.array([0, 1, 2, 2, 0])
        got = _philox_uniforms(12345, streams, blocks)
        for row, (stream, block) in enumerate(zip(streams.tolist(), blocks.tolist())):
            expected = _stream(12345, stream).random(12)[4 * block : 4 * block + 4]
            assert np.array_equal(got[row], expected)


class TestSampler:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "case", _REFERENCE_CASES, ids=lambda case: "-".join(f"{v}" for v in case.values())
    )
    def test_batch_matches_reference_walk(self, case, n, seed):
        config = SchemeConfig(n=n, seed=seed, **case)
        ref_chain, expected = reference_walk(config, 60)
        chain, got = _sampled(config, 60)
        assert got == expected
        assert len(chain.states) == len(ref_chain.states)

    @pytest.mark.parametrize(
        "case",
        [
            # stuck at a plus probability of exactly 0 after one failure
            dict(scheme=HBAC_KICO, n=2, epsilon=1.0, k=2, seed=123, max_attempts=100_000),
            # no heralding weight at all, and the retry re-prepares it
            dict(
                scheme=ICO_ALONE,
                n=1,
                initial=[0.0, 0.5, 0.5, 0.0],
                max_attempts=5,
            ),
            # an attempt budget too small for the batch
            dict(scheme=HBAC_ICO, n=3, epsilon=0.5, seed=3, max_attempts=5),
            dict(scheme=HBAC_KICO, n=3, epsilon=0.5, k=2, seed=2, repump_rounds=1, max_attempts=3),
        ],
    )
    def test_failure_matches_reference_walk(self, case):
        config = SchemeConfig(**case)
        with pytest.raises(MaxAttemptsError) as expected:
            reference_walk(config, 200)
        with pytest.raises(MaxAttemptsError) as got:
            sample_batch(AttemptChain(config), 200)
        assert str(got.value) == str(expected.value)
        assert got.value.trajectory == expected.value.trajectory == config.max_attempts

    def test_fixed_seed_reproduces_trajectory(self):
        config = SchemeConfig(scheme=HBAC_ICO, n=2, epsilon=0.5, seed=11)
        first = AttemptChain(config).draw(_streams(4, 5))
        second = AttemptChain(config).draw(_streams(4, 5))
        assert first.tolist() == second.tolist()
        # two independently built chains hold the same states at every attempt
        chain_a, chain_b = AttemptChain(config), AttemptChain(config)
        for attempt in range(1, int(first[0]) + 1):
            sa, pa = chain_a.at(attempt)
            sb, pb = chain_b.at(attempt)
            assert np.array_equal(sa, sb)
            assert pa == pb

    def test_distinct_indices_are_independent(self):
        config = SchemeConfig(scheme=HBAC_ICO, n=2, epsilon=0.3, seed=11)
        trials = [int(AttemptChain(config).draw(_streams(i, i + 1))[0]) for i in range(200)]
        assert len(set(trials)) > 1

    def test_batch_run_i_draws_stream_i(self):
        # sample_batch is AttemptChain.draw over streams 0 .. count - 1
        for config in (
            SchemeConfig(scheme=HBAC_ICO, n=3, epsilon=0.5, seed=5),
            SchemeConfig(scheme=ICO_TREE_SORT, n=4, epsilon=0.5, seed=5),
        ):
            batch = sample_batch(AttemptChain(config), 40)
            assert batch.tolist() == AttemptChain(config).draw(_streams(0, 40)).tolist()

    def test_batch_matches_individual_sampling(self):
        config = SchemeConfig(scheme=HBAC_KICO, n=3, epsilon=0.4, k=2, seed=3, repump_rounds=2)
        chain = AttemptChain(config)
        batch = sample_batch(chain, 50)
        singles = [int(AttemptChain(config).draw(_streams(i, i + 1))[0]) for i in range(50)]
        assert batch.tolist() == singles
        split = np.concatenate(
            [
                sample_batch(AttemptChain(config), 20),
                AttemptChain(config).draw(_streams(20, 50)),
            ]
        )
        assert split.tolist() == batch.tolist()
        # the chain holds exactly the states some run reached
        assert len(chain.states) == batch.max()

    def test_slices_of_a_batch_give_the_same_runs(self, monkeypatch):
        # batches drawn in slices of 7 trajectories; the tree cascade has more
        # levels than one counter block holds
        monkeypatch.setattr(schemes, "_SLICE", 7)
        for config in (
            SchemeConfig(scheme=HBAC_ICO, n=3, epsilon=0.5, seed=9),
            SchemeConfig(scheme=ICO_TREE_SORT, n=6, epsilon=0.5, seed=9),
        ):
            assert _sampled(config, 100)[1] == reference_walk(config, 100)[1]
            # streams 3 .. 102 in one draw: the same runs as the walk from index 3
            chain = AttemptChain(config)
            runs = chain.draw(_streams(3, 103)).tolist()
            assert [(chain.trials(run), run) for run in runs] == reference_walk(config, 100, 3)[1]

    def test_empirical_round_success_matches_branch_norm(self):
        # at every round of the deterministic retry chain, the empirical
        # success fraction must sit within 5 sigma of the analytic branch norm
        config = SchemeConfig(scheme=HBAC_ICO, n=2, epsilon=0.5, seed=101)
        chain = AttemptChain(config)
        batch = sample_batch(chain, 10_000)
        params = make_thermal_params(0.5)
        spec = standard_pair(2)
        # independent chain: dense minus matrix, probabilities from the plus matrix
        minus_matrix = branch_transfer(2, params, spec, MINUS).entries
        plus_diagonal = np.diag(branch_transfer(2, params, spec, PLUS).entries)
        state = fixed_point(2, params).populations
        analytic = []
        for _ in range(12):
            analytic.append(float(plus_diagonal @ state))
            nxt = minus_matrix @ state
            state = nxt / nxt.sum()
        reach = np.zeros(12, dtype=int)
        wins = np.zeros(12, dtype=int)
        for trials_used in batch.tolist():
            # every attempt before the last failed
            for round_index, sign in enumerate(MINUS * (trials_used - 1) + PLUS):
                if round_index >= 12:
                    break
                reach[round_index] += 1
                wins[round_index] += sign == PLUS
        for i in range(12):
            if reach[i] < 100:
                break
            p = analytic[i]
            assert chain.at(i + 1)[1] == pytest.approx(p, abs=1e-12)
            sigma = math.sqrt(p * (1 - p) / reach[i])
            assert abs(wins[i] / reach[i] - p) < 5 * sigma

    def test_mean_trials_tracks_chain_expectation(self):
        config = SchemeConfig(scheme=HBAC_ICO, n=2, epsilon=1.0, seed=77)
        batch = sample_batch(AttemptChain(config), 20_000)
        mean = np.mean(batch)
        # independent chain expectation from the dense branch matrices
        params = make_thermal_params(1.0)
        spec = standard_pair(2)
        minus_matrix = branch_transfer(2, params, spec, MINUS).entries
        plus_diagonal = np.diag(branch_transfer(2, params, spec, PLUS).entries)
        state = fixed_point(2, params).populations
        expectation = 0.0
        second_moment = 0.0
        survival = 1.0
        for attempt in range(1, 500):
            p = float(plus_diagonal @ state)
            weight = survival * p
            expectation += attempt * weight
            second_moment += attempt**2 * weight
            survival *= 1.0 - p
            nxt = minus_matrix @ state
            state = nxt / nxt.sum()
            if survival < 1e-15:
                break
        sigma = math.sqrt((second_moment - expectation**2) / len(batch))
        assert abs(mean - expectation) < 4 * sigma

    def test_k_switch_failures_deadlock_without_repump(self):
        # both k-switch branch maps are diagonal on the reduced register, so a
        # failure empties the heralding labels for good; re-pump rounds are the
        # way out
        params = make_thermal_params(1.0)
        spec = k_pair(2, 2)
        profile = fixed_point(2, params)
        stuck = _minus_row(profile, params, spec)
        weights = plus_weight_vector(SchemeConfig(scheme=HBAC_KICO, n=2, epsilon=1.0, k=2))
        assert float(weights @ stuck) == 0.0
        config = SchemeConfig(
            scheme=HBAC_KICO, n=2, epsilon=1.0, k=2, seed=123, max_attempts=50
        )
        with pytest.raises(MaxAttemptsError):
            sample_batch(AttemptChain(config), 40)
        rescued = SchemeConfig(
            scheme=HBAC_KICO, n=2, epsilon=1.0, k=2, seed=123, max_attempts=50, repump_rounds=3
        )
        batch = sample_batch(AttemptChain(rescued), 40)
        # every run heralded within its budget
        assert len(batch) == 40
        assert ((batch >= 1) & (batch <= 50)).all()

    def test_zero_probability_chain_fails_at_once(self):
        # the stuck k-switch chain is certain to exhaust its budget, so the
        # sampler reports that without walking it, and reports the failed
        # trajectory as its trials used, not one outcome per attempt
        for max_attempts in (100_000, 10**9):
            config = SchemeConfig(
                scheme=HBAC_KICO, n=2, epsilon=1.0, k=2, seed=123, max_attempts=max_attempts
            )
            chain = AttemptChain(config)
            with pytest.raises(MaxAttemptsError, match="exactly 0") as excinfo:
                sample_batch(chain, 40)
            assert excinfo.value.trajectory == max_attempts
            assert len(chain.states) <= 2

    @pytest.mark.parametrize(
        "case", _REFERENCE_CASES, ids=lambda case: "-".join(f"{v}" for v in case.values())
    )
    def test_attempts_index_the_states_runs_reached(self, case):
        config = SchemeConfig(n=3, seed=2, **case)
        chain, runs = _sampled(config, 60)
        tree = config.scheme == ICO_TREE_SORT
        reached = set()
        for trials_used, run in runs:
            rounds, outcomes, nodes = zip(*chain.attempts(run))
            assert rounds == tuple(range(1, len(nodes) + 1))
            assert len(nodes) == (config.n if tree else trials_used)
            # a heralded run failed every trial before its last; a tree-sort
            # code holds one outcome per level after its leading 1 bit
            signs = [PLUS if bit == "1" else MINUS for bit in bin(run)[3:]]
            assert list(outcomes) == (signs if tree else [MINUS] * (trials_used - 1) + [PLUS])
            for attempt, node in enumerate(nodes):
                # a tree-sort attempt sees the prefix of the outcomes before it
                position = run >> (config.n - attempt) if tree else attempt + 1
                state, probability = chain.at(position)
                assert chain.states[node] is state
                assert chain.probabilities[node] == probability
            reached.update(nodes)
        # each distinct state is held once, and only if some run reached it
        assert reached == set(range(len(chain.states)))
        assert len(chain.states) == len(chain.probabilities)
        assert len({id(state) for state in chain.states}) == len(chain.states)

    @pytest.mark.parametrize(
        "case", _REFERENCE_CASES, ids=lambda case: "-".join(f"{v}" for v in case.values())
    )
    @pytest.mark.parametrize("count", [0, 60])
    def test_every_run_is_one_int64(self, case, count):
        batch = sample_batch(AttemptChain(SchemeConfig(n=3, seed=2, **case)), count)
        assert isinstance(batch, np.ndarray)
        assert batch.dtype == np.int64
        assert batch.shape == (count,)

    def test_reprepared_input_is_held_once(self):
        config = SchemeConfig(scheme=ICO_ALONE, n=8, epsilon=0.2, seed=1)
        chain = AttemptChain(config)
        batch = sample_batch(chain, 20)
        assert batch.max() > 100
        assert len(chain.states) == 1
        longest = int(batch.max())
        assert [node for _round, _outcome, node in chain.attempts(longest)] == [0] * longest

    def test_tree_sort_always_one_trial(self):
        config = SchemeConfig(scheme=ICO_TREE_SORT, n=3, seed=5)
        chain = AttemptChain(config)
        for code in sample_batch(chain, 50).tolist():
            assert code.bit_length() == 3 + 1  # a leading 1, one bit per storage qubit
        # each outcome prefix is split once, however many runs share it
        assert len(chain.states) <= 1 + 2 + 4

    def test_tree_position_is_a_prefix_code_short_of_a_leaf(self):
        chain = AttemptChain(SchemeConfig(scheme=ICO_TREE_SORT, n=3, seed=5))
        for code in (0, -3, 8, 13):
            with pytest.raises(ValueError, match=r"in \[1, 8\)"):
                chain.at(code)
        assert len(chain.states) == len(chain.probabilities) == 0
        chain.at(7)
        assert len(chain.states) == len(chain.probabilities) == 3

    def test_tree_probability_is_the_plus_branch_norm(self):
        # bit for bit, at every prefix of a random input
        n = 5
        initial = np.random.default_rng(3).random(2 ** (n + 1)).tolist()
        chain = AttemptChain(SchemeConfig(scheme=ICO_TREE_SORT, n=n, initial=initial))
        for level in range(n):
            for code in range(2**level, 2 ** (level + 1)):
                row, probability = chain.at(code)
                plus, _minus = switch_branches(DiagonalState(row), tree_pair(n, level))
                assert probability == plus.norm

    def test_tree_cascade_purifies_every_storage_qubit(self):
        # replay each recorded cascade and check that afterwards all storage
        # qubits are deterministic (the outcome pattern tells which state),
        # leaving only the reset-slot qubit mixed
        n = 3
        config = SchemeConfig(scheme=ICO_TREE_SORT, n=n, epsilon=0.5, seed=21)
        chain = AttemptChain(config)
        for index in range(20):
            code = int(AttemptChain(config).draw(_streams(index, index + 1))[0])
            # the outcome of each level, 1 for plus, after the leading 1 bit
            outcomes = [int(bit) for bit in bin(code)[3:]]
            state = initial_state(config).normalized().populations
            for level, outcome in enumerate(outcomes):
                pre, _probability = chain.at(code >> (n - level))
                assert np.abs(pre - state).max() < 1e-15
                plus, minus = switch_branches(
                    DiagonalState(state), tree_pair(n, level)
                )
                chosen = plus if outcome else minus
                state = chosen.populations / chosen.norm
            indices = np.arange(state.size)
            for qubit, outcome in enumerate(outcomes):
                bit = (indices // 2 ** (n - qubit)) % 2
                ground_marginal = float(state[bit == 0].sum())
                expected = 1.0 if outcome else 0.0
                assert ground_marginal == pytest.approx(expected, abs=1e-12)
            reset_bit = indices % 2
            reset_marginal = float(state[reset_bit == 0].sum())
            assert 0.0 < reset_marginal < 1.0  # the leftover qubit stays mixed

    def test_plain_cooling_single_deterministic_attempt(self):
        config = SchemeConfig(scheme=HBAC, n=2, epsilon=0.5, seed=5)
        assert sample_batch(AttemptChain(config), 1).tolist() == [1]
        row, probability = AttemptChain(config).at(1)
        assert probability == 1.0
        assert np.abs(row - fixed_point(2, make_thermal_params(0.5)).populations).sum() < 1e-9

    def test_impossible_heralding_raises(self):
        # no weight on the heralding labels and a bath-free retry never adds any
        config = SchemeConfig(scheme=ICO_ALONE, n=1, initial=[0.0, 0.5, 0.5, 0.0], max_attempts=5)
        with pytest.raises(MaxAttemptsError) as excinfo:
            sample_batch(AttemptChain(config), 1)
        assert excinfo.value.trajectory == 5

    def test_bath_free_retry_reprepares_input(self):
        config = SchemeConfig(scheme=ICO_ALONE, n=2, epsilon=0.5, seed=19, max_attempts=10_000)
        chain = AttemptChain(config)
        batch = sample_batch(chain, 2000)
        # constant per-attempt probability implies a plain geometric law
        probability = success_probability(config)
        mean = np.mean(batch)
        sigma = math.sqrt((1 - probability) / probability**2 / len(batch))
        assert abs(mean - 1.0 / probability) < 5 * sigma
        for attempt in range(1, int(batch.max()) + 1):
            row, _probability = chain.at(attempt)
            assert np.array_equal(row, initial_state(config).populations)

    def test_repump_rounds_change_the_chain(self):
        base = SchemeConfig(scheme=HBAC_ICO, n=2, epsilon=0.5, seed=1)
        pumped = SchemeConfig(scheme=HBAC_ICO, n=2, epsilon=0.5, seed=1, repump_rounds=2)
        params = make_thermal_params(0.5)
        spec = standard_pair(2)
        start = fixed_point(2, params)
        plain = reduce(switch_branches(reset(start, params), spec)[1]).normalized()
        expected = hbac_round(hbac_round(plain, params), params)
        # find a failing trajectory to expose the second attempt's state
        pumped_chain = AttemptChain(pumped)
        batch = sample_batch(pumped_chain, 100)
        assert (batch >= 2).any(), "no failing trajectory in 100 tries"
        second_row, _probability = pumped_chain.at(2)
        assert np.abs(second_row - expected.populations).max() < 1e-14
        base_chain = AttemptChain(base)
        assert (sample_batch(base_chain, 100) >= 2).any()
        second_row, _probability = base_chain.at(2)
        assert np.abs(second_row - plain.populations).max() < 1e-14


class TestDrawMemory:
    # the draw holds its slice's uniforms and the kernel's fixed lane-block
    # buffers; a kernel that runs a whole 16,384-lane slice at once, with fresh
    # temporaries at every step of its rounds, peaks at 4.85 and 5.31 MiB here
    @pytest.mark.parametrize(
        "case,bound_mib",
        [
            (dict(scheme=HBAC_ICO, n=3, epsilon=0.5), 2.5),
            (dict(scheme=ICO_TREE_SORT, n=8, epsilon=0.5), 3.0),
        ],
        ids=["hbac-ico", "tree-sort"],
    )
    def test_traced_peak_of_a_wide_batch(self, case, bound_mib):
        chain = AttemptChain(SchemeConfig(seed=1, **case))
        tracemalloc.start()
        try:
            sample_batch(chain, 20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2**20


def _chi_square_tail(statistic: float, dof: int) -> float:
    """``P(X >= statistic)`` for ``X ~ chi2(dof)``: one minus the regularized gamma series.

    ``P(s, x) = sum_j exp(-x) x**(s + j) / Gamma(s + j + 1)`` with ``s = dof/2``
    and ``x = statistic/2``; every term is at most one, so none overflows.
    """
    s, x = dof / 2, statistic / 2
    if x == 0.0:
        return 1.0
    lower, j = 0.0, 0
    while True:
        term = math.exp(-x + (s + j) * math.log(x) - math.lgamma(s + j + 1))
        lower += term
        if j > x and term < 1e-18:
            return max(0.0, 1.0 - lower)
        j += 1


def _dense_trial_law(config: SchemeConfig, attempts: int) -> tuple[list[float], float]:
    """``P(T = a)`` for ``a = 1 .. attempts`` and ``P(T > attempts)``, from dense matrices.

    ``P(T = a) = p_a * prod_{j<a} (1 - p_j)``, where ``p_a`` is the plus
    weight of the state before attempt ``a``; each failure applies the
    minus-branch matrix, renormalizes, and runs ``repump_rounds`` cooling
    rounds.  A bath-free retry re-prepares the thermal input, so its ``p_a``
    is one plus-branch trace of the dense switch channel.  Nothing here reads
    ``AttemptChain``.
    """
    n, params, spec = config.n, config.params, scheme_spec(config)
    if config.scheme == ICO_ALONE:
        plus, _minus = oracle.switch_channel(
            oracle.dense_from_diagonal(thermal_full(n, params)), spec
        )
        p = float(np.trace(plus).real)
        return [p * (1.0 - p) ** a for a in range(attempts)], (1.0 - p) ** attempts
    plus = branch_transfer(n, params, spec, PLUS).entries.sum(axis=0)
    rounds = np.linalg.matrix_power(build_transfer(n, params).entries, config.repump_rounds)
    step = rounds @ branch_transfer(n, params, spec, MINUS).entries
    state = fixed_point(n, params).populations
    law, survival = [], 1.0
    for _ in range(attempts):
        p = float(plus @ state)
        law.append(survival * p)
        survival *= 1.0 - p
        state = step @ state
        state /= state.sum()
    return law, survival


def _dense_leaf_law(n: int, params) -> list[float]:
    """Probability of every tree-sort code ``2**n .. 2**(n+1) - 1``, from the dense switch channel.

    Each level splits every unnormalized branch of the level before into its
    two outcomes, so a leaf's trace is the product of its per-level branch
    norms.  Nothing here reads ``AttemptChain``.
    """
    branches = {1: oracle.dense_from_diagonal(thermal_full(n, params))}
    for level in range(n):
        spec = tree_pair(n, level)
        for code in list(branches):
            branches[2 * code + 1], branches[2 * code] = oracle.switch_channel(
                branches.pop(code), spec
            )
    return [float(np.trace(branches[code]).real) for code in range(2**n, 2 ** (n + 1))]


def _pooled_chi_square(observed: list[int], law: list[float], tail: float, runs: int):
    """(statistic, bins) of ``observed`` counts against ``law``, bins pooled to 5 expected runs.

    Neighbouring outcomes are pooled until each bin expects at least 5 runs;
    what is left, with the ``tail`` mass past the last outcome, joins the
    last bin.
    """
    bins, count, mass = [], 0, 0.0
    for seen, probability in zip(observed, law):
        count, mass = count + seen, mass + probability
        if mass * runs >= 5:
            bins.append([count, mass])
            count, mass = 0, 0.0
    bins[-1][0] += count
    bins[-1][1] += mass + tail
    return sum((seen - runs * p) ** 2 / (runs * p) for seen, p in bins), len(bins)


class TestTrialLaw:
    """Sampled trial counts against the exact law, bin by bin (chi-square, p >= 1e-4)."""

    def test_chi_square_tail_matches_closed_forms(self):
        # one minus a sum near one: exact to about 1e-15, far finer than the 1e-4 threshold
        for statistic in (0.5, 3.0, 20.0, 90.0):
            assert _chi_square_tail(statistic, 2) == pytest.approx(math.exp(-statistic / 2), abs=1e-13)
            assert _chi_square_tail(statistic, 1) == pytest.approx(
                math.erfc(math.sqrt(statistic / 2)), abs=1e-13
            )
        assert _chi_square_tail(0.0, 5) == 1.0
        assert _chi_square_tail(1e4, 38) == 0.0

    @pytest.mark.parametrize(
        "case,runs",
        [
            # criterion 7's configuration and seed
            (dict(scheme=HBAC_ICO, n=3, epsilon=0.5, seed=20240809), 100_000),
            (dict(scheme=HBAC_KICO, n=4, k=2, repump_rounds=1, epsilon=0.5, seed=1), 50_000),
            (dict(scheme=HBAC_KICO, n=4, k=2, repump_rounds=2, epsilon=0.5, seed=1), 50_000),
            (dict(scheme=HBAC_ICO, n=6, epsilon=0.2, seed=1), 50_000),
            (dict(scheme=ICO_ALONE, n=3, epsilon=0.5, seed=1), 50_000),
            (dict(scheme=ICO_ALONE, n=3, epsilon=0.5, pair=IDEAL, seed=1), 50_000),
        ],
        ids=["hbac-ico", "hbac-kico-r1", "hbac-kico-r2", "hbac-ico-n6", "ico-alone", "ico-alone-ideal"],
    )
    def test_sampled_trials_follow_the_exact_law(self, case, runs):
        config = SchemeConfig(**case)
        trials = sample_batch(AttemptChain(config), runs)
        observed = np.bincount(trials)[1:]
        law, tail = _dense_trial_law(config, observed.size)
        statistic, bins = _pooled_chi_square(observed.tolist(), law, tail, runs)
        assert bins > 10
        assert _chi_square_tail(statistic, bins - 1) >= 1e-4

    def test_sampled_tree_codes_follow_the_leaf_law(self):
        n, runs = 5, 50_000
        config = SchemeConfig(scheme=ICO_TREE_SORT, n=n, epsilon=0.5, seed=1)
        codes = sample_batch(AttemptChain(config), runs)
        observed = np.bincount(codes - 2**n, minlength=2**n)
        law = _dense_leaf_law(n, config.params)
        assert sum(law) == pytest.approx(1.0, abs=1e-12)
        statistic, bins = _pooled_chi_square(observed.tolist(), law, 0.0, runs)
        assert bins > 10
        assert _chi_square_tail(statistic, bins - 1) >= 1e-4


class TestAbsorbingRetry:
    """``AttemptChain.absorbing`` against the dense conditioned failure map.

    A retry is absorbing when some state has zero plus weight and the failure
    map sends every such state to one with zero plus weight.  With a bath the
    map is ``build_transfer**r @ branch_transfer(MINUS)`` on the reduced
    register.  The bath-free retry re-prepares its input, so every attempt
    sees the input's plus weight from the dense channel.
    """

    @staticmethod
    def _absorbing(plus: np.ndarray, failure: np.ndarray) -> bool:
        zero = plus == 0.0
        return bool(zero.any() and not (plus @ failure)[zero].any())

    @pytest.mark.parametrize("rounds", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_derived_flag_matches_the_dense_failure_map(self, n, rounds):
        params = make_thermal_params(0.5)
        repump = np.linalg.matrix_power(build_transfer(n, params).entries, rounds)
        bath = [(dict(scheme=HBAC_ICO), standard_pair(n))]
        bath += [(dict(scheme=HBAC_KICO, k=k), k_pair(n, k)) for k in range(1, n + 1)]
        for case, spec in bath:
            config = SchemeConfig(n=n, epsilon=0.5, repump_rounds=rounds, **case)
            plus = branch_transfer(n, params, spec, PLUS).entries.sum(axis=0)
            failure = repump @ branch_transfer(n, params, spec, MINUS).entries
            assert AttemptChain(config).absorbing == self._absorbing(plus, failure), case

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("pair", [STANDARD, IDEAL])
    def test_reprepared_retry_repeats_the_dense_plus_weight(self, pair, n):
        params = make_thermal_params(0.5)
        spec = (standard_pair if pair == STANDARD else ideal_pair)(n)
        basis = np.eye(spec.dim)[:, :, None] * np.eye(spec.dim)  # every |x><x|
        plus, _minus = oracle.switch_channel(basis, spec)
        weights = np.trace(plus, axis1=1, axis2=2).real
        thermal = thermal_full(n, params).populations
        dark = np.isclose(weights, 0.0, atol=1e-12).astype(np.float64)  # zero plus weight
        for start, expected in ((thermal, weights @ thermal), (dark, 0.0)):
            config = SchemeConfig(
                scheme=ICO_ALONE, n=n, epsilon=0.5, pair=pair, initial=start.tolist(), seed=1
            )
            chain = AttemptChain(config)
            assert chain.absorbing
            for attempt in (1, 2, 3):
                row, probability = chain.at(attempt)
                np.testing.assert_array_equal(row, start / start.sum())
                assert probability == pytest.approx(expected, rel=1e-12, abs=1e-15)
        with pytest.raises(MaxAttemptsError, match="exactly 0 from attempt 1 on"):
            sample_batch(chain, 5)


def _released(config: SchemeConfig, count: int):
    """A drawn chain, its runs and their attempts, released with its rows swapped for text."""
    chain = AttemptChain(config)
    runs = sample_batch(chain, count).tolist()
    attempts = {run: list(chain.attempts(run)) for run in runs}
    probabilities = list(chain.probabilities)
    rows = chain.release()
    assert chain.states is None
    assert len(rows) == len(probabilities)
    rows[:] = [f"text {node}" for node in range(len(rows))]  # as ``sample`` renders them
    assert chain.probabilities == probabilities
    return chain, runs, attempts


class TestReleasedChain:
    """After ``release`` the chain holds no rows: it hands out none and grows no further."""

    @pytest.mark.parametrize(
        "case",
        [
            dict(scheme=HBAC_ICO, epsilon=0.5),
            dict(scheme=HBAC_KICO, epsilon=0.5, k=1, repump_rounds=1),
            dict(scheme=ICO_ALONE, epsilon=0.5),
        ],
        ids=lambda case: case["scheme"],
    )
    def test_heralded_chain(self, case):
        chain, runs, attempts = _released(SchemeConfig(n=3, seed=1, **case), 20)
        held = len(chain.probabilities)
        for position in (1, max(runs), max(runs) + 1):
            with pytest.raises(RuntimeError, match="released its rows"):
                chain.at(position)
        # runs still decode to the nodes they reached, and nothing was added
        assert {run: list(chain.attempts(run)) for run in runs} == attempts
        if case["scheme"] != ICO_ALONE:  # the bath-free retry never adds a row
            with pytest.raises(RuntimeError, match="released its rows"):
                list(chain.attempts(held + 1))
        with pytest.raises(RuntimeError, match="released its rows"):
            sample_batch(chain, 20)
        assert chain.states is None
        assert len(chain.probabilities) == held

    def test_tree_sort(self):
        n = 4
        chain, runs, attempts = _released(SchemeConfig(scheme=ICO_TREE_SORT, n=n, seed=1), 5)
        held = len(chain.probabilities)
        reached = {run >> shift for run in runs for shift in range(1, n + 1)}
        unreached = min(set(range(2 ** (n - 1), 2**n)) - reached)  # five runs miss a last-level prefix
        for code in (1, max(reached), unreached):
            with pytest.raises(RuntimeError, match="released its rows"):
                chain.at(code)
        assert {run: list(chain.attempts(run)) for run in runs} == attempts
        with pytest.raises(RuntimeError, match="released its rows"):
            list(chain.attempts(2 * unreached))
        assert chain.states is None
        assert len(chain.probabilities) == held


class TestRunScheme:
    def test_resource_rows(self):
        n, eps, k = 4, 0.3, 2
        rows = {
            HBAC: (True, 0, 0, 1.0),
            HBAC_ICO: (True, 1, n, None),
            ICO_ALONE: (False, 1, n, None),
            ICO_TREE_SORT: (False, n, n, 1.0),
            HBAC_KICO: (True, 1, n + 1 - k, None),
        }
        for scheme, (bath, inp, out, probability) in rows.items():
            config = SchemeConfig(
                scheme=scheme, n=n, epsilon=eps, k=k if scheme == HBAC_KICO else None
            )
            report = run_scheme(config)
            assert report.bath_used is bath
            assert report.input_pure_qubits == inp
            assert report.output_pure_qubits == out
            if probability is not None:
                assert report.success_probability == probability
            assert report.expected_trials == pytest.approx(1.0 / report.success_probability)

    def test_nondemolition_flag(self):
        config = SchemeConfig(scheme=ICO_TREE_SORT, n=5, nondemolition=True)
        assert run_scheme(config).input_pure_qubits == 1

    def test_final_states(self):
        final = final_state(SchemeConfig(scheme=HBAC_ICO, n=3, epsilon=0.5))
        assert final.n == 2  # three pure output qubits
        assert final.populations[0] == 1.0
        cooled = final_state(SchemeConfig(scheme=HBAC, n=3, epsilon=0.5))
        assert cooled.n == 3
        assert cooled.populations[0] < 1.0  # never exactly pure

    def test_desired_success_trials(self):
        config = SchemeConfig(scheme=HBAC_ICO, n=8, epsilon=0.5, desired_success=0.99)
        report = run_scheme(config)
        probability = report.success_probability
        m = report.trials_for_desired
        assert 1.0 - (1.0 - probability) ** m >= 0.99
        assert 1.0 - (1.0 - probability) ** (m - 1) < 0.99

    def test_final_state_purity_after_pi_pulse(self):
        # the heralded branch sits on the two extremal labels only, so reading
        # the reset slot (and a pi-pulse after "e") leaves the reported final
        # state: the surviving qubits pure ground
        config = SchemeConfig(scheme=HBAC_ICO, n=4, epsilon=0.5)
        plus, _ = run_round(fixed_point(4, make_thermal_params(0.5)), config)
        populations = plus.normalized().populations
        assert float(populations[1:-1].sum()) == 0.0
        assert populations[0] > 0.0 and populations[-1] > 0.0
        final = final_state(config)
        assert np.array_equal(final.populations, ground_state(3).populations)
        assert abs(final.populations[0] - 1.0) < 1e-12
        assert float(final.populations[1:].sum()) < 1e-12

    @pytest.mark.parametrize("outcome", ["g", "e"])
    @pytest.mark.parametrize("n", [1, 4])
    def test_either_slot_reading_leaves_the_final_state(self, n, outcome):
        # reading the top qubit of the heralded branch finds every other qubit
        # in the same level, so "g", or "e" then a pi-pulse on each survivor
        # (label x -> 2**n - 1 - x), leaves exactly the final state run reports
        config = SchemeConfig(scheme=HBAC_ICO, n=n, epsilon=0.5)
        plus, _ = run_round(fixed_point(n, make_thermal_params(0.5)), config)
        ground_half, excited_half = plus.normalized().populations.reshape(2, -1)
        survivors = ground_half if outcome == "g" else excited_half[::-1]
        assert np.array_equal(survivors / survivors.sum(), final_state(config).populations)

    def test_k_switch_heralded_qubits_are_ground(self):
        # conditioned on plus, all support sits in the first 2**k labels, so
        # the top n+1-k qubits are exactly ground with no correction needed
        for n in range(2, 7):
            for k in range(1, n + 1):
                config = SchemeConfig(scheme=HBAC_KICO, n=n, epsilon=0.4, k=k)
                plus, _ = run_round(fixed_point(n, make_thermal_params(0.4)), config)
                populations = plus.normalized().populations
                assert float(populations[2**k :].sum()) == 0.0
                final = final_state(config)
                assert final.populations.size == 2 ** (n + 1 - k)
                assert final.populations[0] == 1.0


# bath gaps from the smallest normal scale up to the largest with a finite 2*cosh
_ICO_ALONE_GAPS = (
    1e-300, 1e-100, 1e-20, 1e-8, 1e-3, 0.01, 0.1, 0.5, 1.0, 3.0, 10.0, 50.0, 300.0, 709.7
)


class TestIcoAloneDefaultSuccess:
    @pytest.mark.parametrize("n", range(1, 23))
    def test_equals_the_thermal_vector_entries(self, n):
        # bit for bit what the dense thermal product of thermal_full gives: its
        # first entry plus the last (standard pair) or the second (ideal pair)
        for eps in _ICO_ALONE_GAPS:
            vec = _thermal_product(n + 1, make_thermal_params(eps))
            for pair, other in ((STANDARD, vec[-1]), (IDEAL, vec[1])):
                config = SchemeConfig(scheme=ICO_ALONE, n=n, epsilon=eps, pair=pair)
                assert success_probability(config) == float(vec[0] + other)


class TestIcoAloneBathFreeSuccess:
    @pytest.mark.parametrize("n", range(1, 21))
    @pytest.mark.parametrize("pair", [STANDARD, IDEAL])
    def test_equals_the_uniform_vector_entries(self, n, pair):
        # bit for bit what reading the two entries of uniform_full(n) gave
        lam = uniform_full(n)
        vec = lam.populations
        weight = vec[0] + (vec[-1] if pair == STANDARD else vec[1])
        config = SchemeConfig(scheme=ICO_ALONE, n=n, pair=pair)
        assert success_probability(config) == float(weight / lam.norm)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("pair", [STANDARD, IDEAL])
    def test_explicit_start_equals_its_two_heralding_entries(self, n, pair):
        # the plus-weight dot, bit for bit the sum of the two entries it weighs
        # 1: its other products are exact zeros, so one rounding remains
        rng = np.random.default_rng(n)
        size = 2 ** (n + 1)
        for _ in range(20):
            start = rng.random(size) * 10.0 ** rng.integers(-300, 300, size)
            start[rng.permutation(size)[: size // 4]] = 0.0
            config = SchemeConfig(scheme=ICO_ALONE, n=n, pair=pair, initial=start.tolist())
            lam = config.initial
            vec = lam.populations
            weight = vec[0] + (vec[-1] if pair == STANDARD else vec[1])
            assert success_probability(config) == float(weight / lam.norm)


class TestPlusWeights:
    def test_weights_reproduce_probability(self):
        for scheme, kwargs in (
            (HBAC_ICO, {"epsilon": 0.5}),
            (HBAC_KICO, {"epsilon": 0.5, "k": 2}),
            (ICO_ALONE, {"epsilon": 0.5}),
        ):
            config = SchemeConfig(scheme=scheme, n=3, **kwargs)
            weights = plus_weight_vector(config)
            if scheme == ICO_ALONE:
                state = thermal_full(3, make_thermal_params(0.5))
            else:
                state = fixed_point(3, make_thermal_params(0.5))
            assert float(weights @ state.populations) == pytest.approx(
                success_probability(config), abs=1e-12
            )
