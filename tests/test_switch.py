"""Unit tests for block-unitary families and branch maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ico_hbac.switch as switch
from ico_hbac.hbac_core import build_transfer
from ico_hbac.oracle import spec_families, switch_channel
from ico_hbac.register import DiagonalState, ReducedState, make_thermal_params, reduce, reset
from ico_hbac.switch import (
    MINUS,
    PLUS,
    BlockUnitarySpec,
    branch_transfer,
    ideal_pair,
    k_pair,
    standard_pair,
    switch_branches,
    tree_pair,
)

ALL_FAMILIES = [
    ("standard", lambda n: standard_pair(n)),
    ("ideal", lambda n: ideal_pair(n)),
    ("k=1", lambda n: k_pair(n, 1)),
    ("tree", lambda n: tree_pair(n, 0)),
]

T, F = True, False

# Reference layouts: each family spelled out block by block, a 1x1 scalar
# ("one") or a 2x2 Pauli pair ("pair"), independent of the mask builders.
ONE, PAIR = "one", "pair"


def reference_blocks(family: str, n: int, arg: int = 0) -> tuple[str, ...]:
    if family == "standard":
        return (ONE,) + (PAIR,) * (2**n - 1) + (ONE,)
    if family == "ideal":
        return (ONE, ONE) + (PAIR,) * (2**n - 1)
    if family == "k":
        return (ONE,) * 2**arg + (PAIR,) * (2**n - 2 ** (arg - 1))
    ones, pairs = 2 ** (n - arg), 2 ** (n - arg - 1)
    return ((ONE,) * ones + (PAIR,) * pairs) * 2**arg


def reference_layout(blocks: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(scalar-entry mask, first index of every pair) of a block sequence."""
    kinds = np.array([blk == ONE for blk in blocks])
    sizes = np.where(kinds, 1, 2)
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    return np.repeat(kinds, sizes), offsets[~kinds]


def family_specs(n: int):
    yield reference_blocks("standard", n), standard_pair(n)
    yield reference_blocks("ideal", n), ideal_pair(n)
    for k in range(1, n + 1):
        yield reference_blocks("k", n, k), k_pair(n, k)
    for level in range(n):
        yield reference_blocks("tree", n, level), tree_pair(n, level)


@st.composite
def hand_built_masks(draw):
    """A random scalar/pair block sequence filling 2**(n+1) entries, as a mask."""
    n = draw(st.integers(min_value=1, max_value=3))
    dim = 2 ** (n + 1)
    mask = []
    while len(mask) < dim:
        if len(mask) == dim - 1 or draw(st.booleans()):
            mask.append(True)
        else:
            mask.extend([False, False])
    return np.array(mask)


def assert_branches_restore_the_input(spec, vec):
    """Branch norms partition the input; plus plus un-swapped minus restores it."""
    state = DiagonalState(vec)
    plus, minus = switch_branches(state, spec)
    assert plus.norm + minus.norm == pytest.approx(state.norm, abs=1e-12)
    unswapped = minus.populations.copy()
    starts = spec.pair_starts
    unswapped[starts], unswapped[starts + 1] = (
        minus.populations[starts + 1],
        minus.populations[starts],
    )
    assert np.abs(plus.populations + unswapped - vec).max() < 1e-15
    return plus, minus


class TestSpecFamilies:
    def test_standard_structure(self):
        assert standard_pair(1).one_mask.tolist() == [T, F, F, T]
        assert standard_pair(1).dim == 4
        assert standard_pair(2).one_mask.tolist() == [T, F, F, F, F, F, F, T]
        assert standard_pair(2).pair_starts.tolist() == [1, 3, 5]
        assert standard_pair(2).dim == 8

    def test_ideal_structure(self):
        assert ideal_pair(1).one_mask.tolist() == [T, T, F, F]
        assert ideal_pair(2).one_mask.tolist() == [T, T, F, F, F, F, F, F]
        assert ideal_pair(2).pair_starts.tolist() == [2, 4, 6]

    def test_k_structure(self):
        spec = k_pair(3, 2)
        assert spec.one_mask.tolist() == [T] * 4 + [F] * 12
        assert spec.pair_starts.tolist() == [4, 6, 8, 10, 12, 14]
        assert spec.dim == 16

    def test_k1_equals_ideal(self):
        for n in range(1, 5):
            assert np.array_equal(k_pair(n, 1).one_mask, ideal_pair(n).one_mask)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_dimensions_always_match_register(self, n):
        for k in range(1, n + 1):
            assert k_pair(n, k).dim == 2 ** (n + 1)
        for level in range(n):
            assert tree_pair(n, level).dim == 2 ** (n + 1)

    def test_tree_structure(self):
        assert tree_pair(2, 0).one_mask.tolist() == [T, T, T, T, F, F, F, F]
        assert tree_pair(2, 0).pair_starts.tolist() == [4, 6]
        assert tree_pair(2, 1).one_mask.tolist() == [T, T, F, F, T, T, F, F]
        assert tree_pair(2, 1).pair_starts.tolist() == [2, 6]

    def test_tree_pair_count(self):
        for n in range(1, 6):
            assert tree_pair(n, 0).pair_starts.size == 2 ** (n - 1)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_masks_match_reference_blocks(self, n):
        for blocks, spec in family_specs(n):
            mask, starts = reference_layout(blocks)
            assert spec.one_mask.dtype == mask.dtype == np.bool_
            assert np.array_equal(spec.one_mask, mask)
            assert spec.pair_starts.dtype == starts.dtype == np.intp
            assert np.array_equal(spec.pair_starts, starts)
            assert not spec.one_mask.flags.writeable
            assert not spec.pair_starts.flags.writeable
            partner = []  # a scalar entry trades with itself, a pair's entries with each other
            for block in blocks:
                at = len(partner)
                partner += [at] if block == ONE else [at + 1, at]
            assert spec.partner.tolist() == partner
            assert not spec.partner.flags.writeable
            assert spec.dim == mask.size == 2 ** (n + 1)
            assert spec.n == n

    def test_range_errors(self):
        with pytest.raises(ValueError):
            k_pair(3, 0)
        with pytest.raises(ValueError):
            k_pair(3, 4)
        with pytest.raises(ValueError):
            tree_pair(3, 3)
        with pytest.raises(ValueError):
            tree_pair(3, -1)

    def test_malformed_manual_spec(self, monkeypatch):
        malformed = [
            np.array([T, F, T, F]),  # the pair entries 1 and 3 are not adjacent
            np.array([T, F, F, F]),  # three pair entries
            np.array([1, 0, 0, 1]),  # not bool
            np.array([[T, F], [F, T]]),  # not one-dimensional
            np.zeros(0, dtype=bool),
            np.array([F, F]),  # size 2
            np.array([T, T, T, F, F, T]),  # size 6
        ]
        for mask in malformed:
            with pytest.raises(ValueError):
                BlockUnitarySpec(mask)
        # a mask at the real cap takes 2**25 entries, so a lowered cap stands in
        monkeypatch.setattr(switch, "MAX_REGISTER_EXPONENT", 3)
        assert BlockUnitarySpec(np.ones(16, dtype=bool)).n == 3
        with pytest.raises(ValueError):
            BlockUnitarySpec(np.ones(32, dtype=bool))

    def test_manual_spec_keeps_a_read_only_copy(self):
        mask = np.array([T, F, F, T])
        spec = BlockUnitarySpec(mask)
        mask[:] = True
        assert spec.one_mask.tolist() == [T, F, F, T]
        assert not spec.one_mask.flags.writeable
        assert spec.pair_starts.tolist() == [1]


class TestSwitchBranches:
    def test_standard_pair_example(self):
        state = DiagonalState([0.4, 0.3, 0.2, 0.1])
        plus, minus = switch_branches(state, standard_pair(1))
        assert np.allclose(plus.populations, [0.4, 0.0, 0.0, 0.1])
        assert plus.norm == pytest.approx(0.5, abs=1e-15)
        assert np.allclose(minus.populations, [0.0, 0.2, 0.3, 0.0])
        assert minus.norm == pytest.approx(0.5, abs=1e-15)

    def test_ground_state_in_leading_scalar_block(self):
        vec = np.zeros(8)
        vec[0] = 1.0
        state = DiagonalState(vec)
        for spec in (standard_pair(2), ideal_pair(2), k_pair(2, 2), tree_pair(2, 0)):
            plus, minus = switch_branches(state, spec)
            assert plus.norm == pytest.approx(1.0)
            assert minus.norm == 0.0
            assert np.array_equal(plus.populations, vec)

    def test_dimension_mismatch(self):
        state = DiagonalState([0.5, 0.5, 0.0, 0.0])
        with pytest.raises(ValueError):
            switch_branches(state, standard_pair(2))

    @pytest.mark.parametrize("height", (1, 3, 64))
    @pytest.mark.parametrize("n", range(1, 5))
    def test_stacked_kernels_equal_per_row_branches(self, n, height):
        # the oracle runs the branch kernels on whole stacks of rows: every
        # row, and every row sum, is the per-row branch and its norm, bit for bit
        rng = np.random.default_rng(70 + n)
        for _label, spec in spec_families(n):
            rows = rng.random((height, spec.dim))
            rows /= rows.sum(axis=1, keepdims=True)
            stacked = (switch._plus_branch(rows, spec), switch._minus_branch(rows, spec))
            per_row = zip(*(switch_branches(DiagonalState(row), spec) for row in rows))
            for populations, branches in zip(stacked, per_row):
                expected = np.stack([branch.populations for branch in branches])
                assert populations.tobytes() == expected.tobytes()
                norms = np.array([branch.norm for branch in branches])
                assert populations.sum(axis=1).tobytes() == norms.tobytes()

    def test_minus_kernel_returns_a_fresh_writable_row(self):
        # the sampling chain divides a minus row in place, and the parent row
        # it came from is read-only
        spec = standard_pair(3)
        row = np.linspace(1.0, 2.0, spec.dim)
        row.setflags(write=False)
        out = switch._minus_branch(row, spec)
        assert out.flags.writeable
        assert not np.shares_memory(out, row)
        assert not np.shares_memory(out, spec.partner)
        out /= 2.0
        assert np.array_equal(row, np.linspace(1.0, 2.0, spec.dim))
        assert out[0] == out[-1] == 0.0
        assert out[1] == row[2] / 2.0

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(min_value=1, max_value=4),
        st.sampled_from(range(len(ALL_FAMILIES))),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_branches_partition_the_norm(self, n, family_index, seed):
        _label, family = ALL_FAMILIES[family_index]
        spec = family(n)
        rng = np.random.default_rng(seed)
        vec = rng.random(2 ** (n + 1))
        vec /= vec.sum()
        assert_branches_restore_the_input(spec, vec)

    @settings(deadline=None, max_examples=60)
    @given(hand_built_masks(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_hand_built_spec_matches_the_dense_switch(self, mask, seed):
        spec = BlockUnitarySpec(mask)
        rng = np.random.default_rng(seed)
        vec = rng.random(spec.dim)
        vec /= vec.sum()
        plus, minus = assert_branches_restore_the_input(spec, vec)
        rho = np.diag(vec).astype(complex)
        for dense, branch in zip(switch_channel(rho, spec), (plus, minus)):
            assert np.abs(np.diag(dense).real - branch.populations).max() < 1e-14


class TestBranchTransfer:
    def test_standard_plus_matrix(self):
        params = make_thermal_params(0.5)
        a, b = params.ground_population, params.excited_population
        matrix = branch_transfer(2, params, standard_pair(2), PLUS).entries
        expected = np.diag([a, 0.0, 0.0, b])
        assert np.abs(matrix - expected).max() < 1e-15
        assert np.count_nonzero(matrix) == 2

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("eps", (0.1, 0.5, 1.0))
    def test_plus_and_minus_sum_to_full(self, n, eps):
        params = make_thermal_params(eps)
        spec = standard_pair(n)
        total = (
            branch_transfer(n, params, spec, PLUS).entries
            + branch_transfer(n, params, spec, MINUS).entries
        )
        assert np.abs(total - build_transfer(n, params).entries).max() < 1e-14

    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("family_index", range(len(ALL_FAMILIES)))
    def test_matrix_matches_composed_branch(self, n, family_index):
        _label, family = ALL_FAMILIES[family_index]
        spec = family(n)
        params = make_thermal_params(0.7)
        rng = np.random.default_rng(11 * n + family_index)
        vec = rng.random(2**n)
        vec /= vec.sum()
        state = ReducedState(vec)
        plus, minus = switch_branches(reset(state, params), spec)
        for sign, outcome in ((PLUS, plus), (MINUS, minus)):
            matrix = branch_transfer(n, params, spec, sign)
            composed = reduce(outcome)
            assert np.abs(matrix.entries @ vec - composed.populations).max() < 1e-14

    def test_post_reset_plus_support_is_extremal(self):
        params = make_thermal_params(0.5)
        rng = np.random.default_rng(3)
        for n in range(1, 6):
            vec = rng.random(2**n)
            vec /= vec.sum()
            plus, _ = switch_branches(reset(ReducedState(vec), params), standard_pair(n))
            support = np.nonzero(plus.populations)[0]
            assert set(support) <= {0, 2 ** (n + 1) - 1}

    def test_spec_size_mismatch(self):
        params = make_thermal_params(0.5)
        with pytest.raises(ValueError):
            branch_transfer(2, params, standard_pair(3), PLUS)


class TestPopulationMatrices:
    # the branch population action, read from switch_branches on random vectors

    def test_standard_plus_has_two_unit_entries(self):
        rng = np.random.default_rng(5)
        for n in range(1, 6):
            vec = rng.random(2 ** (n + 1)) + 0.1
            plus, _minus = switch_branches(DiagonalState(vec), standard_pair(n))
            kept = np.nonzero(plus.populations)[0]
            assert list(kept) == [0, 2 ** (n + 1) - 1]
            assert np.array_equal(plus.populations[kept], vec[kept])

    def test_standard_plus_extremal_eigenvectors(self):
        dim = 2 ** (3 + 1)
        for index in (0, dim - 1):
            basis = np.zeros(dim)
            basis[index] = 1.0
            plus, _minus = switch_branches(DiagonalState(basis), standard_pair(3))
            assert np.array_equal(plus.populations, basis)

    def test_minus_matches_interior_swap(self):
        # the minus action equals the sorting permutation with both ends zeroed
        from ico_hbac.hbac_core import two_sort

        rng = np.random.default_rng(8)
        for n in range(1, 5):
            vec = rng.random(2 ** (n + 1))
            state = DiagonalState(vec)
            _plus, minus = switch_branches(state, standard_pair(n))
            sorted_vec = two_sort(state).populations.copy()
            sorted_vec[0] = 0.0
            sorted_vec[-1] = 0.0
            assert np.abs(minus.populations - sorted_vec).max() < 1e-15

    def test_tree_level0_projects_first_half(self):
        rng = np.random.default_rng(13)
        for n in range(1, 6):
            vec = rng.random(2 ** (n + 1))
            plus, _minus = switch_branches(DiagonalState(vec), tree_pair(n, 0))
            half = 2**n
            expected = np.concatenate([vec[:half], np.zeros(half)])
            assert np.array_equal(plus.populations, expected)
