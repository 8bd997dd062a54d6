"""Correlators against dense kron-built oracles."""

import itertools
import math

import numpy as np
import pytest

from sfwitness import (InputError, SiteLayout, axis_correlations,
                       collective_spin_sq, make_basis_state, make_dicke,
                       make_product_density, mix_with_white_noise,
                       structure_factor, two_point, verify_collective_identity)
from sfwitness.correlators import correlation_matrices
from conftest import dense_expectation, pauli_on, random_mixed, random_pure


class TestTwoPoint:
    def test_zz_on_basis_state(self):
        assert two_point(make_basis_state(2, "00"), 1, 2, "z", "z") == pytest.approx(1.0)

    def test_xx_on_w_state(self):
        assert two_point(make_dicke(3, 1), 1, 2, "x", "x") == pytest.approx(2 / 3)

    def test_traceless_on_maximally_mixed(self):
        mixed = mix_with_white_noise(make_basis_state(2, "00"), 1.0)
        assert two_point(mixed, 1, 2, "x", "x") == pytest.approx(0.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_pure_state_matches_dense_oracle(self, rng, n):
        state = random_pure(rng, n)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for a, b in itertools.product("xyz", repeat=2):
                    dense = dense_expectation(state, pauli_on(n, {i: a, j: b}))
                    assert abs(dense.imag) < 1e-10
                    got = two_point(state, i, j, a, b)
                    assert got == pytest.approx(dense.real, abs=1e-12)

    def test_density_matches_dense_oracle(self, rng):
        rho = mix_with_white_noise(random_pure(rng, 3), 0.35)
        for a, b in itertools.product("xyz", repeat=2):
            dense = dense_expectation(rho, pauli_on(3, {1: a, 3: b}))
            got = two_point(rho, 1, 3, a, b)
            assert got == pytest.approx(dense.real, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_mixed_state_matches_dense_oracle(self, rng, n):
        rho = random_mixed(rng, n)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for a, b in itertools.product("xyz", repeat=2):
                    dense = dense_expectation(rho, pauli_on(n, {i: a, j: b}))
                    assert two_point(rho, i, j, a, b) == pytest.approx(dense.real, abs=1e-12)

    def test_bounded_by_one(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 6))
            state = random_pure(rng, n)
            i, j = sorted(rng.choice(np.arange(1, n + 1), size=2, replace=False))
            for a in "xyz":
                assert abs(two_point(state, int(i), int(j), a, a)) <= 1.0 + 1e-12

    def test_dicke_permutation_symmetry(self):
        state = make_dicke(5, 2)
        for axis in "xyz":
            values = {two_point(state, i, j, axis, axis)
                      for i in range(1, 6) for j in range(i + 1, 6)}
            assert max(values) - min(values) < 1e-12

    @pytest.mark.parametrize("i, j", [(2, 1), (1, 1), (0, 2), (1, 4)])
    def test_bad_site_pairs(self, i, j):
        with pytest.raises(InputError):
            two_point(make_dicke(3, 1), i, j, "x", "x")

    def test_bad_axis(self):
        with pytest.raises(InputError):
            two_point(make_dicke(3, 1), 1, 2, "q", "x")


class TestAxisCorrelations:
    @staticmethod
    def _pair_route(state, axis):
        n = state.n_qubits
        corr = np.eye(n)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                corr[i - 1, j - 1] = corr[j - 1, i - 1] = two_point(state, i, j, axis, axis)
        return corr

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_pure_states_match_two_point(self, rng, n):
        for _ in range(3):
            state = random_pure(rng, n)
            for axis in "xyz":
                got = axis_correlations(state, axis)
                assert np.max(np.abs(got - self._pair_route(state, axis))) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_density_matrices_match_two_point(self, rng, n):
        for p in (0.0, 0.3, 0.8):
            rho = mix_with_white_noise(random_pure(rng, n), p)
            for axis in "xyz":
                got = axis_correlations(rho, axis)
                assert np.max(np.abs(got - self._pair_route(rho, axis))) <= 1e-12

    def test_product_density_matches_two_point(self):
        rho = make_product_density([(0.3, 0.2, 0.5), (0.0, 0.6, -0.8), (-1.0, 0.0, 0.0)])
        for axis in "xyz":
            got = axis_correlations(rho, axis)
            assert np.max(np.abs(got - self._pair_route(rho, axis))) <= 1e-12

    def test_symmetric_with_unit_diagonal(self, rng):
        corr = axis_correlations(random_pure(rng, 5), "y")
        assert np.array_equal(corr, corr.T)
        assert np.array_equal(np.diag(corr), np.ones(5))

    def test_bad_axis(self):
        with pytest.raises(InputError):
            axis_correlations(make_dicke(3, 1), "q")

    def test_unsupported_state_type(self):
        with pytest.raises(InputError):
            axis_correlations(np.ones(4) / 2.0, "x")


class TestCollectiveSpin:
    @pytest.mark.parametrize("n, l", [(2, 1), (4, 2), (5, 1), (6, 3)])
    def test_dicke_z_eigenvalue(self, n, l):
        assert collective_spin_sq(make_dicke(n, l), "z") == pytest.approx(
            (n - 2 * l) ** 2 / 4, abs=1e-12)

    def test_basis_state(self):
        assert collective_spin_sq(make_basis_state(2, "00"), "z") == pytest.approx(1.0)

    def test_w_state_x(self):
        assert collective_spin_sq(make_dicke(3, 1), "x") == pytest.approx(7 / 4)

    def test_matches_dense_oracle(self, rng):
        n = 4
        state = random_pure(rng, n)
        for axis in "xyz":
            j_op = sum(pauli_on(n, {q: axis}) for q in range(1, n + 1)) / 2.0
            dense = dense_expectation(state, j_op @ j_op).real
            assert collective_spin_sq(state, axis) == pytest.approx(dense, abs=1e-12)

    def test_density_path_matches_pure_path(self, rng):
        state = random_pure(rng, 3)
        rho = mix_with_white_noise(state, 0.0)
        for axis in "xyz":
            assert collective_spin_sq(rho, axis) == pytest.approx(
                collective_spin_sq(state, axis), abs=1e-11)


class TestStructureFactor:
    @pytest.mark.parametrize("n, l", [(3, 1), (4, 2), (6, 2), (8, 4)])
    def test_dicke_values_at_k0(self, n, l):
        state = make_dicke(n, l)
        assert structure_factor(state, 0.0, "x", "x").real == pytest.approx(
            l * (n - l), abs=1e-12)
        assert structure_factor(state, 0.0, "z", "z").real == pytest.approx(
            ((n - 2 * l) ** 2 - n) / 2, abs=1e-12)

    def test_alternating_sum_at_pi(self):
        value = structure_factor(make_basis_state(4, "0000"), math.pi, "z", "z")
        assert value.real == pytest.approx(-2.0, abs=1e-12)
        assert value.imag == pytest.approx(0.0, abs=1e-12)

    def test_complex_value_against_oracle(self, rng):
        n, k = 3, 1.3
        state = random_pure(rng, n)
        expected = 0j
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                corr = dense_expectation(state, pauli_on(n, {i: "x", j: "y"})).real
                expected += np.exp(1j * k * (j - i)) * corr
        got = structure_factor(state, k, "x", "y")
        assert got == pytest.approx(expected, abs=1e-12)

    def test_custom_layout_changes_phases(self, rng):
        state = random_pure(rng, 2)
        layout = SiteLayout((0.0, 2.5))
        corr = two_point(state, 1, 2, "x", "x")
        got = structure_factor(state, 1.0, "x", "x", layout)
        assert got == pytest.approx(np.exp(2.5j) * corr, abs=1e-12)

    def test_layout_mismatch(self):
        with pytest.raises(InputError):
            structure_factor(make_dicke(3, 1), 0.0, "x", "x", SiteLayout((0.0, 1.0)))

    def test_layout_rejects_non_increasing_positions(self):
        with pytest.raises(InputError):
            SiteLayout((0.0, 2.0, 2.0))
        with pytest.raises(InputError):
            SiteLayout((1.0, 0.5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_layout_rejects_non_finite_positions(self, bad):
        with pytest.raises(InputError):
            SiteLayout((0.0, bad, 2.0, 3.0))

    def test_equal_axes_match_pair_route(self, rng):
        layout = SiteLayout((0.0, 0.4, 1.9, 2.2))
        state = random_pure(rng, 4)
        for axis in "xyz":
            expected = sum(np.exp(1j * 0.8 * layout.separation(i, j))
                           * two_point(state, i, j, axis, axis)
                           for i in range(1, 5) for j in range(i + 1, 5))
            got = structure_factor(state, 0.8, axis, axis, layout)
            assert got == pytest.approx(expected, abs=1e-12)


class TestCollectiveIdentity:
    def test_dicke_four_two_x(self):
        lhs, rhs = verify_collective_identity(make_dicke(4, 2), "x")
        assert lhs == pytest.approx(4.0, abs=1e-12)
        assert rhs == pytest.approx(4.0, abs=1e-12)

    def test_basis_z(self):
        lhs, rhs = verify_collective_identity(make_basis_state(2, "00"), "z")
        assert (lhs, rhs) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_random_states(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            state = random_pure(rng, n)
            axis = "xyz"[rng.integers(3)]
            lhs, rhs = verify_collective_identity(state, axis)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_on_density_matrix(self, rng):
        rho = make_product_density([(0.3, 0.2, 0.5), (0.0, 0.0, 1.0)])
        lhs, rhs = verify_collective_identity(rho, "y")
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestCorrelationMatrices:
    @pytest.mark.parametrize("axes", ["xyz", "zyx", "y", "xz", ""])
    def test_each_matrix_equals_its_own_axis_call(self, rng, axes):
        for state in (random_pure(rng, 4),
                      mix_with_white_noise(random_pure(rng, 4), 0.3),
                      make_product_density([(0.3, 0.2, 0.5), (0.0, 0.6, -0.8), (-1.0, 0.0, 0.0)])):
            got = correlation_matrices(state, axes)
            assert list(got) == list(axes)
            for axis in axes:
                assert np.array_equal(got[axis], axis_correlations(state, axis))

    def test_bad_axis_and_state(self):
        with pytest.raises(InputError):
            correlation_matrices(make_dicke(3, 1), ("x", "q"))
        with pytest.raises(InputError):
            correlation_matrices(np.ones(4) / 2.0, "xy")
