"""Correlators against dense kron-built oracles."""

import collections
import itertools
import math

import numpy as np
import pytest

from sfwitness import (DensityMatrix, InputError, ShotPlan, SiteLayout, StateVector,
                       WitnessSpec, axis_components, axis_correlations, collective_spin_sq,
                       collective_threshold, estimate_witness, individual_threshold,
                       make_basis_state, make_dicke, make_product_density,
                       mix_with_white_noise, scan_k, sigma_value, structure_factor,
                       two_point, verify_collective_identity)
from sfwitness import correlators, kernels
from sfwitness.correlators import correlation_matrices, readout_probabilities
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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_mixed_state_matches_dense_oracle(self, rng, n):
        rho = random_mixed(rng, n)
        for axis in "xyz":
            j_op = sum(pauli_on(n, {q: axis}) for q in range(1, n + 1)) / 2.0
            dense = dense_expectation(rho, j_op @ j_op).real
            assert collective_spin_sq(rho, axis) == pytest.approx(dense, abs=1e-12)

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

    def test_k0_collective_route_is_exactly_the_spin_route(self, rng):
        # at k = 0 the weights are cos 0 = 1 and sin 0 = 0, against 1/2 for J_a: exact scalings
        for state in (random_pure(rng, 5), random_mixed(rng, 4)):
            for axis in "xyz":
                _, rhs = verify_collective_identity(state, axis)
                assert rhs == (4.0 * collective_spin_sq(state, axis) - state.n_qubits) / 2.0

    def test_staggered_sum_at_pi(self):
        lhs, rhs = verify_collective_identity(make_basis_state(4, "0000"), "z", math.pi)
        assert lhs == pytest.approx(-2.0, abs=1e-12)
        assert rhs == pytest.approx(-2.0, abs=1e-12)

    def test_layout_mismatch(self):
        with pytest.raises(InputError):
            verify_collective_identity(make_dicke(3, 1), "x", 0.4, SiteLayout((0.0, 1.0)))

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
    def test_non_finite_k_rejected(self, k):
        with pytest.raises(InputError):
            verify_collective_identity(make_dicke(3, 1), "x", k)
        with pytest.raises(InputError):
            structure_factor(make_dicke(3, 1), k, "x", "y")


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


class _GateReads(dict):
    """The basis-change gates, counting reads: a pure state's x or y rotation reads its gate once."""

    def __init__(self, reads):
        super().__init__(correlators._ROTATIONS)
        self.reads = reads

    def __getitem__(self, axis):
        self.reads[axis] += 1
        return super().__getitem__(axis)


def _count_rotations(monkeypatch) -> collections.Counter:
    """Per-axis rotations of pure states, and the x/y trace gathers of density matrices (the
    only site_masks call on these paths), tallied in the returned counter."""
    reads = collections.Counter()
    site_masks = kernels.site_masks

    def counted_site_masks(n_qubits):
        reads["gather"] += 1
        return site_masks(n_qubits)

    monkeypatch.setattr(correlators, "_ROTATIONS", _GateReads(reads))
    monkeypatch.setattr(kernels, "site_masks", counted_site_masks)
    return reads


def _hex(value) -> list:
    if isinstance(value, (tuple, list)):
        return [h for item in value for h in _hex(item)]
    return [float(value).hex()]


def _fresh_copy(state):
    if isinstance(state, StateVector):
        return StateVector(state.n_qubits, state.amplitudes)
    return DensityMatrix(state.n_qubits, state.entries)


class TestMemo:
    @staticmethod
    def _evaluations(state) -> dict:
        spec = WitnessSpec(state.n_qubits, 0.9, 0.7, -0.4, 0.5)
        calls = {
            "sigma_value": lambda s: sigma_value(s, spec),
            "axis_components": lambda s: axis_components(s, spec),
            "scan_k": lambda s: scan_k(s, *spec.coefficients, np.linspace(0.0, math.pi, 5)),
            "collective_threshold": lambda s: collective_threshold(s, spec),
            "individual_threshold": lambda s: individual_threshold(s, spec),
        }
        if isinstance(state, StateVector):
            calls["estimate_witness"] = lambda s: estimate_witness(s, spec, ShotPlan(500, 7))
        return calls

    @pytest.mark.parametrize("mixed", [False, True])
    def test_each_state_is_read_once(self, rng, monkeypatch, mixed):
        state = random_mixed(rng, 8) if mixed else random_pure(rng, 8)
        reads = _count_rotations(monkeypatch)
        on_memo = collections.Counter()
        for name, call in self._evaluations(state).items():
            before = reads.copy()
            want = call(_fresh_copy(state))
            assert max((reads - before).values(), default=0) <= 1, name
            before = reads.copy()
            got = call(state)
            on_memo += reads - before
            assert _hex(got) == _hex(want), name
        assert on_memo == ({"gather": 1} if mixed else {"x": 1, "y": 1})

    def test_cached_arrays_are_read_only(self, rng):
        pure, mixed = random_pure(rng, 4), random_mixed(rng, 4)
        for state in (pure, mixed):
            for axis in "xyz":
                corr = axis_correlations(state, axis)
                with pytest.raises(ValueError):
                    corr[0, 1] = 0.0
        for probs in [readout_probabilities(pure, axis) for axis in "xyz"] + [
                readout_probabilities(mixed, "z")]:
            with pytest.raises(ValueError):
                probs[0] = 1.0

    def test_bad_axis_after_others_are_cached(self, rng):
        for state in (random_pure(rng, 3), random_mixed(rng, 3)):
            correlation_matrices(state, "xyz")
            readout_probabilities(state, "z")
            with pytest.raises(InputError):
                correlation_matrices(state, ("x", "q"))
            with pytest.raises(InputError):
                axis_correlations(state, "q")
            with pytest.raises(InputError):
                readout_probabilities(state, "q")
