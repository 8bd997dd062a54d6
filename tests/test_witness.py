"""Witness assembly, closed forms, the dense operator, and detection."""

import math
from fractions import Fraction

import numpy as np
import pytest

from sfwitness import (InputError, ResourceError, SiteLayout,
                       UnsupportedCaseError, WitnessSpec, axis_components,
                       detects, dicke_sigma_closed_form, make_basis_state,
                       make_dicke, make_phased_dicke, make_product_density,
                       mix_with_white_noise, pair_weight_matrix,
                       phased_dicke_sigma_closed_form, scan_k, sigma_operator,
                       sigma_value, two_point, witness_value)
from conftest import (dense_expectation, dense_sigma_matrix, pauli_on,
                      random_bloch_in_ball, random_pure, random_spec)

DICKE_SPEC_4 = WitnessSpec(4, 0.0, 1, 1, -1)
PHASED_SPEC_4 = WitnessSpec(4, math.pi, 1, 1, 1)


class TestWitnessSpec:
    def test_rejects_large_coefficient(self):
        with pytest.raises(InputError):
            WitnessSpec(4, 0.0, 1.2, 0.0, 0.0)

    def test_rejects_single_qubit(self):
        with pytest.raises(InputError):
            WitnessSpec(1, 0.0, 1, 1, 1)

    def test_rejects_layout_mismatch(self):
        with pytest.raises(InputError):
            WitnessSpec(3, 0.0, 1, 1, 1, SiteLayout((0.0, 1.0)))

    def test_default_layout_is_unit_spacing(self):
        assert WitnessSpec(3, 0.0, 1, 1, 1).layout.positions == (0.0, 1.0, 2.0)

    def test_json_round_trip(self):
        spec = WitnessSpec(3, math.pi, 0.5, -1.0, 0.25, SiteLayout((0.0, 1.5, 4.0)))
        assert WitnessSpec.from_json(spec.to_json()) == spec

    def test_json_rejects_malformed(self):
        with pytest.raises(InputError):
            WitnessSpec.from_json('{"n_qubits": 3}')

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(4))
    def test_rejects_non_finite(self, bad, slot):
        params = [0.5, 1.0, 1.0, 1.0]
        params[slot] = bad
        with pytest.raises(InputError):
            WitnessSpec(4, *params)


class TestPairWeightMatrix:
    def test_entries_are_pair_weights(self):
        spec = WitnessSpec(4, 1.1, 1, 1, 1, SiteLayout((0.0, 0.3, 1.7, 2.0)))
        weights = pair_weight_matrix(spec)
        assert np.array_equal(weights, weights.T)
        assert np.array_equal(np.diag(weights), np.zeros(4))
        for i in range(1, 5):
            for j in range(i + 1, 5):
                assert weights[i - 1, j - 1] == spec.pair_weight(i, j)


def _pair_route_sums(state, spec):
    """Per-axis sum_{i<j} cos(k m_ij) <a_i a_j> / C(N,2) through two_point."""
    n = spec.n_qubits
    return [sum(spec.pair_weight(i, j) * two_point(state, i, j, axis, axis)
                for i in range(1, n + 1) for j in range(i + 1, n + 1))
            / math.comb(n, 2) for axis in "xyz"]


class TestAgainstPairRoute:
    LAYOUT = SiteLayout((0.0, 0.45, 1.3, 2.9, 3.05))

    def _cases(self, rng):
        for n in (2, 3, 5):
            layout = self.LAYOUT if n == 5 else None
            state = random_pure(rng, n)
            yield state, random_spec(rng, n, layout)
            yield mix_with_white_noise(state, 0.25), random_spec(rng, n, layout)

    def test_sigma_value(self, rng):
        for state, spec in self._cases(rng):
            expected = sum(c * a for c, a in zip(spec.coefficients,
                                                 _pair_route_sums(state, spec)))
            assert sigma_value(state, spec) == pytest.approx(expected, abs=1e-12)

    def test_axis_components(self, rng):
        for state, spec in self._cases(rng):
            got = axis_components(state, spec)
            assert got == pytest.approx(_pair_route_sums(state, spec), abs=1e-12)

    def test_scan_k(self, rng):
        for state, spec in self._cases(rng):
            grid = rng.uniform(-2 * math.pi, 2 * math.pi, size=4)
            points = scan_k(state, *spec.coefficients, grid, spec.layout)
            for point in points:
                at_k = WitnessSpec(spec.n_qubits, point.k, *spec.coefficients, spec.layout)
                expected = sum(c * a for c, a in zip(at_k.coefficients,
                                                     _pair_route_sums(state, at_k)))
                assert point.sigma == pytest.approx(expected, abs=1e-12)
                assert point.witness == pytest.approx(1.0 - expected, abs=1e-12)


class TestSigmaValue:
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_even_dicke_peak(self, n):
        spec = WitnessSpec(n, 0.0, 1, 1, -1)
        got = sigma_value(make_dicke(n, n // 2), spec)
        assert got == pytest.approx((n + 1) / (n - 1), abs=1e-12)

    def test_six_two(self):
        got = sigma_value(make_dicke(6, 2), WitnessSpec(6, 0.0, 1, 1, -1))
        assert got == pytest.approx(17 / 15, abs=1e-12)

    def test_all_zeros_state(self):
        got = sigma_value(make_basis_state(4, "0000"), DICKE_SPEC_4)
        assert got == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_odd_dicke(self, n):
        spec = WitnessSpec(n, 0.0, 1, 1, -1)
        for l in ((n - 1) // 2, (n + 1) // 2):
            got = sigma_value(make_dicke(n, l), spec)
            assert got == pytest.approx((n * (n + 1) - 2) / (n * (n - 1)), abs=1e-12)

    def test_k_sign_symmetric_exactly(self, rng):
        state = random_pure(rng, 4)
        plus = sigma_value(state, WitnessSpec(4, 1.234, 0.7, -0.2, 0.5))
        minus = sigma_value(state, WitnessSpec(4, -1.234, 0.7, -0.2, 0.5))
        assert plus == minus

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            sigma_value(make_dicke(3, 1), DICKE_SPEC_4)

    def test_matches_axis_components(self, rng):
        state = random_pure(rng, 3)
        spec = random_spec(rng, 3)
        comps = axis_components(state, spec)
        expected = sum(c * a for c, a in zip(spec.coefficients, comps))
        assert sigma_value(state, spec) == pytest.approx(expected, abs=1e-13)


class TestWitnessValue:
    def test_dicke_four_two(self):
        assert witness_value(make_dicke(4, 2), DICKE_SPEC_4) == pytest.approx(
            -2 / 3, abs=1e-12)

    def test_identity_state(self):
        mixed = mix_with_white_noise(make_basis_state(4, "0000"), 1.0)
        assert witness_value(mixed, DICKE_SPEC_4) == pytest.approx(1.0, abs=1e-12)

    def test_product_states_non_negative(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            state = make_product_density([random_bloch_in_ball(rng) for _ in range(n)])
            assert witness_value(state, random_spec(rng, n)) >= -1e-9


class TestDetects:
    def test_phased_dicke_detected_at_pi(self):
        assert detects(make_phased_dicke(4, 2), PHASED_SPEC_4)

    def test_plain_dicke_not_detected_at_pi(self):
        assert not detects(make_dicke(4, 2), PHASED_SPEC_4)

    def test_phased_six_with_xy_only(self):
        spec = WitnessSpec(6, math.pi, 1, 1, 0)
        state = make_phased_dicke(6, 3)
        assert sigma_value(state, spec) == pytest.approx(6 / 5, abs=1e-12)
        assert detects(state, spec)

    def test_boundary_counts_as_not_detected(self):
        # <Sigma> = 1 exactly for this state/witness pair
        state = make_basis_state(2, "00")
        spec = WitnessSpec(2, 0.0, 0, 0, 1)
        assert witness_value(state, spec) == pytest.approx(0.0, abs=1e-15)
        assert not detects(state, spec)


class TestClosedForms:
    def test_dicke_values(self):
        assert dicke_sigma_closed_form(4, 2) == Fraction(5, 3)
        assert dicke_sigma_closed_form(6, 2) == Fraction(17, 15)
        assert dicke_sigma_closed_form(2, 0) == Fraction(-1)

    def test_dicke_validation(self):
        with pytest.raises(InputError):
            dicke_sigma_closed_form(1, 0)
        with pytest.raises(InputError):
            dicke_sigma_closed_form(4, 5)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_dicke_agreement_with_pipeline(self, n):
        spec = WitnessSpec(n, 0.0, 1, 1, -1)
        for l in range(n + 1):
            exact = dicke_sigma_closed_form(n, l)
            got = sigma_value(make_dicke(n, l), spec)
            assert got == pytest.approx(float(exact), abs=1e-12)

    def test_phased_values(self):
        assert phased_dicke_sigma_closed_form(4, 2, False) == Fraction(4, 3)
        assert phased_dicke_sigma_closed_form(4, 2, True) == Fraction(13, 9)
        assert phased_dicke_sigma_closed_form(6, 3, True) == Fraction(31, 25)
        assert phased_dicke_sigma_closed_form(5, 2, False) == Fraction(6, 5)
        assert phased_dicke_sigma_closed_form(5, 3, False) == Fraction(6, 5)

    def test_phased_unsupported_cases(self):
        with pytest.raises(UnsupportedCaseError):
            phased_dicke_sigma_closed_form(4, 1, False)
        with pytest.raises(UnsupportedCaseError):
            phased_dicke_sigma_closed_form(8, 4, True)

    def test_phased_agreement_with_pipeline(self):
        for n, l in ((4, 2), (6, 3)):
            spec = WitnessSpec(n, math.pi, 1, 1, 1)
            exact = phased_dicke_sigma_closed_form(n, l, True)
            got = sigma_value(make_phased_dicke(n, l), spec)
            assert got == pytest.approx(float(exact), abs=1e-12)


class TestSigmaOperator:
    def test_two_qubit_matrix(self):
        spec = WitnessSpec(2, 0.0, 1, 1, 1)
        expected = sum(pauli_on(2, {1: a, 2: a}) for a in "xyz")
        assert np.allclose(sigma_operator(spec), expected, atol=1e-14)

    def test_traceless_and_hermitian(self, rng):
        for _ in range(5):
            spec = random_spec(rng, int(rng.integers(2, 6)))
            mat = sigma_operator(spec)
            assert abs(np.trace(mat)) < 1e-12
            assert np.max(np.abs(mat - mat.conj().T)) < 1e-12

    def test_top_eigenvalue_covers_phased_dicke(self):
        top = np.linalg.eigvalsh(sigma_operator(PHASED_SPEC_4))[-1]
        assert top >= 13 / 9 - 1e-12

    def test_matches_dense_oracle(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 6))
            spec = random_spec(rng, n)
            assert np.allclose(sigma_operator(spec), dense_sigma_matrix(spec),
                               atol=1e-12)

    def test_expectation_consistency(self, rng):
        for n in range(2, 7):
            spec = random_spec(rng, n)
            state = random_pure(rng, n)
            dense = dense_expectation(state, sigma_operator(spec)).real
            assert sigma_value(state, spec) == pytest.approx(dense, abs=1e-10)

    def test_size_cap(self):
        with pytest.raises(ResourceError):
            sigma_operator(WitnessSpec(13, 0.0, 1, 1, 1))


class TestScanK:
    def test_single_point(self):
        points = scan_k(make_dicke(4, 2), 1, 1, -1, [0.0])
        assert points[0].k == 0.0
        assert points[0].sigma == pytest.approx(5 / 3, abs=1e-12)
        assert points[0].witness == pytest.approx(-2 / 3, abs=1e-12)

    def test_phased_point(self):
        points = scan_k(make_phased_dicke(4, 2), 1, 1, 1, [math.pi])
        assert points[0].sigma == pytest.approx(13 / 9, abs=1e-12)

    def test_identity_scan_is_flat(self):
        mixed = mix_with_white_noise(make_basis_state(4, "0000"), 1.0)
        for point in scan_k(mixed, 1, 1, 1, [0.0, math.pi / 2, math.pi]):
            assert point.sigma == pytest.approx(0.0, abs=1e-12)

    def test_matches_sigma_value_pointwise(self, rng):
        state = random_pure(rng, 3)
        grid = [0.0, 0.7, math.pi, 5.1]
        points = scan_k(state, 0.3, -0.8, 0.5, grid)
        for point in points:
            spec = WitnessSpec(3, point.k, 0.3, -0.8, 0.5)
            assert point.sigma == pytest.approx(sigma_value(state, spec), abs=1e-12)

    def test_empty_grid(self):
        with pytest.raises(InputError):
            scan_k(make_dicke(2, 1), 1, 1, 1, [])


class TestDetectionBoundary:
    def test_locates_ghz_window_edge(self):
        from sfwitness import find_detection_boundary, make_ghz_superposition
        spec = WitnessSpec(4, 0.0, 1, -1, 1)
        boundary = find_detection_boundary(
            lambda th: make_ghz_superposition(th, +1), spec,
            theta_inside=1.0, theta_outside=0.2, tol=1e-9)
        assert boundary == pytest.approx(math.pi / 4, abs=1e-6)

    def test_rejects_unbracketed_endpoints(self):
        from sfwitness import find_detection_boundary, make_ghz_superposition
        spec = WitnessSpec(4, 0.0, 1, -1, 1)
        with pytest.raises(InputError):
            find_detection_boundary(lambda th: make_ghz_superposition(th, +1),
                                    spec, theta_inside=0.1, theta_outside=0.2)


class TestNonDetectionGrid:
    def test_phased_dicke_never_detected_at_k0(self):
        comps = axis_components(make_phased_dicke(4, 2), WitnessSpec(4, 0.0, 1, 1, 1))
        grid = np.linspace(-1, 1, 41)
        cx, cy, cz = np.meshgrid(grid, grid, grid, indexing="ij")
        sigma = cx * comps[0] + cy * comps[1] + cz * comps[2]
        assert float(sigma.max()) <= 1.0 + 1e-9
