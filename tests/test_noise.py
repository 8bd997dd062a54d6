"""Depolarizing channels and robustness thresholds."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sfwitness import (InputError, NoiseModel, ResourceError, WitnessSpec,
                       collective_threshold, collective_threshold_exact,
                       detects, dicke_sigma_closed_form, individual_threshold,
                       kraus_crosscheck, make_basis_state, make_dicke,
                       make_phased_dicke, mix_with_white_noise, noisy_sigma,
                       sigma_value, states)
from sfwitness import kernels, noise
from conftest import pauli_on, random_mixed, random_pure, random_spec
import states_reference

DICKE_SPEC_4 = WitnessSpec(4, 0.0, 1, 1, -1)
PHASED_SPEC_4 = WitnessSpec(4, math.pi, 1, 1, 1)
PHASED_SPEC_6 = WitnessSpec(6, math.pi, 1, 1, 1)


class TestNoiseModel:
    def test_rejects_unknown_kind(self):
        with pytest.raises(InputError):
            NoiseModel("amplitude-damping", 0.1)

    def test_rejects_bad_strength(self):
        with pytest.raises(InputError):
            NoiseModel("collective", 1.2)


class TestNoisySigma:
    def test_collective_half(self):
        got = noisy_sigma(make_dicke(4, 2), DICKE_SPEC_4,
                          NoiseModel("collective", 0.5))
        assert got == pytest.approx(5 / 6, abs=1e-12)

    def test_collective_matches_density_path(self):
        state = make_dicke(4, 2)
        for p in (0.0, 0.3, 0.7, 1.0):
            factor_law = noisy_sigma(state, DICKE_SPEC_4, NoiseModel("collective", p))
            density = sigma_value(mix_with_white_noise(state, p), DICKE_SPEC_4)
            assert factor_law == pytest.approx(density, abs=1e-12)

    def test_individual_full_strength(self, rng):
        state = random_pure(rng, 3)
        got = noisy_sigma(state, random_spec(rng, 3), NoiseModel("individual", 1.0))
        assert got == 0.0

    def test_individual_factor(self):
        got = noisy_sigma(make_phased_dicke(4, 2), PHASED_SPEC_4,
                          NoiseModel("individual", 0.1))
        assert got == pytest.approx(0.81 * 13 / 9, abs=1e-12)

    def test_affine_in_collective_strength(self):
        state = make_phased_dicke(4, 2)
        values = [noisy_sigma(state, PHASED_SPEC_4, NoiseModel("collective", p))
                  for p in (0.0, 0.5, 1.0)]
        assert values[1] == pytest.approx(0.5 * (values[0] + values[2]), abs=1e-14)
        assert values[0] == pytest.approx(sigma_value(state, PHASED_SPEC_4))
        assert values[2] == 0.0

    def test_monotone_when_sigma_positive(self):
        state = make_dicke(4, 2)
        grid = np.linspace(0.0, 1.0, 21)
        for kind in ("collective", "individual"):
            values = [noisy_sigma(state, DICKE_SPEC_4, NoiseModel(kind, p))
                      for p in grid]
            assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


class TestCollectiveThreshold:
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_dicke_family(self, n):
        got = collective_threshold(make_dicke(n, n // 2), WitnessSpec(n, 0.0, 1, 1, -1))
        assert got == pytest.approx(2 / (n + 1), abs=1e-12)

    def test_phased_xy_only(self):
        for n in (4, 6, 8):
            got = collective_threshold(make_phased_dicke(n, n // 2),
                                       WitnessSpec(n, math.pi, 1, 1, 0))
            assert got == pytest.approx(1 / n, abs=1e-12)

    def test_phased_with_z(self):
        got4 = collective_threshold(make_phased_dicke(4, 2), PHASED_SPEC_4)
        got6 = collective_threshold(make_phased_dicke(6, 3), PHASED_SPEC_6)
        assert got4 == pytest.approx(4 / 13, abs=1e-12)
        assert got6 == pytest.approx(6 / 31, abs=1e-12)

    def test_undetected_state_gets_zero(self):
        undetected = make_basis_state(4, "0000")
        assert collective_threshold(undetected, DICKE_SPEC_4) == 0.0

    def test_exact_rational_route(self):
        assert collective_threshold_exact(Fraction(5, 3)) == Fraction(2, 5)
        assert collective_threshold_exact(dicke_sigma_closed_form(6, 3)) == Fraction(2, 7)
        assert collective_threshold_exact(Fraction(1, 2)) == 0


class TestIndividualThreshold:
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_dicke_family(self, n):
        got = individual_threshold(make_dicke(n, n // 2), WitnessSpec(n, 0.0, 1, 1, -1))
        assert got == pytest.approx(1 - math.sqrt((n - 1) / (n + 1)), abs=1e-12)

    def test_phased_cases(self):
        got4 = individual_threshold(make_phased_dicke(4, 2), PHASED_SPEC_4)
        got6 = individual_threshold(make_phased_dicke(6, 3), PHASED_SPEC_6)
        assert got4 == pytest.approx(1 - 3 / math.sqrt(13), abs=1e-12)
        assert round(got4, 3) == 0.168
        assert got6 == pytest.approx(1 - 5 / math.sqrt(31), abs=1e-12)
        assert round(got6, 3) == 0.102

    def test_undetected_state_gets_zero(self):
        undetected = make_basis_state(4, "0000")
        assert individual_threshold(undetected, DICKE_SPEC_4) == 0.0


class TestThresholdConsistency:
    def test_detection_flips_exactly_at_threshold(self):
        state = make_dicke(4, 2)
        p_star = collective_threshold(state, DICKE_SPEC_4)
        for p in np.arange(0.0, 1.0 + 1e-9, 1e-3):
            noisy = mix_with_white_noise(state, float(p))
            assert detects(noisy, DICKE_SPEC_4) == (p < p_star - 1e-9)

    def test_z_term_strictly_improves(self):
        for n in (4, 6):
            dicke = make_dicke(n, n // 2)
            with_z = WitnessSpec(n, 0.0, 1, 1, -1)
            without = WitnessSpec(n, 0.0, 1, 1, 0)
            assert collective_threshold(dicke, with_z) > collective_threshold(dicke, without)
            assert individual_threshold(dicke, with_z) > individual_threshold(dicke, without)
            phased = make_phased_dicke(n, n // 2)
            with_z = WitnessSpec(n, math.pi, 1, 1, 1)
            without = WitnessSpec(n, math.pi, 1, 1, 0)
            assert collective_threshold(phased, with_z) > collective_threshold(phased, without)
            assert individual_threshold(phased, with_z) > individual_threshold(phased, without)


class TestKrausCrosscheck:
    def test_w_state(self):
        lhs, rhs = kraus_crosscheck(make_dicke(3, 1), WitnessSpec(3, 0.0, 1, 1, -1), 0.3)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_zero_strength_is_noiseless(self):
        state = make_phased_dicke(4, 2)
        lhs, rhs = kraus_crosscheck(state, PHASED_SPEC_4, 0.0)
        clean = sigma_value(state, PHASED_SPEC_4)
        assert lhs == pytest.approx(clean, abs=1e-12)
        assert rhs == pytest.approx(clean, abs=1e-12)

    def test_half_strength_value(self):
        lhs, rhs = kraus_crosscheck(make_phased_dicke(4, 2), PHASED_SPEC_4, 0.5)
        assert lhs == pytest.approx(0.25 * 13 / 9, abs=1e-12)
        assert rhs == pytest.approx(0.25 * 13 / 9, abs=1e-12)

    def test_random_triples(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 7))
            state = random_pure(rng, n)
            q = float(rng.integers(0, 11)) / 10.0
            lhs, rhs = kraus_crosscheck(state, random_spec(rng, n), q)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_kraus_cap_raises_before_the_density_is_built(self, monkeypatch):
        outer_calls = []
        outer = np.outer
        monkeypatch.setattr(np, "outer", lambda *args: outer_calls.append(args) or outer(*args))
        monkeypatch.setattr(states, "KRAUS_MAX_QUBITS", 4)
        with pytest.raises(ResourceError, match=r"^6 qubits exceeds the cap KRAUS_MAX_QUBITS = 4 "
                                                r"\(raise states\.KRAUS_MAX_QUBITS\)$"):
            kraus_crosscheck(make_dicke(6, 3), PHASED_SPEC_6, 0.1)
        assert outer_calls == []
        lhs, rhs = kraus_crosscheck(make_dicke(4, 2), PHASED_SPEC_4, 0.1)
        assert len(outer_calls) == 1 and lhs == pytest.approx(rhs, abs=1e-12)

    def test_default_kraus_cap_is_eight_qubits(self):
        assert states.KRAUS_MAX_QUBITS == 8
        with pytest.raises(ResourceError, match="9 qubits exceeds the cap KRAUS_MAX_QUBITS = 8"):
            kraus_crosscheck(make_dicke(9, 4), WitnessSpec(9, math.pi, 1, 1, 1), 0.1)

    def test_state_side_skips_only_the_eigenvalue_check(self, rng, monkeypatch):
        # the Kraus output is PSD by construction: no Cholesky factor and no eigvalsh, while
        # its finiteness, Hermiticity and trace are still checked
        def forbidden(*args, **kwargs):
            raise AssertionError("PSD check called")

        stacks, check_stack = [], states._check_stack
        monkeypatch.setattr(states, "_check_stack",
                            lambda stack: stacks.append(stack.shape) or check_stack(stack))
        monkeypatch.setattr(np.linalg, "cholesky", forbidden)
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        lhs, rhs = kraus_crosscheck(random_pure(rng, 5), random_spec(rng, 5), 0.3)
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert stacks == [(1, 32, 32)]

    def test_rejects_density_matrix(self):
        rho = mix_with_white_noise(make_dicke(4, 2), 0.1)
        with pytest.raises(InputError, match="needs a StateVector, got DensityMatrix"):
            kraus_crosscheck(rho, PHASED_SPEC_4, 0.1)

    def test_depolarizing_step_bit_identical_to_out_of_place_sums(self, rng):
        # the step runs in place on a writable copy; signed zeros in either part keep their sign
        # through the same sequence of products and sums, up to the N = 8 of the Kraus cap
        for n in range(1, 9):
            rho = random_mixed(rng, n).entries.copy()
            for part in (rho.real, rho.imag):
                part[rng.random(part.shape) < 0.2] = -0.0
            rho[rng.random(rho.shape) < 0.1] = 0.0
            assert np.signbit(rho.real[rho.real == 0]).any()
            for site in range(1, n + 1):
                q = float(rng.uniform())
                got = rho.copy()
                noise._depolarize_qubit(got, n, site, q)
                assert got.tobytes() == states_reference.depolarize_qubit(rho, n, site, q).tobytes()

    def test_kraus_terms_share_one_scratch_array(self):
        # in place: the 1 MB density and two 512 kB buffers of a partner pair. A flipped copy, a
        # (d, d) sign table, a scratch array and a fresh output per site took the peak to 4.6 MB,
        # and three fresh 1 MB products per term to 6.5 MB
        state, spec = make_dicke(8, 4), WitnessSpec(8, 0.0, 1, 1, -1)
        tracemalloc.start()
        try:
            kraus_crosscheck(state, spec, 0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2 ** 20

    def test_rejects_bad_strength(self):
        with pytest.raises(InputError):
            kraus_crosscheck(make_dicke(3, 1), WitnessSpec(3, 0.0, 1, 1, -1), 1.3)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_two_sided_flip_matches_dense_operators(rng, n):
    # x rho x flips the site's row and column bits; y rho y and z rho z add the signs z_r z_c
    matrix = random_mixed(rng, n).entries
    for site in range(1, n + 1):
        flipped = states_reference.flip_site(matrix, n, site)
        z = kernels.outcome_signs(n, (site,))
        for axis, want in (("x", flipped), ("y", z.T * z * flipped), ("z", z.T * z * matrix)):
            op = pauli_on(n, {site: axis})
            assert np.array_equal(want, op @ matrix @ op)
