"""State constructors, invariants, and serialization."""

import json
import math
from collections import deque

import numpy as np
import pytest

import sfwitness.states as states
from sfwitness import (BlochVector, DensityMatrix, InputError, ResourceError,
                       StateVector, from_json, make_basis_state, make_dicke,
                       make_dicke_ghz_superposition, make_ghz_superposition,
                       make_phased_dicke, make_product_density,
                       mix_with_white_noise, random_state_vector, to_json)
from conftest import PAULI, kron_chain, random_bloch_in_ball, random_pure


def amplitude(state, bits):
    return state.amplitudes[int(bits, 2)]


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(InputError):
            StateVector(1, [1.0, 1.0])

    def test_rejects_wrong_length(self):
        with pytest.raises(InputError):
            StateVector(2, [1.0, 0.0])

    def test_amplitudes_immutable(self):
        state = make_basis_state(2, "01")
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0

    def test_qubit_cap_configurable(self, monkeypatch):
        monkeypatch.setattr(states, "MAX_QUBITS", 3)
        with pytest.raises(ResourceError):
            make_basis_state(4, "0000")
        make_basis_state(3, "000")

    def test_rejects_non_finite_amplitude(self):
        with pytest.raises(InputError):
            StateVector(2, [math.nan, 0.0, 0.0, 1.0])

    @pytest.mark.parametrize("build", [
        lambda n: make_basis_state(n, "0" * n),
        lambda n: make_dicke(n, 1),
        lambda n: make_phased_dicke(n, 1),
        lambda n: random_state_vector(n, np.random.default_rng(0)),
        lambda n: make_product_density([(0, 0, 1)] * n),
    ], ids=["basis", "dicke", "phased-dicke", "random", "product-density"])
    def test_cap_checked_before_allocation(self, build, monkeypatch):
        # 2**40 amplitudes cannot be allocated; the product-density builder's first
        # allocating call is np.einsum (its factors), ahead of the 4**n Kronecker chain
        monkeypatch.setattr(np, "einsum", None)
        with pytest.raises(ResourceError):
            build(40)


class TestBasisState:
    @pytest.mark.parametrize("n, bits, expected_index", [
        (2, "00", 0),
        (3, "001", 1),
        (1, "1", 1),
    ])
    def test_encoding(self, n, bits, expected_index):
        state = make_basis_state(n, bits)
        expected = np.zeros(2 ** n)
        expected[expected_index] = 1.0
        assert np.array_equal(state.amplitudes, expected)

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            make_basis_state(3, "01")

    def test_non_binary(self):
        with pytest.raises(InputError):
            make_basis_state(2, "0x")


class TestDicke:
    def test_w_state(self):
        w = make_dicke(3, 1)
        for bits in ("001", "010", "100"):
            assert amplitude(w, bits) == pytest.approx(1 / math.sqrt(3))
        assert np.count_nonzero(w.amplitudes) == 3

    def test_four_two(self):
        state = make_dicke(4, 2)
        weight2 = ("0011", "0110", "1100", "1001", "1010", "0101")
        for bits in weight2:
            assert amplitude(state, bits) == pytest.approx(1 / math.sqrt(6))
        assert np.count_nonzero(state.amplitudes) == 6

    def test_single_term(self):
        assert amplitude(make_dicke(2, 0), "00") == 1.0

    @pytest.mark.parametrize("n", range(2, 8))
    def test_support_size_and_equal_amplitudes(self, n):
        for l in range(n + 1):
            state = make_dicke(n, l)
            nonzero = state.amplitudes[state.amplitudes != 0]
            assert len(nonzero) == math.comb(n, l)
            assert np.allclose(nonzero, nonzero[0])

    def test_l_out_of_range(self):
        with pytest.raises(InputError):
            make_dicke(3, 4)
        with pytest.raises(InputError):
            make_dicke(3, -1)


def adjacent_transposition_signs(n, l):
    """BFS over adjacent swaps from the reference 1^l 0^(n-l).

    Also certifies that the sign is well-defined: every swap of unequal
    neighbors must flip it.
    """
    ref = "1" * l + "0" * (n - l)
    signs = {ref: 1}
    queue = deque([ref])
    while queue:
        current = queue.popleft()
        for p in range(n - 1):
            if current[p] != current[p + 1]:
                swapped = (current[:p] + current[p + 1] + current[p]
                           + current[p + 2:])
                if swapped in signs:
                    assert signs[swapped] == -signs[current]
                else:
                    signs[swapped] = -signs[current]
                    queue.append(swapped)
    return signs


class TestPhasedDicke:
    def test_two_one(self):
        state = make_phased_dicke(2, 1)
        assert amplitude(state, "10") == pytest.approx(1 / math.sqrt(2))
        assert amplitude(state, "01") == pytest.approx(-1 / math.sqrt(2))

    def test_four_two_signs(self):
        state = make_phased_dicke(4, 2)
        plus = ("0011", "1100", "0110", "1001")
        minus = ("0101", "1010")
        for bits in plus:
            assert amplitude(state, bits) == pytest.approx(1 / math.sqrt(6))
        for bits in minus:
            assert amplitude(state, bits) == pytest.approx(-1 / math.sqrt(6))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_transposition_parity(self, n):
        for l in range(n + 1):
            state = make_phased_dicke(n, l)
            expected = adjacent_transposition_signs(n, l)
            amp = 1 / math.sqrt(math.comb(n, l))
            for bits, sign in expected.items():
                assert amplitude(state, bits) == pytest.approx(sign * amp)

    def test_l_out_of_range(self):
        with pytest.raises(InputError):
            make_phased_dicke(4, 5)


class TestGhzSuperposition:
    def test_pure_ghz_at_half_pi(self):
        state = make_ghz_superposition(math.pi / 2, +1)
        assert amplitude(state, "0000") == pytest.approx(1 / math.sqrt(2))
        assert amplitude(state, "1111") == pytest.approx(1 / math.sqrt(2))
        assert np.count_nonzero(np.abs(state.amplitudes) > 1e-15) == 2

    def test_pure_pair_branch_at_zero(self):
        state = make_ghz_superposition(0.0, +1)
        assert amplitude(state, "0011") == pytest.approx(1 / math.sqrt(2))
        assert amplitude(state, "1100") == pytest.approx(1 / math.sqrt(2))

    def test_minus_sign_at_third_pi(self):
        # branch amplitudes keep the cos/sin ratio and the constructor
        # normalizes, so the GHZ terms carry -sin(pi/3)/sqrt(2)
        state = make_ghz_superposition(math.pi / 3, -1)
        assert amplitude(state, "0000") == pytest.approx(-math.sqrt(3) / (2 * math.sqrt(2)))
        assert amplitude(state, "0011") == pytest.approx(1 / (2 * math.sqrt(2)))

    @pytest.mark.parametrize("theta", np.linspace(-1.0, 4.0, 11))
    def test_normalized_for_all_angles(self, theta):
        for sign in (+1, -1):
            state = make_ghz_superposition(theta, sign)
            assert np.sum(np.abs(state.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-13)

    def test_bad_sign(self):
        with pytest.raises(InputError):
            make_ghz_superposition(0.3, 0)

    @pytest.mark.parametrize("build", [make_ghz_superposition, make_dicke_ghz_superposition])
    def test_bad_sign_rejected_before_any_state(self, build, monkeypatch):
        def forbidden(*args):
            raise AssertionError("built a state before checking the sign")

        monkeypatch.setattr(states, "make_dicke", forbidden)
        monkeypatch.setattr(states, "StateVector", forbidden)
        with pytest.raises(InputError, match="sign"):
            build(0.3, "x")


class TestDickeGhzSuperposition:
    def test_endpoints(self):
        assert np.allclose(make_dicke_ghz_superposition(0.0, +1).amplitudes,
                           make_dicke(4, 2).amplitudes)
        ghz = make_dicke_ghz_superposition(math.pi / 2, +1)
        assert amplitude(ghz, "0000") == pytest.approx(1 / math.sqrt(2))

    def test_quarter_pi_minus(self):
        state = make_dicke_ghz_superposition(math.pi / 4, -1)
        assert amplitude(state, "0011") == pytest.approx(math.cos(math.pi / 4) / math.sqrt(6))
        assert amplitude(state, "0000") == pytest.approx(-0.5)
        assert amplitude(state, "1111") == pytest.approx(-0.5)

    @pytest.mark.parametrize("theta", np.linspace(0.0, math.pi, 7))
    def test_unit_norm(self, theta):
        state = make_dicke_ghz_superposition(theta, -1)
        assert np.sum(np.abs(state.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-13)


class TestProductDensity:
    def test_z_up_pair(self):
        rho = make_product_density([(0, 0, 1), (0, 0, 1)])
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(rho.entries, expected)

    def test_maximally_mixed(self):
        rho = make_product_density([BlochVector(0, 0, 0)])
        assert np.allclose(rho.entries, np.eye(2) / 2)

    def test_x_up_z_down(self):
        rho = make_product_density([(1, 0, 0), (0, 0, -1)])
        plus = np.array([1, 1]) / math.sqrt(2)
        one = np.array([0, 1])
        expected = np.kron(np.outer(plus, plus), np.outer(one, one))
        assert np.allclose(rho.entries, expected)

    def test_norm_violation(self):
        with pytest.raises(InputError):
            make_product_density([(1.0, 0.5, 0.0)])

    @pytest.mark.parametrize("n", range(1, 8))
    def test_equals_kron_chain_of_factors(self, rng, n):
        # bit for bit: the broadcast chain multiplies the same entries in the same order
        for _ in range(5):
            # pure factors on the unit sphere, mixed ones inside the ball
            surface = [rng.standard_normal(3) for _ in range(n)]
            blochs = [BlochVector(*(v / np.linalg.norm(v))) if rng.random() < 0.5
                      else random_bloch_in_ball(rng) for v in surface]
            factors = [0.5 * (PAULI["i"] + b.n_x * PAULI["x"] + b.n_y * PAULI["y"]
                              + b.n_z * PAULI["z"]) for b in blochs]
            rho = make_product_density(blochs).entries
            assert rho.dtype == complex
            assert np.array_equal(rho, kron_chain(factors))

    def test_bloch_to_ket_is_the_pure_factor(self, rng):
        # the one Bloch-to-ket map: |n><n| is the factor (1 + n.sigma)/2, poles included
        surface = rng.standard_normal((200, 3))
        points = np.vstack([surface / np.linalg.norm(surface, axis=1)[:, None],
                            [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]])
        for point, ket in zip(points, states._bloch_to_ket(points)):
            rho = make_product_density([point]).entries
            assert np.max(np.abs(np.outer(ket, ket.conj()) - rho)) <= 1e-15

    def test_rejects_non_finite_bloch_vector(self):
        with pytest.raises(InputError):
            BlochVector(math.nan, 0.0, 0.0)
        with pytest.raises(InputError):
            make_product_density([(0.0, 0.0, 1.0), (math.nan, 0.0, 0.0)])


class TestWhiteNoise:
    def test_endpoints(self):
        w = make_dicke(3, 1)
        pure = mix_with_white_noise(w, 0.0)
        assert np.allclose(pure.entries, np.outer(w.amplitudes, w.amplitudes.conj()))
        mixed = mix_with_white_noise(w, 1.0)
        assert np.allclose(mixed.entries, np.eye(8) / 8)

    def test_w_state_eigenvalue(self):
        w = make_dicke(3, 1)
        rho = mix_with_white_noise(w, 0.5)
        overlap = w.amplitudes.conj() @ rho.entries @ w.amplitudes
        assert overlap == pytest.approx(0.5 + 0.5 / 8)

    def test_affine_in_p(self):
        w = make_dicke(3, 1)
        lo, mid, hi = (mix_with_white_noise(w, p).entries for p in (0.2, 0.5, 0.8))
        assert np.allclose(mid, 0.5 * (lo + hi), atol=1e-14)

    def test_p_out_of_range(self):
        with pytest.raises(InputError):
            mix_with_white_noise(make_dicke(2, 1), 1.5)

    def test_values_equal_the_defining_sum(self, rng):
        for n, p in ((1, 0.3), (4, 0.0), (6, 0.7), (7, 1.0)):
            state = random_pure(rng, n)
            want = (p / state.dim) * np.eye(state.dim, dtype=complex)
            want += (1.0 - p) * np.outer(state.amplitudes, state.amplitudes.conj())
            assert np.array_equal(mix_with_white_noise(state, p).entries, want)


class TestDensityMatrixInvariants:
    def test_rejects_non_hermitian(self):
        mat = np.eye(2, dtype=complex)
        mat[0, 1] = 0.5
        with pytest.raises(InputError):
            DensityMatrix(1, mat)

    @pytest.mark.parametrize("row, col", [(0, 1), (1, 0), (5, 300), (300, 5), (511, 510)])
    def test_hermiticity_tolerance_in_every_row_block(self, row, col):
        # N = 9 is checked in several row blocks against HERMITIAN_ATOL = 1e-12
        for build in (DensityMatrix, states.DensityMatrix._psd_by_construction):
            for offset in (5e-13, 2e-12):
                mat = np.eye(512, dtype=complex) / 512
                mat[row, col] += offset
                if offset < states.HERMITIAN_ATOL:
                    assert build(9, mat).entries[row, col] == offset
                else:
                    with pytest.raises(InputError, match="not Hermitian"):
                        build(9, mat)

    def test_constructor_copies_its_input(self):
        mat = np.eye(2, dtype=complex) / 2
        rho = DensityMatrix(1, mat)
        mat[0, 0] = 1.0
        assert rho.entries[0, 0] == 0.5

    def test_rejects_bad_trace(self):
        with pytest.raises(InputError):
            DensityMatrix(1, np.eye(2, dtype=complex))

    def test_rejects_non_finite_entries(self):
        with pytest.raises(InputError):
            DensityMatrix(1, [[math.nan, 0.0], [0.0, 1.0]])

    def test_rejects_negative_eigenvalue(self):
        # the second matrix has eigenvalues 1.1 and -0.1
        for mat in (np.diag([1.5, -0.5]), np.array([[0.5, 0.6j], [-0.6j, 0.5]])):
            with pytest.raises(InputError, match="negative eigenvalue"):
                DensityMatrix(1, mat.astype(complex))

    def test_builders_are_psd(self, rng):
        for n in range(1, 6):
            blochs = [random_bloch_in_ball(rng) for _ in range(n)]
            for rho in (make_product_density(blochs),
                        mix_with_white_noise(random_pure(rng, n), float(rng.random()))):
                assert np.linalg.eigvalsh(rho.entries)[0] >= -states.PSD_ATOL

    def test_builders_skip_only_the_eigenvalue_check(self, rng, monkeypatch):
        # PSD by construction: no eigvalsh, while the public constructor keeps it
        def forbidden(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        rho = make_product_density([(0.0, 0.6, 0.8), (1.0, 0.0, 0.0)])
        noisy = mix_with_white_noise(random_pure(rng, 3), 0.25)
        for built in (rho, noisy):
            assert not built.entries.flags.writeable
            with pytest.raises(AssertionError, match="eigvalsh"):
                DensityMatrix(built.n_qubits, built.entries)
        with pytest.raises(ResourceError):
            states.DensityMatrix._psd_by_construction(states.DENSITY_MAX_QUBITS + 1, [[1.0]])
        with pytest.raises(InputError, match="not Hermitian"):
            states.DensityMatrix._psd_by_construction(1, [[0.5, 0.5], [0.0, 0.5]])


class TestSerialization:
    def test_round_trip(self):
        state = make_phased_dicke(4, 2)
        restored = from_json(to_json(state))
        assert restored.n_qubits == 4
        assert np.allclose(restored.amplitudes, state.amplitudes)

    def test_lists_only_nonzero_terms(self):
        payload = json.loads(to_json(make_dicke(4, 2)))
        assert len(payload["terms"]) == 6

    def test_renormalizes_small_drift(self):
        payload = {"n_qubits": 1,
                   "terms": [{"basis": "0", "re": 1.0 + 2e-10, "im": 0.0}]}
        state = from_json(json.dumps(payload))
        assert abs(state.amplitudes[0]) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_large_drift(self):
        payload = {"n_qubits": 1, "terms": [{"basis": "0", "re": 0.9, "im": 0.0}]}
        with pytest.raises(InputError):
            from_json(json.dumps(payload))

    def test_rejects_duplicate_basis(self):
        payload = {"n_qubits": 1, "terms": [
            {"basis": "0", "re": 0.8, "im": 0.0},
            {"basis": "0", "re": 0.6, "im": 0.0},
        ]}
        with pytest.raises(InputError):
            from_json(json.dumps(payload))

    def test_rejects_garbage(self):
        with pytest.raises(InputError):
            from_json("not json at all")

    def test_qubit_cap_checked_before_allocation(self):
        payload = {"n_qubits": 60, "terms": [{"basis": "0" * 60, "re": 1.0, "im": 0.0}]}
        with pytest.raises(ResourceError):
            from_json(json.dumps(payload))

    @pytest.mark.parametrize("missing", ["re", "im", "basis"])
    def test_rejects_term_with_missing_field(self, missing):
        term = {"basis": "0", "re": 1.0, "im": 0.0}
        del term[missing]
        with pytest.raises(InputError):
            from_json(json.dumps({"n_qubits": 1, "terms": [term]}))

    def test_rejects_non_string_basis(self):
        payload = {"n_qubits": 1, "terms": [{"basis": 0, "re": 1.0, "im": 0.0}]}
        with pytest.raises(InputError):
            from_json(json.dumps(payload))
