"""State constructors, invariants, and serialization."""

import json
import math
import tracemalloc
from collections import deque

import numpy as np
import pytest

import sfwitness.states as states
from sfwitness import (BlochVector, Bipartition, DensityMatrix, InputError, ResourceError,
                       StateVector, assemble_cut_state, from_json, make_basis_state, make_dicke,
                       make_dicke_ghz_superposition, make_ghz_superposition,
                       make_phased_dicke, make_product_density,
                       mix_with_white_noise, random_state_vector, to_json)
from conftest import PAULI, kron_chain, random_bloch_in_ball, random_pure
import states_reference


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


class TestAdoptingConstructor:
    def test_public_constructor_copies(self):
        source = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        state = StateVector(2, source)
        source[0], source[3] = 0.0, 1.0
        assert state.amplitudes.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_adopting_path_takes_the_array_uncopied(self):
        source = np.array([0.0, 1.0], dtype=complex)
        state = StateVector._adopt(1, source)
        assert state.amplitudes is source and not source.flags.writeable

    @pytest.mark.parametrize("n, amps, error", [
        (2, [1.0, 0.0], InputError),
        (2, [[1.0, 0.0], [0.0, 0.0]], InputError),
        (2, [math.nan, 0.0, 0.0, 1.0], InputError),
        (2, [1.0, 0.0, 0.0, math.inf], InputError),
        (1, [1.0, 1.0], InputError),
        (17, [1.0], ResourceError),
    ], ids=["length", "shape", "nan", "inf", "norm", "max-qubits"])
    def test_adopting_path_runs_every_check(self, n, amps, error):
        with pytest.raises(error) as public:
            StateVector(n, np.array(amps, dtype=complex))
        with pytest.raises(error) as adopted:
            StateVector._adopt(n, np.array(amps, dtype=complex))
        assert str(adopted.value) == str(public.value)

    def test_adopting_path_reads_the_qubit_cap(self, monkeypatch):
        monkeypatch.setattr(states, "MAX_QUBITS", 3)
        with pytest.raises(ResourceError, match="4 qubits exceeds the cap MAX_QUBITS = 3"):
            StateVector._adopt(4, np.eye(16, dtype=complex)[0])

    @pytest.mark.parametrize("build", [
        lambda: make_basis_state(3, "010"),
        lambda: make_dicke(5, 2),
        lambda: make_phased_dicke(5, 2),
        lambda: make_ghz_superposition(0.4, -1),
        lambda: make_dicke_ghz_superposition(0.4, +1),
        lambda: random_state_vector(4, np.random.default_rng(1)),
        lambda: from_json(to_json(make_phased_dicke(4, 2))),
        lambda: assemble_cut_state(Bipartition((1, 3), (2,)), make_dicke(2, 1),
                                   make_basis_state(1, "1")),
    ], ids=["basis", "dicke", "phased-dicke", "ghz", "dicke-ghz", "random", "json", "cut"])
    def test_every_builder_returns_a_read_only_array(self, build):
        amps = build().amplitudes
        assert not amps.flags.writeable and amps.flags.owndata


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

    @pytest.mark.parametrize("n, l", [(4, 1.5), (4, True), (4.0, 2)])
    def test_non_integer_arguments(self, n, l):
        with pytest.raises(InputError, match="must be an integer"):
            make_dicke(n, l)

    def test_no_bloch_vectors(self):
        with pytest.raises(InputError, match="n_qubits must be >= 1"):
            states.make_product_density([])


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDickeBuildersMatchReference:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_bit_identical_to_the_combinations_builders(self, n):
        for l in range(n + 1):
            assert (make_dicke(n, l).amplitudes.tobytes()
                    == states_reference.make_dicke(n, l).amplitudes.tobytes())
            assert (make_phased_dicke(n, l).amplitudes.tobytes()
                    == states_reference.make_phased_dicke(n, l).amplitudes.tobytes())

    @pytest.mark.parametrize("build", [make_dicke, make_phased_dicke])
    def test_no_site_table_at_sixteen_qubits(self, build):
        # the 1 MB amplitudes plus length-2^16 integer arrays; the C(16, 8) site tuples, their
        # array and the StateVector copy took 3.6 MB
        assert _traced_peak(lambda: build(16, 8)) <= 2.5 * 2 ** 20


class TestNormInChunks:
    @staticmethod
    def _registers(n):
        rng = np.random.default_rng(n)
        normals = rng.standard_normal((2, 2 ** n))
        drawn = normals[0] + 1j * normals[1]
        yield drawn  # off norm
        yield drawn / np.linalg.norm(drawn)
        yield (1.0 + 1e-9) * drawn / np.linalg.norm(drawn)
        for l in range(n + 1):
            yield make_dicke(n, l).amplitudes

    @pytest.mark.parametrize("n", range(1, 17))
    def test_equals_the_whole_array_sum(self, n):
        for amps in self._registers(n):
            assert states._norm_sq(amps) == float(np.sum(np.abs(amps) ** 2))

    @pytest.mark.parametrize("n", [14, 15, 16])
    def test_not_normalized_message_prints_the_whole_array_sum(self, n):
        amps = next(self._registers(n))
        with pytest.raises(InputError) as info:
            StateVector(n, amps)
        assert str(info.value) == (f"state not normalized: sum |amp|^2 = "
                                   f"{float(np.sum(np.abs(amps) ** 2))!r}")

    @pytest.mark.parametrize("n", [15, 16])
    def test_non_finite_amplitude_in_a_later_chunk(self, n):
        amps = make_dicke(n, 1).amplitudes.copy()
        amps[-1] = math.inf
        with pytest.raises(InputError, match="^amplitudes must be finite$"):
            StateVector._adopt(n, amps)

    def test_adopting_check_holds_no_register_sized_temporary(self):
        # 2^14-entry chunks; the whole-register bool and float temporaries took 0.50 MB
        amps = make_dicke(16, 8).amplitudes.copy()
        assert _traced_peak(lambda: StateVector._adopt(16, amps)) < 0.5 * 2 ** 20


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

    @pytest.mark.parametrize("n_qubits, size, index", [(2, 3000, 2500), (6, 64, 5)])
    @pytest.mark.parametrize("corrupt", [
        lambda m: m.__setitem__((0, 1), math.nan),
        lambda m: m.__setitem__((1, 0), 2e-12),
        lambda m: m.__imul__(2.0),
    ], ids=["non-finite", "non-hermitian", "trace-2"])
    def test_stack_check_raises_the_error_of_its_matrix(self, n_qubits, size, index, corrupt):
        # one matrix of a stack, in a later block of whole matrices (N = 2) or of rows (N = 6)
        stack = np.repeat(np.eye(2 ** n_qubits, dtype=complex)[None] / 2 ** n_qubits, size, 0)
        corrupt(stack[index])
        with pytest.raises(InputError) as one:
            DensityMatrix(n_qubits, stack[index])
        with pytest.raises(InputError) as stacked:
            states._check_stack(stack)
        assert str(stacked.value) == str(one.value)

    @pytest.mark.parametrize("row, col", [(300, 5), (5, 300), (511, 510)])
    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_entry_raises_before_an_earlier_non_hermitian_one(self, row, col, bad):
        # N = 9: the first row block is not Hermitian, a later one (or its mirror) not finite
        mat = np.eye(512, dtype=complex) / 512
        mat[0, 1] = 1e-3
        mat[row, col] = mat[col, row] = bad
        with pytest.raises(InputError, match="^density-matrix entries must be finite$"):
            states._check_stack(mat[None])
        mat[row, col] = 0.0
        with pytest.raises(InputError, match="^density-matrix entries must be finite$"):
            states._check_stack(mat[None])

    def test_stack_check_holds_no_matrix_sized_bool(self):
        # 64 x 64 tiles beside the 16 MB entries; np.isfinite's 1 MB bool took it to 1.0 MB, and
        # 2^14-entry row blocks, each with its conjugated mirror, to 0.63 MB
        stack = mix_with_white_noise(make_dicke(10, 5), 0.1).entries[None]
        assert _traced_peak(lambda: states._check_stack(stack)) <= 0.3 * 2 ** 20

    @staticmethod
    def _defects(dim):
        """{(row, col): added value} per crafted defect: on and beside the 64 x 64 tile edges,
        below and above HERMITIAN_ATOL = 1e-12."""
        edges = sorted({0, 63, 64, dim // 2, dim - 65, dim - 64, dim - 1})
        lower = [(row, col) for row in edges for col in edges if row > col]
        for row, col in lower:
            yield {(row, col): 5e-13}
            yield {(row, col): 2e-12}  # lower triangle only
            yield {(0, dim - 1): 1e-3, (row, col): math.nan}  # the non-finite message wins
        for row in edges:
            yield {(row, row): 4e-13j}
            yield {(row, row): 2e-12j}  # an imaginary diagonal entry
        yield {(dim - 1, 0): math.inf, (1, 0): 1e-3}

    @pytest.mark.parametrize("n", [7, 9, 10])
    def test_tiled_check_gives_the_row_block_verdicts(self, n):
        def verdict(check, stack):
            try:
                check(stack)
            except InputError as exc:
                return str(exc)
            return None

        stack = mix_with_white_noise(make_dicke(n, n // 2), 0.1).entries.copy()[None]
        seen = set()
        for defect in self._defects(2 ** n):
            saved = {at: stack[0][at] for at in defect}
            for at, value in defect.items():
                stack[0][at] += value
            want = verdict(states_reference.check_stack, stack)
            assert verdict(states._check_stack, stack) == want, defect
            seen.add(want)
            for at, value in saved.items():
                stack[0][at] = value
        assert seen == {None, "matrix is not Hermitian", "density-matrix entries must be finite"}

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

    @pytest.mark.parametrize("factorization", ["cholesky", "eigvalsh fallback"])
    def test_psd_tolerance_boundary(self, rng, factorization, monkeypatch):
        # smallest eigenvalue -PSD_ATOL/2 passes and -2 PSD_ATOL fails, whether the shifted
        # Cholesky factorization decides or fails and leaves the verdict to eigvalsh
        def no_factor(matrix):
            raise np.linalg.LinAlgError("forced")

        if factorization != "cholesky":
            monkeypatch.setattr(np.linalg, "cholesky", no_factor)
        unitary = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))[0]
        for scale, accepted in ((0.5, True), (2.0, False)):
            low = -scale * states.PSD_ATOL
            eigenvalues = np.array([low, *np.full(7, (1.0 - low) / 7)])
            mat = (unitary * eigenvalues) @ unitary.conj().T
            mat = (mat + mat.conj().T) / 2
            assert np.linalg.eigvalsh(mat)[0] == pytest.approx(low, abs=1e-14)
            if accepted:
                assert np.array_equal(DensityMatrix(3, mat).entries, mat)
            else:
                with pytest.raises(InputError,
                                   match="^matrix has a significantly negative eigenvalue$"):
                    DensityMatrix(3, mat)

    def test_constructor_peak_is_two_matrices(self, rng):
        # the constructor's copy and Cholesky's factor: factoring a shifted second copy of the
        # entries took the peak to 3.0 times their bytes
        mat = mix_with_white_noise(random_pure(rng, 9), 0.25).entries.copy()
        tracemalloc.start()
        try:
            rho = DensityMatrix(9, mat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(rho.entries, mat)
        assert peak < 2.5 * mat.nbytes

    def test_builders_skip_only_the_eigenvalue_check(self, rng, monkeypatch):
        # PSD by construction: no Cholesky factor and no eigvalsh, while the public
        # constructor keeps the check
        def forbidden(*args, **kwargs):
            raise AssertionError("PSD check called")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        monkeypatch.setattr(np.linalg, "cholesky", forbidden)
        rho = make_product_density([(0.0, 0.6, 0.8), (1.0, 0.0, 0.0)])
        noisy = mix_with_white_noise(random_pure(rng, 3), 0.25)
        for built in (rho, noisy):
            assert not built.entries.flags.writeable
            with pytest.raises(AssertionError, match="PSD check"):
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

    @pytest.mark.parametrize("n_qubits", [2.9, 2.0, True, "2"],
                             ids=["fraction", "integral-float", "bool", "str"])
    def test_rejects_non_integer_qubit_count(self, n_qubits):
        # the count reaches the checked size rule as read, not truncated by int() first
        payload = {"n_qubits": n_qubits, "terms": [{"basis": "00", "re": 1.0, "im": 0.0}]}
        with pytest.raises(InputError, match="n_qubits must be an integer"):
            from_json(json.dumps(payload))

    @pytest.mark.parametrize("part", ["re", "im"])
    def test_rejects_non_real_amplitude_part(self, part):
        term = {"basis": "0", "re": 1.0, "im": 0.0}
        term[part] = str(term[part])
        with pytest.raises(InputError, match=f"malformed state JSON.*{part} must be finite"):
            from_json(json.dumps({"n_qubits": 1, "terms": [term]}))
