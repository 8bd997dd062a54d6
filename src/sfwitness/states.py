"""State families for multi-qubit entanglement detection.

Provides computational basis states, Dicke states ``|N,l>``, phased Dicke
states (alternating signs by transposition parity), two four-qubit
superposition families, Bloch-parameterized product density matrices and
global white-noise admixtures, plus a JSON serialization for sparse state
exchange.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InputError, ResourceError, _shown, check_integer, check_real, check_type

#: Default cap on dense state-vector size (2**MAX_QUBITS amplitudes).
#: Reassign the module attribute to work above it.
MAX_QUBITS = 16

#: Cap for dense density matrices (2**n x 2**n entries).
DENSITY_MAX_QUBITS = 12

#: Cap for witness.sigma_operator (4**n complex entries); for the cut see-saw, on run time.
OPERATOR_MAX_QUBITS = 12

#: Cap for noise.kraus_crosscheck, which applies the Kraus channel to a dense density matrix.
KRAUS_MAX_QUBITS = 8

#: Peak bytes of one stack of see-saw restarts, grid-oracle rows, check 06 states or scan_k rows.
_STACK_BYTES = 1 << 22

NORM_ATOL = 1e-12
HERMITIAN_ATOL = 1e-12
PSD_ATOL = 1e-10

#: Norm slack below which the JSON reader renormalizes instead of rejecting.
SERIALIZATION_NORM_ATOL = 1e-9


def _check_size(n_qubits: int, name: str = "MAX_QUBITS") -> int:
    """`n_qubits` as an int; reject it below 1 or above the cap `name`. Builders call this before
    allocating. The caps are read at call time, so reassigning them takes effect at once."""
    n_qubits = check_integer(n_qubits, "n_qubits", 1)
    cap = globals()[name]
    if n_qubits > cap:
        raise ResourceError(f"{_shown(n_qubits)} qubits exceeds the cap {name} = {cap} "
                            f"(raise states.{name})")
    return n_qubits


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state of `n_qubits` qubits.

    ``amplitudes[b]`` belongs to the basis ket whose binary expansion of
    ``b`` (`n_qubits` digits) reads qubit 1 .. qubit N left to right.
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _set_checked_amplitudes(self, self.n_qubits, self.amplitudes)

    @classmethod
    def _adopt(cls, n_qubits: int, amps) -> "StateVector":
        """All checks of the constructor, for builders' fresh arrays: takes them uncopied."""
        state = object.__new__(cls)
        _set_checked_amplitudes(state, n_qubits, amps, copy=False)
        return state

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits


def _set_checked_amplitudes(state, n_qubits: int, amplitudes, copy: bool = True) -> None:
    """Set `state`'s n_qubits and read-only `amplitudes` (copied if `copy`), checked for size,
    shape, finiteness and norm."""
    n_qubits = _check_size(n_qubits)
    amps = (np.array if copy else np.asarray)(amplitudes, dtype=complex)
    if amps.shape != (2 ** n_qubits,):
        raise InputError(f"expected {2 ** n_qubits} amplitudes, got shape {amps.shape}")
    norm_sq = _norm_sq(amps)
    if abs(norm_sq - 1.0) > NORM_ATOL:
        raise InputError(f"state not normalized: sum |amp|^2 = {norm_sq!r}")
    amps.flags.writeable = False
    object.__setattr__(state, "n_qubits", n_qubits)
    object.__setattr__(state, "amplitudes", amps)


def _norm_sq(amps: np.ndarray) -> float:
    """sum |amp|^2 of finite amplitudes (InputError if not), in chunks of 2**14: np.sum of each
    chunk, then the chunk sums added in halves, the order of np.sum's pairwise tree for the
    power-of-two lengths of a register."""
    chunks = [amps[i:i + (1 << 14)] for i in range(0, len(amps), 1 << 14)]
    if not all(np.isfinite(chunk).all() for chunk in chunks):
        raise InputError("amplitudes must be finite")
    sums = np.array([np.sum(np.abs(chunk) ** 2) for chunk in chunks])
    while len(sums) > 1:
        sums = sums[0::2] + sums[1::2]
    return float(sums[0])


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on `n_qubits`."""

    n_qubits: int
    entries: np.ndarray

    def __post_init__(self):
        _set_checked_entries(self, self.n_qubits, self.entries)

    @classmethod
    def _psd_by_construction(cls, n_qubits: int, entries) -> "DensityMatrix":
        """All checks of the constructor but the eigenvalue one, for builders whose
        output is positive semidefinite by construction; takes their fresh array uncopied."""
        rho = object.__new__(cls)
        _set_checked_entries(rho, n_qubits, entries, copy=False)
        return rho

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits


def _set_checked_entries(rho, n_qubits: int, entries, copy: bool = True) -> None:
    """Set `rho`'s n_qubits and read-only `entries`, checked for size, finiteness, Hermiticity and
    trace; if `copy`, copied and checked to be PSD (builders' arrays are so by construction)."""
    n_qubits = _check_size(n_qubits, "DENSITY_MAX_QUBITS")
    dim = 2 ** n_qubits
    mat = (np.array if copy else np.asarray)(entries, dtype=complex)
    if mat.shape != (dim, dim):
        raise InputError(f"expected shape {(dim, dim)}, got {mat.shape}")
    _check_stack(mat[None])
    if copy:  # a Cholesky factor of the copy + PSD_ATOL I (diagonal shifted in place) proves it
        diagonal = mat.diagonal().copy()
        try:
            try:
                mat.flat[::dim + 1] += PSD_ATOL
                np.linalg.cholesky(mat)
            finally:
                mat.flat[::dim + 1] = diagonal
        except np.linalg.LinAlgError:
            if float(np.linalg.eigvalsh(mat)[0]) < -PSD_ATOL:
                raise InputError("matrix has a significantly negative eigenvalue") from None
    mat.flags.writeable = False
    object.__setattr__(rho, "n_qubits", n_qubits)
    object.__setattr__(rho, "entries", mat)


def _check_stack(stack: np.ndarray) -> None:
    """InputError unless each matrix of the (B, d, d) stack is finite, Hermitian and unit-trace."""
    # small temporaries: stacks of whole matrices of up to 2**14 entries, or one matrix's 64 x 64
    # tiles (i, j >= i), each beside its mirror tile (j, i); |a_ij - conj(a_ji)| is exactly
    # |a_ji - conj(a_ij)|. Every tile is found finite before the Hermiticity verdict, so a
    # non-finite entry anywhere raises first.
    dim = stack.shape[-1]
    count, tile = max(1, (1 << 14) // dim ** 2), (dim if dim ** 2 <= 1 << 14 else 64)
    worst = 0.0
    for b in range(0, len(stack), count):
        for i in range(0, dim, tile):
            for j in range(i, dim, tile):
                block = stack[b:b + count, i:i + tile, j:j + tile]
                mirror = stack[b:b + count, j:j + tile, i:i + tile]
                if not (np.isfinite(block).all() and (j == i or np.isfinite(mirror).all())):
                    raise InputError("density-matrix entries must be finite")
                worst = max(worst, np.max(np.abs(block - mirror.conj().swapaxes(1, 2))))
    if worst > HERMITIAN_ATOL:
        raise InputError("matrix is not Hermitian")
    traces = np.trace(stack, axis1=1, axis2=2)
    off = np.abs(traces - 1.0) > NORM_ATOL
    if off.any():
        raise InputError(f"trace must be 1, got {complex(traces[np.argmax(off)])!r}")


@dataclass(frozen=True)
class BlochVector:
    """Single-qubit state as a real 3-vector of Pauli expectations."""

    n_x: float
    n_y: float
    n_z: float

    def __post_init__(self):
        for name in ("n_x", "n_y", "n_z"):  # within [-1, 1], so norm_sq cannot overflow
            value = check_real(getattr(self, name), f"Bloch vector {name}", -1, 1)
            object.__setattr__(self, name, value)
        if self.norm_sq() > 1.0 + NORM_ATOL:
            raise InputError(f"Bloch vector length exceeds 1: {self}")

    def norm_sq(self) -> float:
        return self.n_x ** 2 + self.n_y ** 2 + self.n_z ** 2


def _sign_factor(sign) -> float:
    if sign in (+1, "+", "+1"):
        return 1.0
    if sign in (-1, "-", "-1"):
        return -1.0
    raise InputError(f"sign must be +1/-1 or '+'/'-', got {sign!r}")


def basis_index(n_qubits: int, bits: str) -> int:
    """Basis index of the ket |bits>, qubit 1 leftmost."""
    if not isinstance(bits, str) or len(bits) != n_qubits or set(bits) - {"0", "1"}:
        raise InputError(f"bits must be a binary string of length {n_qubits}, got {bits!r}")
    return int(bits, 2)


def make_basis_state(n_qubits: int, bits: str) -> StateVector:
    """Computational basis state |bits>."""
    _check_size(n_qubits)
    amps = np.zeros(2 ** n_qubits, dtype=complex)
    amps[basis_index(n_qubits, bits)] = 1.0
    return StateVector._adopt(n_qubits, amps)


def make_dicke(n_qubits: int, l: int) -> StateVector:
    """Dicke state |N,l>: equal superposition of all weight-l basis states."""
    return _dicke(n_qubits, l, phased=False)


def make_phased_dicke(n_qubits: int, l: int) -> StateVector:
    """Dicke state with signs alternating by transposition parity.

    The sign of a weight-l basis state is +1 iff it is reachable from the
    reference ``1^l 0^(N-l)`` by an even number of adjacent transpositions.
    Each transposition of unequal neighbors moves one excitation by one
    position, so the parity equals the parity of the total displacement:
    the sum of the (0-indexed, left-to-right) positions of the 1-bits,
    relative to the reference value l(l-1)/2.
    """
    return _dicke(n_qubits, l, phased=True)


def _dicke(n_qubits: int, l: int, phased: bool) -> StateVector:
    """|N,l>, phased or not, from each basis index's excitation count and the parity of the sum
    of its excited sites' 0-based positions: the parity of its excited odd positions."""
    _check_size(n_qubits)
    check_integer(l, "l", 0, n_qubits)
    index = np.flatnonzero(_popcount(np.arange(2 ** n_qubits), n_qubits) == l)
    amps, amp = np.zeros(2 ** n_qubits, dtype=complex), 1.0 / math.sqrt(math.comb(n_qubits, l))
    if phased:
        odd = int(("01" * n_qubits)[:n_qubits], 2)  # the bits of the odd positions
        amp = np.where(_popcount(index & odd, n_qubits) % 2 != (l * (l - 1) // 2) % 2, -amp, amp)
    amps[index] = amp
    return StateVector._adopt(n_qubits, amps)


_BYTE_POPCOUNT = np.array([bin(byte).count("1") for byte in range(256)], dtype=np.uint8)


def _popcount(values: np.ndarray, bits: int) -> np.ndarray:
    """Set bits among the low `bits` bits of each non-negative integer: one lookup per byte."""
    count = np.zeros(len(values), np.uint8)
    for shift in range(0, bits, 8):
        count += _BYTE_POPCOUNT[(values >> shift) & 0xFF]
    return count


def _plus_ghz_branch(amps: np.ndarray, theta: float, s: float) -> StateVector:
    """The four-qubit state amps + s sin(theta) (|0000> + |1111>)/sqrt(2)."""
    amps[[basis_index(4, "0000"), basis_index(4, "1111")]] += s * math.sin(theta) / math.sqrt(2)
    return StateVector._adopt(4, amps)


def make_ghz_superposition(theta: float, sign=+1) -> StateVector:
    """Four-qubit superposition of two GHZ-type branches.

    cos(theta) (|0011> + |1100>)/sqrt(2) +/- sin(theta) (|0000> + |1111>)/sqrt(2).
    The two branches are orthogonal, so the state is normalized for every
    theta.
    """
    theta = check_real(theta, "theta")
    s = _sign_factor(sign)
    amps = np.zeros(16, dtype=complex)
    amps[[basis_index(4, "0011"), basis_index(4, "1100")]] = math.cos(theta) / math.sqrt(2)
    return _plus_ghz_branch(amps, theta, s)


def make_dicke_ghz_superposition(theta: float, sign=+1) -> StateVector:
    """cos(theta)|4,2> +/- sin(theta)(|0000> + |1111>)/sqrt(2)."""
    theta = check_real(theta, "theta")
    s = _sign_factor(sign)
    return _plus_ghz_branch(math.cos(theta) * make_dicke(4, 2).amplitudes, theta, s)


_PAULI = np.stack([kernels.apply_pauli(np.eye(2, dtype=complex), 1, 1, a) for a in kernels.AXES])


def _bloch_to_ket(points: np.ndarray) -> np.ndarray:
    """Pure single-qubit states |n> for unit Bloch vectors (batched)."""
    nz = np.clip(points[:, 2], -1.0, 1.0)
    a = np.sqrt((1.0 + nz) / 2.0)
    b = np.sqrt((1.0 - nz) / 2.0)
    phi = np.arctan2(points[:, 1], points[:, 0])
    return np.stack([a.astype(complex), b * np.exp(1j * phi)], axis=1)


def make_product_density(blochs) -> DensityMatrix:
    """Tensor product of single-qubit states (1 + n.sigma)/2."""
    blochs = [b if isinstance(b, BlochVector) else BlochVector(*b) for b in blochs]
    entries = _product_stack([[(b.n_x, b.n_y, b.n_z) for b in blochs]])[0]
    return DensityMatrix._psd_by_construction(len(blochs), entries)


def _product_stack(vectors) -> np.ndarray:
    """Unchecked (B, 2**N, 2**N) entries of the product densities of a (B, N, 3) stack of Bloch
    vectors; the first vector BlochVector would reject raises its InputError."""
    vectors = np.asarray(vectors, dtype=float)
    _check_size(vectors.shape[1], "DENSITY_MAX_QUBITS")
    x, y, z = np.moveaxis(vectors, -1, 0)
    rejected = (~(np.abs(vectors) <= 1.0).all(axis=-1)  # the arithmetic of BlochVector's checks
                | ((x ** 2 + y ** 2) + z ** 2 > 1.0 + NORM_ATOL))
    if rejected.any():
        BlochVector(*vectors[np.unravel_index(np.argmax(rejected), rejected.shape)].tolist())
    factors = 0.5 * (np.eye(2) + np.einsum("bna,aij->nbij", vectors, _PAULI))
    rho = factors[0]
    # the Kronecker product rho (x) one, by broadcasting; the operand order is part of the
    # result, since numpy's complex product is not bit-for-bit commutative
    for one in factors[1:]:
        rho = (rho[:, :, None, :, None] * one[:, None, :, None, :]).reshape(
            len(rho), 2 * rho.shape[1], -1)
    return rho


def mix_with_white_noise(state: StateVector, p: float) -> DensityMatrix:
    """p * identity/2^N + (1-p) |psi><psi|."""
    check_type(state, StateVector, "mix_with_white_noise")
    p = check_real(p, "noise fraction", 0, 1)
    _check_size(state.n_qubits, "DENSITY_MAX_QUBITS")
    rho = np.outer(state.amplitudes, state.amplitudes.conj())
    rho *= 1.0 - p
    rho.flat[::state.dim + 1] += p / state.dim
    return DensityMatrix._psd_by_construction(state.n_qubits, rho)


def random_state_vector(n_qubits: int, rng: np.random.Generator) -> StateVector:
    """Haar-like random pure state: normalized complex-normal amplitudes."""
    _check_size(n_qubits)
    return StateVector._adopt(n_qubits, _normalized_amplitudes(rng.standard_normal(2 << n_qubits)))


def _normalized_amplitudes(normals: np.ndarray) -> np.ndarray:
    """Complex amplitudes from the last axis of `normals`, real parts then imaginary parts, each
    row divided by its norm: a dot of its real parts plus one of its imaginary parts, per row,
    which rounds as np.linalg.norm does."""
    half = normals.shape[-1] // 2
    amps = normals[..., :half] + 1j * normals[..., half:]
    re, im = amps.real[..., None, :], amps.imag[..., None, :]
    return amps / np.sqrt(re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2))[..., 0]


def to_json(state: StateVector) -> str:
    """Serialize the nonzero amplitudes of a state."""
    check_type(state, StateVector, "to_json")
    terms = [
        {"basis": format(b, f"0{state.n_qubits}b"),
         "re": float(a.real), "im": float(a.imag)}
        for b, a in enumerate(state.amplitudes) if a != 0
    ]
    return json.dumps({"n_qubits": state.n_qubits, "terms": terms})


def from_json(text: str) -> StateVector:
    """Parse a serialized state; renormalizes tiny drift, rejects large."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid state JSON: {exc}") from exc
    try:
        n = data["n_qubits"]
        terms = [(term["basis"], check_real(term["re"], "re") + 1j * check_real(term["im"], "im"))
                 for term in data["terms"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed state JSON: {exc!r}") from exc
    _check_size(n)
    indices = [basis_index(n, basis) for basis, _ in terms]
    if len(set(indices)) < len(indices):
        raise InputError("state JSON lists a basis state twice")
    amps = np.zeros(2 ** n, dtype=complex)
    amps[indices] = [amp for _, amp in terms]
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) >= SERIALIZATION_NORM_ATOL:
        raise InputError(f"serialized state norm {norm!r} deviates too far from 1")
    return StateVector._adopt(n, amps / norm)
