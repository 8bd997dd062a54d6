"""State families for multi-qubit entanglement detection.

Provides computational basis states, Dicke states ``|N,l>``, phased Dicke
states (alternating signs by transposition parity), two four-qubit
superposition families, Bloch-parameterized product density matrices and
global white-noise admixtures, plus a JSON serialization for sparse state
exchange.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InputError, ResourceError

#: Default cap on dense state-vector size (2**MAX_QUBITS amplitudes).
#: Reassign the module attribute to work above it.
MAX_QUBITS = 16

#: Cap for dense density matrices (2**n x 2**n entries).
DENSITY_MAX_QUBITS = 12

#: Cap for witness.sigma_operator (4**n complex entries) and for the cut see-saw.
OPERATOR_MAX_QUBITS = 12

NORM_ATOL = 1e-12
HERMITIAN_ATOL = 1e-12
PSD_ATOL = 1e-10

#: Norm slack below which the JSON reader renormalizes instead of rejecting.
SERIALIZATION_NORM_ATOL = 1e-9


def _check_size(n_qubits: int, name: str = "MAX_QUBITS") -> None:
    """Reject n_qubits < 1 or above the cap `name`; builders call this before allocating.

    The caps are read at call time, so reassigning them takes effect at once.
    """
    if n_qubits < 1:
        raise InputError("n_qubits must be positive")
    cap = globals()[name]
    if n_qubits > cap:
        raise ResourceError(f"{n_qubits} qubits exceeds the cap {name} = {cap} "
                            f"(raise states.{name} to override)")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state of `n_qubits` qubits.

    ``amplitudes[b]`` belongs to the basis ket whose binary expansion of
    ``b`` (`n_qubits` digits) reads qubit 1 .. qubit N left to right.
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_size(self.n_qubits)
        amps = np.asarray(self.amplitudes, dtype=complex).copy()
        if amps.shape != (2 ** self.n_qubits,):
            raise InputError(
                f"expected {2 ** self.n_qubits} amplitudes, got shape {amps.shape}")
        if not np.isfinite(amps).all():
            raise InputError("amplitudes must be finite")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > NORM_ATOL:
            raise InputError(f"state not normalized: sum |amp|^2 = {norm_sq!r}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on `n_qubits`."""

    n_qubits: int
    entries: np.ndarray

    def __post_init__(self):
        mat = _checked_entries(self.n_qubits, self.entries)
        if float(np.linalg.eigvalsh(mat)[0]) < -PSD_ATOL:
            raise InputError("matrix has a significantly negative eigenvalue")
        object.__setattr__(self, "entries", mat)

    @classmethod
    def _psd_by_construction(cls, n_qubits: int, entries) -> "DensityMatrix":
        """All checks of the constructor but the eigenvalue one, for builders whose
        output is positive semidefinite by construction; takes their fresh array uncopied."""
        rho = object.__new__(cls)
        object.__setattr__(rho, "n_qubits", n_qubits)
        object.__setattr__(rho, "entries", _checked_entries(n_qubits, entries, copy=False))
        return rho

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits


def _checked_entries(n_qubits: int, entries, copy: bool = True) -> np.ndarray:
    """Read-only `entries` (copied if `copy`), checked for size, finiteness, Hermiticity, trace."""
    _check_size(n_qubits, "DENSITY_MAX_QUBITS")
    dim = 2 ** n_qubits
    mat = (np.array if copy else np.asarray)(entries, dtype=complex)
    if mat.shape != (dim, dim):
        raise InputError(f"expected shape {(dim, dim)}, got {mat.shape}")
    if not np.isfinite(mat).all():
        raise InputError("density-matrix entries must be finite")
    rows = max(1, (1 << 14) // dim)  # row blocks of 2**14 entries keep the temporaries small
    if max(np.max(np.abs(mat[i:i + rows] - mat[:, i:i + rows].conj().T))
           for i in range(0, dim, rows)) > HERMITIAN_ATOL:
        raise InputError("matrix is not Hermitian")
    tr = complex(np.trace(mat))
    if abs(tr - 1.0) > NORM_ATOL:
        raise InputError(f"trace must be 1, got {tr!r}")
    mat.flags.writeable = False
    return mat


@dataclass(frozen=True)
class BlochVector:
    """Single-qubit state as a real 3-vector of Pauli expectations."""

    n_x: float
    n_y: float
    n_z: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.n_x, self.n_y, self.n_z))):
            raise InputError(f"Bloch vector components must be finite: {self}")
        if self.norm_sq() > 1.0 + 1e-12:
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
    return StateVector(n_qubits, amps)


def _excitations(n_qubits: int, l: int) -> tuple[np.ndarray, np.ndarray]:
    """Excited sites (0-based) of each weight-l basis state, one row each, and its index."""
    _check_size(n_qubits)
    if not 0 <= l <= n_qubits:
        raise InputError(f"need 0 <= l <= {n_qubits}, got l={l}")
    sites = np.array(list(itertools.combinations(range(n_qubits), l)), dtype=int)
    return sites, kernels.site_masks(n_qubits)[sites].sum(axis=1)


def make_dicke(n_qubits: int, l: int) -> StateVector:
    """Dicke state |N,l>: equal superposition of all weight-l basis states."""
    _, index = _excitations(n_qubits, l)
    amps = np.zeros(2 ** n_qubits, dtype=complex)
    amps[index] = 1.0 / math.sqrt(math.comb(n_qubits, l))
    return StateVector(n_qubits, amps)


def make_phased_dicke(n_qubits: int, l: int) -> StateVector:
    """Dicke state with signs alternating by transposition parity.

    The sign of a weight-l basis state is +1 iff it is reachable from the
    reference ``1^l 0^(N-l)`` by an even number of adjacent transpositions.
    Each transposition of unequal neighbors moves one excitation by one
    position, so the parity equals the parity of the total displacement:
    the sum of the (0-indexed, left-to-right) positions of the 1-bits,
    relative to the reference value l(l-1)/2.
    """
    sites, index = _excitations(n_qubits, l)
    amps = np.zeros(2 ** n_qubits, dtype=complex)
    amp = 1.0 / math.sqrt(math.comb(n_qubits, l))
    amps[index] = np.where(sites.sum(axis=1) % 2 == (l * (l - 1) // 2) % 2, amp, -amp)
    return StateVector(n_qubits, amps)


def _plus_ghz_branch(amps: np.ndarray, theta: float, s: float) -> StateVector:
    """The four-qubit state amps + s sin(theta) (|0000> + |1111>)/sqrt(2)."""
    amps[[basis_index(4, "0000"), basis_index(4, "1111")]] += s * math.sin(theta) / math.sqrt(2)
    return StateVector(4, amps)


def make_ghz_superposition(theta: float, sign=+1) -> StateVector:
    """Four-qubit superposition of two GHZ-type branches.

    cos(theta) (|0011> + |1100>)/sqrt(2) +/- sin(theta) (|0000> + |1111>)/sqrt(2).
    The two branches are orthogonal, so the state is normalized for every
    theta.
    """
    s = _sign_factor(sign)
    amps = np.zeros(16, dtype=complex)
    amps[[basis_index(4, "0011"), basis_index(4, "1100")]] = math.cos(theta) / math.sqrt(2)
    return _plus_ghz_branch(amps, theta, s)


def make_dicke_ghz_superposition(theta: float, sign=+1) -> StateVector:
    """cos(theta)|4,2> +/- sin(theta)(|0000> + |1111>)/sqrt(2)."""
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
    if not blochs:
        raise InputError("need at least one Bloch vector")
    _check_size(len(blochs), "DENSITY_MAX_QUBITS")
    vectors = [(b.n_x, b.n_y, b.n_z) for b in blochs]
    factors = 0.5 * (np.eye(2) + np.einsum("na,aij->nij", vectors, _PAULI))
    rho = factors[0]
    for one in factors[1:]:  # the Kronecker product rho (x) one, by broadcasting
        rho = (rho[:, None, :, None] * one[None, :, None, :]).reshape(2 * len(rho), -1)
    return DensityMatrix._psd_by_construction(len(blochs), rho)


def mix_with_white_noise(state: StateVector, p: float) -> DensityMatrix:
    """p * identity/2^N + (1-p) |psi><psi|."""
    if not 0.0 <= p <= 1.0:
        raise InputError(f"noise fraction must be in [0, 1], got {p}")
    _check_size(state.n_qubits, "DENSITY_MAX_QUBITS")
    rho = np.outer(state.amplitudes, state.amplitudes.conj())
    rho *= 1.0 - p
    rho.flat[::state.dim + 1] += p / state.dim
    return DensityMatrix._psd_by_construction(state.n_qubits, rho)


def random_state_vector(n_qubits: int, rng: np.random.Generator) -> StateVector:
    """Haar-like random pure state: normalized complex-normal amplitudes."""
    _check_size(n_qubits)
    amps = rng.standard_normal(2 ** n_qubits) + 1j * rng.standard_normal(2 ** n_qubits)
    return StateVector(n_qubits, amps / np.linalg.norm(amps))


def to_json(state: StateVector) -> str:
    """Serialize the nonzero amplitudes of a state."""
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
    if not isinstance(data, dict) or "n_qubits" not in data or "terms" not in data:
        raise InputError("state JSON must be an object with n_qubits and terms")
    try:
        n = int(data["n_qubits"])
        terms = [(term["basis"], float(term["re"]) + 1j * float(term["im"]))
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
    return StateVector(n, amps / norm)
