"""Two-point Pauli correlators, collective-spin moments, and the static
structure factor.

`correlation_matrices` reads every <a_i a_j> of each asked axis off one
readout setting, E^T diag(p_a) E, with p_a the outcome distribution in the
rotated basis and E the 2**n x n matrix of +-1 eigenvalues
(`kernels.outcome_signs`); density matrices share one real trace gather for
x and y, over the bit masks of `kernels.site_masks`. `two_point` (any two
axes) uses `kernels.pair_expectation`.
Spin operators are bare Pauli matrices (no 1/2), so a Dicke state |N,l>
gives sum_{i<j} <x_i x_j> = l(N-l) at k = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InputError
from .states import DensityMatrix, StateVector

IMAG_ATOL = 1e-10

# basis-change gates: measuring sigma^a equals measuring sigma^z after U_a
_ROTATIONS = {"x": np.array([[1, 1], [1, -1]]) / math.sqrt(2.0),
              "y": np.array([[1, -1j], [1, 1j]]) / math.sqrt(2.0)}


@dataclass(frozen=True)
class SiteLayout:
    """Spin positions along a chain, in units of the lattice spacing."""

    positions: tuple

    def __post_init__(self):
        pos = tuple(float(r) for r in self.positions)
        if len(pos) < 1:
            raise InputError("layout needs at least one site")
        if not all(map(math.isfinite, pos)) or any(b <= a for a, b in zip(pos, pos[1:])):
            raise InputError(f"site positions must be finite and strictly increasing, got {pos}")
        object.__setattr__(self, "positions", pos)

    @classmethod
    def unit_spacing(cls, n_sites: int) -> "SiteLayout":
        return cls(tuple(float(i) for i in range(n_sites)))

    def separation(self, i: int, j: int) -> float:
        """r_j - r_i for 1-based site labels."""
        return self.positions[j - 1] - self.positions[i - 1]

    def __len__(self) -> int:
        return len(self.positions)


def _check_pair(n_qubits: int, i: int, j: int) -> None:
    if not (1 <= i < j <= n_qubits):
        raise InputError(f"need 1 <= i < j <= {n_qubits}, got i={i}, j={j}")


def _real(value: complex) -> float:
    if abs(value.imag) > IMAG_ATOL:
        raise ArithmeticError(f"expectation has imaginary residue {value.imag!r}")
    return float(value.real)


def two_point(state, i: int, j: int, a: str, b: str) -> float:
    """<sigma_i^a sigma_j^b> for a pure state or density matrix."""
    _check_pair(state.n_qubits, i, j)
    if isinstance(state, StateVector):
        arr = state.amplitudes
    elif isinstance(state, DensityMatrix):
        arr = state.entries
    else:
        raise InputError(f"unsupported state type {type(state).__name__}")
    return _real(kernels.pair_expectation(arr, state.n_qubits, i, j, a, b))


def _apply_collective_spin(arr: np.ndarray, n_qubits: int, a: str) -> np.ndarray:
    """J_a = (1/2) sum_i sigma_i^a applied to axis 0."""
    out = np.zeros_like(arr, dtype=complex)
    for site in range(1, n_qubits + 1):
        out += kernels.apply_pauli(arr, n_qubits, site, a)
    return 0.5 * out


def collective_spin_sq(state, a: str) -> float:
    """<J_a^2>, computed through the collective operator (not pair sums)."""
    kernels.check_axis(a)
    n = state.n_qubits
    if isinstance(state, StateVector):
        phi = _apply_collective_spin(state.amplitudes, n, a)
        return float(np.real(np.vdot(phi, phi)))
    if isinstance(state, DensityMatrix):
        jjrho = _apply_collective_spin(_apply_collective_spin(state.entries, n, a), n, a)
        return _real(complex(np.trace(jjrho)))
    raise InputError(f"unsupported state type {type(state).__name__}")


def readout_probabilities(state, axis: str) -> np.ndarray:
    """Outcome distribution of reading every qubit in `axis` (density matrices: z only)."""
    kernels.check_axis(axis)
    if isinstance(state, DensityMatrix) and axis == "z":
        return np.diagonal(state.entries).real
    if not isinstance(state, StateVector):
        raise InputError(f"no {axis} readout of a {type(state).__name__}")
    amps = state.amplitudes
    if axis != "z":
        # each contraction rotates qubit order by one; n of them restore it
        psi = amps.reshape((2,) * state.n_qubits)
        for _ in range(state.n_qubits):
            psi = np.tensordot(psi, _ROTATIONS[axis], axes=(0, 1))
        amps = psi.reshape(-1)
    return np.abs(amps) ** 2


def correlation_matrices(state, axes) -> dict:
    """{a: axis_correlations(state, a)} for the sequence `axes`, from one sign table E: density
    matrices read x and y off one real trace gather rho[c ^ m_i ^ m_j, c], scaled by -z_i z_j
    for y; pure states and z use E^T diag(p_a) E, p_a the readout distribution."""
    if not isinstance(state, (StateVector, DensityMatrix)):
        raise InputError(f"unsupported state type {type(state).__name__}")
    n = state.n_qubits
    signs, flipped, out = kernels.outcome_signs(n), None, {}
    for axis in axes:
        kernels.check_axis(axis)
        if isinstance(state, DensityMatrix) and axis != "z":
            if flipped is None:
                masks, idx = kernels.site_masks(n), np.arange(1 << n)
                flipped = state.entries[(masks[:, None] ^ masks)[..., None] ^ idx, idx].real
            corr = (flipped if axis == "x" else flipped * (signs[:, None] * -signs)).sum(axis=-1)
        else:
            corr = (signs * readout_probabilities(state, axis)) @ signs.T
            corr = 0.5 * (corr + corr.T)  # symmetrized against rounding in the matmul
        np.fill_diagonal(corr, 1.0)
        out[axis] = corr
    return out


def axis_correlations(state, axis: str) -> np.ndarray:
    """Symmetric n x n matrix of <sigma_i^a sigma_j^a> (unit diagonal)."""
    return correlation_matrices(state, (axis,))[axis]


def structure_factor(state, k: float, a: str, b: str, layout: SiteLayout | None = None) -> complex:
    """sum_{i<j} exp(i k (r_j - r_i)) <sigma_i^a sigma_j^b>."""
    n = state.n_qubits
    layout = layout or SiteLayout.unit_spacing(n)
    if len(layout) != n:
        raise InputError(f"layout has {len(layout)} sites for a {n}-qubit state")
    rows, cols = np.triu_indices(n, 1)
    if a == b:
        corr = axis_correlations(state, a)[rows, cols]
    else:
        corr = np.array([two_point(state, i + 1, j + 1, a, b) for i, j in zip(rows, cols)])
    pos = np.asarray(layout.positions)
    return complex(np.sum(np.exp(1j * k * (pos[cols] - pos[rows])) * corr))


def verify_collective_identity(state, a: str) -> tuple[float, float]:
    """Evaluate sum_{i<j} <s_i^a s_j^a> both ways: pair sum vs (4 J_a^2 - N)/2.

    Returns (pair_route, collective_route); the two agree for every state.
    """
    lhs = structure_factor(state, 0.0, a, a).real
    rhs = (4.0 * collective_spin_sq(state, a) - state.n_qubits) / 2.0
    return lhs, rhs
