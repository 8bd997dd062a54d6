"""Two-point Pauli correlators, collective-spin moments, and the static
structure factor.

`correlation_matrices` reads every <a_i a_j> of each asked axis off one
readout setting, E^T diag(p_a) E, with p_a the outcome distribution in the
rotated basis and E the 2**n x n matrix of +-1 eigenvalues
(`kernels.outcome_signs`); density matrices share one real trace gather for
x and y. States are immutable, so each state memoizes its readout
distributions and correlation matrices: every evaluation of one state (any
k, c, threshold or shot estimate) shares one rotation per axis, and the
returned arrays are read-only. `two_point` uses `kernels.pair_expectation`.
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


def _real(value: complex) -> float:
    if abs(value.imag) > IMAG_ATOL:
        raise ArithmeticError(f"expectation has imaginary residue {value.imag!r}")
    return float(value.real)


def _array(state) -> np.ndarray:
    """Amplitudes of a pure state or entries of a density matrix."""
    if isinstance(state, StateVector):
        return state.amplitudes
    if isinstance(state, DensityMatrix):
        return state.entries
    raise InputError(f"unsupported state type {type(state).__name__}")


def _memo(state) -> dict:
    """The state's read-only readout distributions and correlation matrices, by (kind, axis)."""
    return vars(state).setdefault("_memo", {})


def two_point(state, i: int, j: int, a: str, b: str) -> float:
    """<sigma_i^a sigma_j^b> for a pure state or density matrix."""
    if not (1 <= i < j <= state.n_qubits):
        raise InputError(f"need 1 <= i < j <= {state.n_qubits}, got i={i}, j={j}")
    return _real(kernels.pair_expectation(_array(state), state.n_qubits, i, j, a, b))


def _collective_square(state, weights, a: str) -> float:
    """<A^2> of the site-weighted collective spin A = sum_j weights[j] sigma_j^a through A itself,
    not pair sums: |A psi|^2, or Tr(A phi) with phi = A rho, read off one diagonal gather per
    site, sum_c coef_j[c] phi[c ^ m_j, c]."""
    kernels.check_axis(a)
    arr, n = _array(state), state.n_qubits
    phi = np.zeros_like(arr)
    for site, weight in enumerate(weights, 1):
        phi += weight * kernels.apply_pauli(arr, n, site, a)
    if arr.ndim == 1:
        return float(np.real(np.vdot(phi, phi)))
    idx, trace = np.arange(1 << n), 0j
    for site, weight in enumerate(weights, 1):
        flip, coef = kernels.pauli_action(n, site, a)
        trace += weight * np.sum(coef * phi[idx ^ flip, idx])
    return _real(trace)


def collective_spin_sq(state, a: str) -> float:
    """<J_a^2>, J_a = (1/2) sum_j sigma_j^a, computed through the collective operator."""
    return _collective_square(state, [0.5] * state.n_qubits, a)


def readout_probabilities(state, axis: str) -> np.ndarray:
    """Outcome distribution of reading every qubit in `axis` (density matrices: z only),
    memoized on the state."""
    kernels.check_axis(axis)
    if not (isinstance(state, StateVector) or isinstance(state, DensityMatrix) and axis == "z"):
        raise InputError(f"no {axis} readout of a {type(state).__name__}")
    memo = _memo(state)
    if ("readout", axis) not in memo:
        if isinstance(state, DensityMatrix):
            probs = np.diagonal(state.entries).real
        else:
            psi = state.amplitudes
            if axis != "z":
                # each contraction rotates qubit order by one; n of them restore it
                psi, gate = psi.reshape((2,) * state.n_qubits), _ROTATIONS[axis]
                for _ in range(state.n_qubits):
                    psi = np.tensordot(psi, gate, axes=(0, 1))
            probs = np.abs(psi.reshape(-1)) ** 2
        probs.flags.writeable = False
        memo["readout", axis] = probs
    return memo["readout", axis]


def correlation_matrices(state, axes) -> dict:
    """{a: axis_correlations(state, a)} for the sequence `axes`, memoized on the state. Every
    axis is checked first; the missing ones share one sign table E: density matrices read x and
    y off one real trace gather rho[c ^ m_i ^ m_j, c], scaled by -z_i z_j for y; pure states and
    z use E^T diag(p_a) E, p_a the readout distribution."""
    arr, n = _array(state), state.n_qubits
    for axis in axes:
        kernels.check_axis(axis)
    memo, flipped = _memo(state), None
    missing = [axis for axis in axes if ("corr", axis) not in memo]
    signs = kernels.outcome_signs(n) if missing else None
    for axis in missing:
        if arr.ndim == 2 and axis != "z":
            if flipped is None:
                masks, idx = kernels.site_masks(n), np.arange(1 << n)
                flipped = arr[(masks[:, None] ^ masks)[..., None] ^ idx, idx].real
            corr = (flipped if axis == "x" else flipped * (signs[:, None] * -signs)).sum(axis=-1)
        else:
            corr = (signs * readout_probabilities(state, axis)) @ signs.T
            corr = 0.5 * (corr + corr.T)  # symmetrized against rounding in the matmul
        np.fill_diagonal(corr, 1.0)
        corr.flags.writeable = False
        memo["corr", axis] = corr
    return {axis: memo["corr", axis] for axis in axes}


def axis_correlations(state, axis: str) -> np.ndarray:
    """Symmetric n x n matrix of <sigma_i^a sigma_j^a> (unit diagonal), read-only."""
    return correlation_matrices(state, (axis,))[axis]


def structure_factor(state, k: float, a: str, b: str, layout: SiteLayout | None = None) -> complex:
    """sum_{i<j} exp(i k (r_j - r_i)) <sigma_i^a sigma_j^b>."""
    if not math.isfinite(k):
        raise InputError(f"k must be finite, got {k}")
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


def verify_collective_identity(state, a: str, k: float = 0.0,
                               layout: SiteLayout | None = None) -> tuple[float, float]:
    """Evaluate sum_{i<j} cos(k m_ij) <s_i^a s_j^a> two ways, as (pair_route, collective_route):
    the pair sum, and (<(U^a)^2> + <(V^a)^2> - N)/2 = (|S^a(k)|^2 - N)/2 with U^a = sum_j
    cos(k r_j) s_j^a and V^a = sum_j sin(k r_j) s_j^a. The two agree for every state."""
    lhs = structure_factor(state, k, a, a, layout).real
    pos = k * np.asarray((layout or SiteLayout.unit_spacing(state.n_qubits)).positions)
    u_sq, v_sq = (_collective_square(state, part(pos), a) for part in (np.cos, np.sin))
    return lhs, (u_sq + v_sq - state.n_qubits) / 2.0
