"""Site layouts, two-point Pauli correlators, collective-spin moments, and the static structure
factor. Only `SiteLayout` turns positions and k, as `check_real`'s floats, into numbers.

`correlation_matrices` reads every <a_i a_j> of each asked axis off one
readout setting, E^T diag(p_a) E, with p_a the outcome distribution in the
rotated basis and E the 2**n x n matrix of +-1 eigenvalues
(`kernels.outcome_signs`); density matrices share one real trace gather for
x and y. States are immutable, so each state memoizes its rotated (x and y)
readout distributions and its correlation matrices: every evaluation of one
state (any k, c, threshold or shot estimate) shares one rotation per axis,
and the returned arrays are read-only; z is |amp|^2 or a diagonal view, read
afresh. `two_point` uses `kernels.pair_expectation`;
collective-spin moments of a density matrix read only the n 2**n entries of
A rho that Tr(A A rho) needs. Spin operators are bare Pauli matrices (no
1/2), so a Dicke state |N,l> gives sum_{i<j} <x_i x_j> = l(N-l) at k = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InputError, _shown, check_integer, check_real, check_type
from .states import DensityMatrix, StateVector

IMAG_ATOL = 1e-10

# basis-change gates: measuring sigma^a equals measuring sigma^z after U_a
_ROTATIONS = {"x": np.array([[1, 1], [1, -1]]) / math.sqrt(2.0),
              "y": np.array([[1, -1j], [1, 1j]]) / math.sqrt(2.0)}


@dataclass(frozen=True)
class SiteLayout:
    """Spin positions along a chain, in lattice spacings, and every number made of them and k."""

    positions: tuple

    def __post_init__(self):
        try:
            pos = iter(self.positions)
        except TypeError as exc:
            raise InputError(f"positions must be iterable, got {_shown(self.positions)}") from exc
        pos = tuple(check_real(r, "site position") for r in pos)
        if len(pos) < 1:
            raise InputError("layout needs at least one site")
        if not (math.isfinite(pos[-1] - pos[0]) and all(b > a for a, b in zip(pos, pos[1:]))):
            raise InputError(f"site positions must increase strictly, with finite separations, "
                             f"got {pos}")
        object.__setattr__(self, "positions", pos)

    @classmethod
    def checked(cls, layout: SiteLayout | None, n_sites: int, k: float) -> tuple[SiteLayout, float]:
        """(`layout` or unit spacing, k as check_k's float); InputError unless n_sites sites."""
        layout = cls.unit_spacing(n_sites) if layout is None else layout
        check_type(layout, cls, "the layout")
        if len(layout) != n_sites:
            raise InputError(f"layout has {len(layout)} sites for {n_sites} qubits")
        return layout, *layout.check_k((k,))

    @classmethod
    def unit_spacing(cls, n_sites: int) -> "SiteLayout":
        return cls(range(n_sites))

    def check_k(self, k_grid) -> list[float]:
        """The sequence `k_grid` as floats; InputError at the first k that is not real, else at the
        first, as given, whose product with the largest |r_i| and |r_j - r_i| is not finite."""
        reach = max(self.positions[-1] - self.positions[0], -self.positions[0], self.positions[-1])
        ks = [check_real(k, "k") for k in k_grid]
        bad = [given for given, k in zip(k_grid, ks) if not math.isfinite(abs(k) * reach)]
        if bad:
            raise InputError(f"k must be finite, also times each position and separation, "
                             f"got {bad[0]}")
        return ks

    def cos_sin(self, k: float) -> np.ndarray:
        """(2, n) array of cos(k r_j) and sin(k r_j), the two parts of the phases e^{i k r_j}."""
        phases = k * np.array(self.positions)
        return np.array([np.cos(phases), np.sin(phases)])

    def separations(self) -> np.ndarray:
        """n x n matrix of the separations r_j - r_i (row i, column j)."""
        pos = np.array(self.positions)
        return pos - pos[:, None]

    def weight_table(self, ks) -> np.ndarray:
        """C-ordered (K, n, n) stack of the zero-diagonal pair weights cos(|k| |r_j - r_i|), |k|
        for a bit-exact k -> -k, per k in `ks`: one math.cos per k and distinct separation."""
        columns = {0.0: 0}  # |r_j - r_i| -> column; 0 only on the diagonal, whose weight is 0
        slots = [[columns.setdefault(d, len(columns)) for d in row]
                 for row in np.abs(self.separations()).tolist()]
        values = np.array([[math.cos(abs(k) * d) if d else 0.0 for d in columns] for k in ks])
        return np.take(values, slots, axis=1)

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
    """The state's read-only x/y readout distributions and correlation matrices, by (kind, axis)."""
    return vars(state).setdefault("_memo", {})


def two_point(state, i: int, j: int, a: str, b: str) -> float:
    """<sigma_i^a sigma_j^b> for a pure state or density matrix."""
    arr = _array(state)
    check_integer(j, "site label j", 2, state.n_qubits)
    check_integer(i, "site label i", 1, j - 1)
    return _real(kernels.pair_expectation(arr, state.n_qubits, i, j, a, b))


def _collective_square(state, weights, a: str) -> float:
    """<A^2> of the site-weighted collective spin A = sum_j weights[j] sigma_j^a through A itself,
    not pair sums: |A psi|^2, or Tr(A phi) = sum_j w_j sum_c coef_j[c] g_j[c], phi = A rho, with
    g_j[c] = phi[c ^ m_j, c] = sum_i w_i coef_i[r] rho[r ^ m_i, c], r = c ^ m_j: n^2 2**n work."""
    arr, n = _array(state), state.n_qubits
    if arr.ndim == 1:
        phi = np.zeros_like(arr)
        for site, weight in enumerate(weights, 1):
            phi += weight * kernels.apply_pauli(arr, n, site, a)
        return float(np.real(np.vdot(phi, phi)))
    idx, trace = np.arange(1 << n), 0j
    actions = [kernels.pauli_action(n, site, a) for site in range(1, len(weights) + 1)]
    for (flip_j, coef_j), weight_j in zip(actions, weights):
        rows, g_j = idx ^ flip_j, np.zeros(idx.size, dtype=arr.dtype)
        for (flip_i, coef_i), weight_i in zip(actions, weights):
            term = arr[rows ^ flip_i, idx]  # x multiplies by nothing, as in apply_pauli
            g_j += weight_i * (term if a == "x" else coef_i[rows] * term)
        trace += weight_j * np.sum(coef_j * g_j)
    return _real(trace)


def collective_spin_sq(state, a: str) -> float:
    """<J_a^2>, J_a = (1/2) sum_j sigma_j^a, computed through the collective operator."""
    _array(state)
    return _collective_square(state, [0.5] * state.n_qubits, a)


def readout_probabilities(state, axis: str) -> np.ndarray:
    """Read-only outcome distribution of reading every qubit in `axis` (density matrices: z
    only); the rotated x and y distributions are memoized on the state."""
    kernels.check_axis(axis)
    if not (isinstance(state, StateVector) or isinstance(state, DensityMatrix) and axis == "z"):
        raise InputError(f"no {axis} readout of a {type(state).__name__}")
    if axis == "z":  # one pass, or a view: not worth the memory a memo entry holds
        probs = (np.diagonal(state.entries).real if isinstance(state, DensityMatrix)
                 else np.abs(state.amplitudes) ** 2)
        probs.flags.writeable = False
        return probs
    memo = _memo(state)
    if ("readout", axis) not in memo:
        psi, gate = state.amplitudes, _ROTATIONS[axis].T
        for _ in range(state.n_qubits):  # each rotates the leading qubit and moves it last
            psi = psi.reshape(2, -1).T @ gate
        probs = np.abs(psi.reshape(-1)) ** 2
        probs.flags.writeable = False
        memo["readout", axis] = probs
    return memo["readout", axis]


def correlation_matrices(state, axes) -> dict:
    """{a: axis_correlations(state, a)} for the sequence `axes`, memoized on the state. Every
    axis is checked first, and the missing ones share one sign table E: a density matrix is the
    one-element case of `_density_correlations`, a pure state gives E^T diag(p_a) E with p_a
    its readout distribution."""
    arr, n = _array(state), state.n_qubits
    for axis in axes:
        kernels.check_axis(axis)
    memo = _memo(state)
    missing = [axis for axis in axes if ("corr", axis) not in memo]
    signs = kernels.outcome_signs(n) if missing else None
    if arr.ndim == 2:
        found = _density_correlations(arr[None], signs, missing)
    else:
        found = {axis: _from_readout(signs, readout_probabilities(state, axis)) for axis in missing}
    for axis, corr in found.items():
        corr = corr.reshape(n, n)
        np.fill_diagonal(corr, 1.0)
        corr.flags.writeable = False
        memo["corr", axis] = corr
    return {axis: memo["corr", axis] for axis in axes}


def _density_correlations(stack: np.ndarray, signs: np.ndarray, axes) -> dict:
    """{a: (B, n, n) matrices of <a_i a_j>, diagonal unset} of a (B, 2**n, 2**n) stack of
    density matrices, in the order of `axes`, `signs` the n x 2**n sign table: x and y share
    one real trace gather rho[c ^ m_i ^ m_j, c], taken for groups of rows i of at most 2**14
    (i, j, c) entries and scaled by z_i and by -z_j for y; z reads the diagonal as a
    distribution."""
    found = dict.fromkeys(axes)
    if "z" in found:
        found["z"] = _from_readout(signs, np.diagonal(stack, axis1=1, axis2=2).real)
    paired = sorted(found.keys() & {"x", "y"})  # x sums each group's gather before y scales it
    if not paired:
        return found
    masks, idx = kernels.site_masks(len(signs)), np.arange(stack.shape[-1])
    n, d, floats = len(masks), len(idx), stack.reshape(len(stack), -1).view(float)
    for axis in paired:
        found[axis] = np.empty((len(stack), n, n))
    rows = min(n, max(1, (1 << 14) // (n * d)))
    table = np.empty((rows, n, d), int)  # one index table, refilled for each group of rows
    for i in range(0, n, rows):
        flat = table[:n - i]  # Re rho[r, c], r = c ^ m_i ^ m_j, sits at float 2 (r d + c)
        flat[...] = (masks[i:i + rows, None] ^ masks)[..., None]  # a copy needs no ufunc buffer
        flat ^= idx
        flat *= 2 * d
        flat += 2 * idx
        group = np.take(floats, flat, axis=1)
        for axis in paired:
            if axis == "y":  # exact: every factor is +-1
                group *= signs[i:i + rows, None]
                group *= -signs
            found[axis][:, i:i + rows] = group.sum(axis=-1)
    return found


def _from_readout(signs: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """E^T diag(p) E for readout distributions p of shape (..., 2**n), symmetrized against
    rounding in the matmul."""
    corr = (signs * probs[..., None, :]) @ signs.T
    return 0.5 * (corr + np.swapaxes(corr, -1, -2))


def axis_correlations(state, axis: str) -> np.ndarray:
    """Symmetric n x n matrix of <sigma_i^a sigma_j^a> (unit diagonal), read-only."""
    return correlation_matrices(state, (axis,))[axis]


def structure_factor(state, k: float, a: str, b: str, layout: SiteLayout | None = None) -> complex:
    """sum_{i<j} exp(i k (r_j - r_i)) <sigma_i^a sigma_j^b>."""
    _array(state)
    layout, k = SiteLayout.checked(layout, state.n_qubits, k)
    rows, cols = np.triu_indices(state.n_qubits, 1)
    if a == b:
        corr = axis_correlations(state, a)[rows, cols]
    else:
        corr = np.array([two_point(state, i + 1, j + 1, a, b) for i, j in zip(rows, cols)])
    return complex(np.sum(np.exp(1j * k * layout.separations()[rows, cols]) * corr))


def verify_collective_identity(state, a: str, k: float = 0.0,
                               layout: SiteLayout | None = None) -> tuple[float, float]:
    """Evaluate sum_{i<j} cos(k m_ij) <s_i^a s_j^a> two ways, as (pair_route, collective_route):
    the pair sum, and (<(U^a)^2> + <(V^a)^2> - N)/2 = (|S^a(k)|^2 - N)/2 with U^a = sum_j
    cos(k r_j) s_j^a and V^a = sum_j sin(k r_j) s_j^a. The two agree for every state."""
    lhs = structure_factor(state, k, a, a, layout).real
    layout, k = SiteLayout.checked(layout, state.n_qubits, k)
    u_sq, v_sq = (_collective_square(state, part, a) for part in layout.cos_sin(k))
    return lhs, (u_sq + v_sq - state.n_qubits) / 2.0
