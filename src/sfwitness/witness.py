"""Structure-factor entanglement witness W(k) = 1 - Sigma(k).

Sigma(k) averages the cosine-weighted diagonal two-point correlators:

    <Sigma(k)> = (1/C(N,2)) sum_{i<j} cos(k m_ij)
                 [c_x <x_i x_j> + c_y <y_i y_j> + c_z <z_i z_j>],

with m_ij = r_j - r_i. Every product state satisfies |<Sigma(k)>| <= 1, so
a negative witness value certifies entanglement. Closed forms for the
Dicke families are provided as exact rationals.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import kernels, states
from .correlators import SiteLayout, correlation_matrices
from .correlators import two_point  # noqa: F401 (re-export)
from .errors import InputError, UnsupportedCaseError
from .kernels import AXES
from .states import DensityMatrix, StateVector

DETECTION_TOL = 1e-9


@dataclass(frozen=True)
class WitnessSpec:
    """Parameters (N, k, c_x, c_y, c_z, site layout) defining Sigma(k)."""

    n_qubits: int
    k: float
    c_x: float
    c_y: float
    c_z: float
    layout: SiteLayout | None = None

    def __post_init__(self):
        if self.n_qubits < 2:
            raise InputError("a witness needs at least 2 qubits")
        for name, value in zip(("k", "c_x", "c_y", "c_z"), (self.k, *self.coefficients)):
            if not math.isfinite(value):
                raise InputError(f"{name} must be finite, got {value}")
            if name != "k" and abs(value) > 1.0:
                raise InputError(f"|{name}| must be <= 1, got {value}")
        layout = self.layout or SiteLayout.unit_spacing(self.n_qubits)
        if len(layout) != self.n_qubits:
            raise InputError(
                f"layout has {len(layout)} sites for n_qubits={self.n_qubits}")
        object.__setattr__(self, "layout", layout)

    @property
    def coefficients(self) -> tuple:
        return (self.c_x, self.c_y, self.c_z)

    def pair_weight(self, i: int, j: int) -> float:
        # |k| keeps the k -> -k symmetry bit-exact
        return math.cos(abs(self.k) * self.layout.separation(i, j))

    def to_json(self) -> str:
        return json.dumps({
            "n_qubits": self.n_qubits,
            "k": self.k,
            "c": [self.c_x, self.c_y, self.c_z],
            "positions": list(self.layout.positions),
        })

    @classmethod
    def from_json(cls, text: str) -> "WitnessSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid witness JSON: {exc}") from exc
        try:
            cx, cy, cz = data["c"]
            return cls(int(data["n_qubits"]), float(data["k"]),
                       float(cx), float(cy), float(cz),
                       SiteLayout(tuple(data["positions"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed witness JSON: {exc}") from exc


def _check_state(state, spec: WitnessSpec) -> None:
    if not isinstance(state, (StateVector, DensityMatrix)):
        raise InputError(f"unsupported state type {type(state).__name__}")
    if state.n_qubits != spec.n_qubits:
        raise InputError(
            f"state has {state.n_qubits} qubits, spec expects {spec.n_qubits}")


def pair_weight_matrix(spec: WitnessSpec) -> np.ndarray:
    """Symmetric zero-diagonal n x n matrix of the weights cos(k m_ij)."""
    n = spec.n_qubits
    weights = np.zeros((n, n))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            weights[i - 1, j - 1] = weights[j - 1, i - 1] = spec.pair_weight(i, j)
    return weights


def _correlations(state, coefficients) -> dict:
    return correlation_matrices(state, [axis for c, axis in zip(coefficients, AXES) if c != 0.0])


def _axis_sums(spec: WitnessSpec, correlations: dict) -> dict:
    # symmetric matrices, zero-diagonal weights: the i < j sum is half the full sum
    weights = pair_weight_matrix(spec)
    norm = 2 * math.comb(spec.n_qubits, 2)
    return {axis: float(np.sum(weights * corr)) / norm for axis, corr in correlations.items()}


def _sigma_from(spec: WitnessSpec, correlations: dict) -> float:
    coefficients = dict(zip(AXES, spec.coefficients))
    return sum((coefficients[axis] * value
                for axis, value in _axis_sums(spec, correlations).items()), 0.0)


def axis_components(state, spec: WitnessSpec) -> tuple[float, float, float]:
    """Per-axis sums (1/C(N,2)) sum_{i<j} cos(k m_ij) <a_i a_j>.

    <Sigma(k)> is their inner product with (c_x, c_y, c_z), which makes
    coefficient sweeps cheap: the components do not depend on c.
    """
    _check_state(state, spec)
    return tuple(_axis_sums(spec, _correlations(state, (1, 1, 1))).values())


def sigma_value(state, spec: WitnessSpec) -> float:
    """<Sigma(k)> for the given state."""
    _check_state(state, spec)
    return _sigma_from(spec, _correlations(state, spec.coefficients))


def witness_value(state, spec: WitnessSpec) -> float:
    """<W(k)> = 1 - <Sigma(k)>; negative certifies entanglement."""
    return 1.0 - sigma_value(state, spec)


def detects(state, spec: WitnessSpec, tol: float = DETECTION_TOL) -> bool:
    """True iff the witness expectation is strictly below -tol."""
    return witness_value(state, spec) < -tol


def dicke_sigma_closed_form(n_qubits: int, l: int) -> Fraction:
    """<Sigma(0)> on |N,l> with c = (1, 1, -1), as an exact rational.

    Equals (4 l (N-l) - (N-2l)^2 + N) / (N (N-1)).
    """
    if n_qubits < 2:
        raise InputError("closed form needs at least 2 qubits")
    if not 0 <= l <= n_qubits:
        raise InputError(f"need 0 <= l <= {n_qubits}, got l={l}")
    n = n_qubits
    return Fraction(4 * l * (n - l) - (n - 2 * l) ** 2 + n, n * (n - 1))


def phased_dicke_sigma_closed_form(n_qubits: int, l: int, with_z: bool) -> Fraction:
    """<Sigma(pi)> on the half-filled (l = N/2, or (N+-1)/2 for odd N) phased Dicke state
    |N,l^ph>, as an exact rational: 2 l (N-l) / C(N,2) for c = (1, 1, 0). With c = (1, 1, 1)
    the z part (<M_s^2> - N) / (2 C(N,2)), M_s = sum_j (-1)^j z_j, adds 1/(N-1)^2 (even N)
    or 1/N^2 (odd N), for (N^2-N+1)/(N-1)^2 or (N^2+N+1)/N^2."""
    n = n_qubits
    if n < 2:
        raise InputError("closed form needs at least 2 qubits")
    if not 0 <= l <= n:
        raise InputError(f"need 0 <= l <= {n}, got l={l}")
    half_filled = (l == n / 2) if n % 2 == 0 else (2 * l in (n - 1, n + 1))
    if not half_filled:
        raise UnsupportedCaseError(
            f"closed form established only for half-filled l, got (N={n}, l={l})")
    z_part = Fraction(1, (n - 1 if n % 2 == 0 else n) ** 2) if with_z else 0
    return Fraction(2 * l * (n - l), math.comb(n, 2)) + z_part


def _pair_operator(weights: np.ndarray, coefficients, norm: int) -> np.ndarray:
    """Dense sum_{i<j} w_ij sum_a c_a sigma_i^a sigma_j^a / norm on len(weights) qubits: z_i z_j
    on the diagonal, x_i x_j and y_i y_j on one flip of bits m_i ^ m_j, times 1 and -z_i z_j."""
    n = len(weights)
    rows, cols = np.triu_indices(n, 1)
    weights = weights[rows, cols, None]
    sx, sy, sz = (c * weights / norm for c in coefficients)
    masks, signs = kernels.site_masks(n), kernels.outcome_signs(n)
    zz = signs[rows] * signs[cols]
    idx = np.arange(1 << n)
    mat = np.zeros((idx.size, idx.size), dtype=complex)
    mat[idx, idx ^ (masks[rows] ^ masks[cols])[:, None]] = sx - sy * zz
    mat[idx, idx] = np.sum(sz * zz, axis=0)
    return mat


def sigma_operator(spec: WitnessSpec) -> np.ndarray:
    """Dense Hermitian matrix of Sigma(k); <psi|.|psi> matches sigma_value."""
    states._check_size(spec.n_qubits, "OPERATOR_MAX_QUBITS")
    return _pair_operator(pair_weight_matrix(spec), spec.coefficients,
                          math.comb(spec.n_qubits, 2))


class ScanPoint(NamedTuple):
    k: float
    sigma: float
    witness: float


def scan_k(state, c_x: float, c_y: float, c_z: float, k_grid,
           layout: SiteLayout | None = None) -> list[ScanPoint]:
    """Evaluate sigma/witness over a k grid (correlators computed once)."""
    k_grid = list(k_grid)
    if not k_grid:
        raise InputError("k grid must be nonempty")
    specs = [WitnessSpec(state.n_qubits, float(k), c_x, c_y, c_z, layout) for k in k_grid]
    correlations = _correlations(state, (c_x, c_y, c_z))
    sigmas = [_sigma_from(spec, correlations) for spec in specs]
    return [ScanPoint(spec.k, sigma, 1.0 - sigma) for spec, sigma in zip(specs, sigmas)]


def find_detection_boundary(state_factory, spec: WitnessSpec,
                            theta_inside: float, theta_outside: float,
                            tol: float = 1e-9, max_iter: int = 200) -> float:
    """Bisect the parameter where detects(state_factory(theta)) flips.

    `theta_inside` must be detected and `theta_outside` not; the returned
    midpoint brackets the boundary to within `tol`.
    """
    if not detects(state_factory(theta_inside), spec):
        raise InputError("theta_inside is not detected")
    if detects(state_factory(theta_outside), spec):
        raise InputError("theta_outside is detected")
    lo, hi = theta_outside, theta_inside
    for _ in range(max_iter):
        if abs(hi - lo) <= tol:
            break
        mid = 0.5 * (lo + hi)
        if detects(state_factory(mid), spec):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
