"""Structure-factor entanglement witness W(k) = 1 - Sigma(k).

Sigma(k) averages the cosine-weighted diagonal two-point correlators:

    <Sigma(k)> = (1/C(N,2)) sum_{i<j} cos(k m_ij)
                 [c_x <x_i x_j> + c_y <y_i y_j> + c_z <z_i z_j>],

with m_ij = r_j - r_i; the spec's `SiteLayout` supplies the k check and the weights. Every
product state satisfies |<Sigma(k)>| <= 1, so a negative witness value certifies
entanglement. Closed forms for the Dicke families are provided as exact rationals.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import kernels, states
from .correlators import SiteLayout, _array, correlation_matrices
from .correlators import two_point  # noqa: F401 (re-export)
from .errors import InputError, UnsupportedCaseError, _shown, check_integer, check_real, check_type
from .kernels import AXES

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
        object.__setattr__(self, "n_qubits", check_integer(self.n_qubits, "n_qubits", 2))
        for name, value in zip(("c_x", "c_y", "c_z"), self.coefficients):
            object.__setattr__(self, name, check_real(value, name, -1, 1))
        layout, k = SiteLayout.checked(self.layout, self.n_qubits, self.k)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "k", k)

    @property
    def coefficients(self) -> tuple:
        return (self.c_x, self.c_y, self.c_z)

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
            return cls(data["n_qubits"], data["k"], cx, cy, cz, SiteLayout(data["positions"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed witness JSON: {exc}") from exc


def measurement_settings(spec: WitnessSpec) -> tuple:
    """Axes that actually need a measurement setting (nonzero coefficient)."""
    return tuple(a for a, c in zip(AXES, spec.coefficients) if c != 0.0)


def _check_state(state, spec: WitnessSpec) -> None:
    _array(state)  # InputError unless a StateVector or DensityMatrix
    check_type(spec, WitnessSpec, "the witness")
    if state.n_qubits != spec.n_qubits:
        raise InputError(
            f"state has {state.n_qubits} qubits, spec expects {spec.n_qubits}")


def pair_weight_matrix(spec: WitnessSpec) -> np.ndarray:
    """Symmetric zero-diagonal n x n matrix of the weights cos(k m_ij)."""
    check_type(spec, WitnessSpec, "pair_weight_matrix")
    return spec.layout.weight_table((spec.k,))[0]


def _axis_sums(weights: np.ndarray, correlations: dict) -> dict:
    # symmetric matrices, zero-diagonal weights: the i < j sum is half the full sum; a leading
    # stack axis on weights and correlations gives one sum per state
    norm = 2 * math.comb(weights.shape[-1], 2)
    return {axis: np.sum(weights * corr, axis=(-2, -1)) / norm
            for axis, corr in correlations.items()}


def _sigma_from(coefficients, weights: np.ndarray, correlations: dict):
    """<Sigma>, or one per state when each coefficient is an array over a stack."""
    coefficients, start = dict(zip(AXES, coefficients)), np.zeros(weights.shape[:-2])
    return sum((coefficients[axis] * value
                for axis, value in _axis_sums(weights, correlations).items()), start)


def axis_components(state, spec: WitnessSpec) -> tuple[float, float, float]:
    """Per-axis sums (1/C(N,2)) sum_{i<j} cos(k m_ij) <a_i a_j>.

    <Sigma(k)> is their inner product with (c_x, c_y, c_z), which makes
    coefficient sweeps cheap: the components do not depend on c.
    """
    _check_state(state, spec)
    return tuple(map(float, _axis_sums(pair_weight_matrix(spec),
                                       correlation_matrices(state, AXES)).values()))


def sigma_value(state, spec: WitnessSpec) -> float:
    """<Sigma(k)> for the given state."""
    _check_state(state, spec)
    return float(_sigma_from(spec.coefficients, pair_weight_matrix(spec),
                             correlation_matrices(state, measurement_settings(spec))))


def witness_value(state, spec: WitnessSpec) -> float:
    """<W(k)> = 1 - <Sigma(k)>; negative certifies entanglement."""
    return 1.0 - sigma_value(state, spec)


def detects(state, spec: WitnessSpec) -> bool:
    """True iff the witness expectation is strictly below -DETECTION_TOL."""
    return _detected(sigma_value(state, spec))


def _detected(sigma: float) -> bool:
    """The detection rule on <Sigma>: <W> = 1 - <Sigma> strictly below -DETECTION_TOL."""
    return 1.0 - sigma < -DETECTION_TOL


def dicke_sigma_closed_form(n_qubits: int, l: int) -> Fraction:
    """<Sigma(0)> on |N,l> with c = (1, 1, -1), as an exact rational.

    Equals (4 l (N-l) - (N-2l)^2 + N) / (N (N-1)).
    """
    n = check_integer(n_qubits, "n_qubits", 2)
    l = check_integer(l, "l", 0, n)
    return Fraction(4 * l * (n - l) - (n - 2 * l) ** 2 + n, n * (n - 1))


def phased_dicke_sigma_closed_form(n_qubits: int, l: int, with_z: bool) -> Fraction:
    """<Sigma(pi)> on the half-filled (l = N/2, or (N+-1)/2 for odd N) phased Dicke state
    |N,l^ph>, as an exact rational: 2 l (N-l) / C(N,2) for c = (1, 1, 0). With c = (1, 1, 1)
    the z part (<M_s^2> - N) / (2 C(N,2)), M_s = sum_j (-1)^j z_j, adds 1/(N-1)^2 (even N)
    or 1/N^2 (odd N), for (N^2-N+1)/(N-1)^2 or (N^2+N+1)/N^2."""
    n = check_integer(n_qubits, "n_qubits", 2)
    l = check_integer(l, "l", 0, n)
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
    check_type(spec, WitnessSpec, "sigma_operator")
    states._check_size(spec.n_qubits, "OPERATOR_MAX_QUBITS")
    return _pair_operator(pair_weight_matrix(spec), spec.coefficients,
                          math.comb(spec.n_qubits, 2))


class ScanPoint(NamedTuple):
    k: float
    sigma: float
    witness: float


def scan_k(state, c_x: float, c_y: float, c_z: float, k_grid,
           layout: SiteLayout | None = None) -> list[ScanPoint]:
    """Evaluate sigma/witness over a k grid (correlators once; weights in byte-capped k stacks)."""
    try:
        k_grid = list(k_grid)
    except TypeError as exc:
        raise InputError(f"k grid must be iterable, got {_shown(k_grid)}") from exc
    if not k_grid:
        raise InputError("k grid must be nonempty")
    _array(state)
    spec = WitnessSpec(state.n_qubits, k_grid[0], c_x, c_y, c_z, layout)  # c and layout, once
    k_grid = spec.layout.check_k(k_grid)
    corr = correlation_matrices(state, measurement_settings(spec))
    # per k, one n x n weight row and its product with a correlation matrix: 16 n^2 bytes
    rows, points = max(1, states._STACK_BYTES // (16 * spec.n_qubits ** 2)), []
    for ks in (k_grid[first:first + rows] for first in range(0, len(k_grid), rows)):
        sums = _sigma_from(spec.coefficients, spec.layout.weight_table(ks), corr)
        points += [ScanPoint(k, sigma, 1.0 - sigma) for k, sigma in zip(ks, sums.tolist())]
    return points


def find_detection_boundary(state_factory, spec: WitnessSpec,
                            theta_inside: float, theta_outside: float,
                            tol: float = 1e-9) -> float:
    """Bisect the parameter where detects(state_factory(theta)) flips.

    `theta_inside` must be detected and `theta_outside` not; the returned midpoint
    brackets the boundary to within `tol`, or as closely as floats allow.
    """
    tol = check_real(tol, "tol", 0)
    hi, lo = check_real(theta_inside, "theta_inside"), check_real(theta_outside, "theta_outside")
    if not detects(state_factory(hi), spec):
        raise InputError("theta_inside is not detected")
    if detects(state_factory(lo), spec):
        raise InputError("theta_outside is detected")
    while abs(hi - lo) > tol and 0.5 * (lo + hi) not in (lo, hi):
        mid = 0.5 * (lo + hi)
        if detects(state_factory(mid), spec):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
