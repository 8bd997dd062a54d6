"""Depolarizing-noise models and analytic robustness thresholds.

Two channels are covered. The collective channel admixes global white
noise, rho -> p 1/2^N + (1-p) rho; since Sigma(k) is a sum of traceless
Pauli strings the identity part contributes nothing and the expectation
shrinks by (1-p). The individual channel acts on each qubit independently,
rho_s -> (1-q) rho_s + q 1/2, which shrinks every single-qubit Pauli by
(1-q) and hence every two-point term by (1-q)^2.

Both laws are exactly linear/quadratic in the strength, so the detection
thresholds have closed forms: p* = 1 - 1/<Sigma> and q* = 1 - <Sigma>^(-1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import states, witness
from .errors import InputError, check_real, check_type
from .states import DensityMatrix, StateVector
from .witness import WitnessSpec, sigma_value

NOISE_KINDS = ("collective", "individual")


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing channel: kind 'collective' (strength p) or 'individual' (q)."""

    kind: str
    strength: float

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise InputError(f"noise kind must be one of {NOISE_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "strength", check_real(self.strength, "noise strength", 0, 1))


def noisy_sigma(state: StateVector, spec: WitnessSpec, noise: NoiseModel) -> float:
    """<Sigma(k)> of the state after the channel, via the exact factor laws."""
    check_type(noise, NoiseModel, "noisy_sigma")
    clean = sigma_value(state, spec)
    if noise.kind == "collective":
        return (1.0 - noise.strength) * clean
    return (1.0 - noise.strength) ** 2 * clean


def collective_threshold(state: StateVector, spec: WitnessSpec) -> float:
    """Largest white-noise fraction below which the state stays detected.

    Returns 0 when the noiseless state is not detected to begin with (`witness.detects`).
    """
    return _threshold(state, spec, lambda clean: clean)


def individual_threshold(state: StateVector, spec: WitnessSpec) -> float:
    """Per-qubit depolarizing threshold q* = 1 - <Sigma>^(-1/2) (0 if undetected)."""
    return _threshold(state, spec, math.sqrt)


def _threshold(state: StateVector, spec: WitnessSpec, shrink_root) -> float:
    """1 - 1/shrink_root(<Sigma>), where the shrink factor reaches 1/<Sigma>; 0 if undetected."""
    clean = sigma_value(state, spec)
    return 1.0 - 1.0 / shrink_root(clean) if witness._detected(clean) else 0.0


def collective_threshold_exact(sigma: Fraction) -> Fraction:
    """Exact-rational p* = 1 - 1/sigma for a closed-form sigma."""
    if sigma <= 1:
        return Fraction(0)
    return 1 - 1 / Fraction(sigma)


def _depolarize_qubit(rho: np.ndarray, n_qubits: int, site: int, q: float) -> None:
    """Kraus form of rho_s -> (1-q) rho_s + q 1/2 on one qubit, in place: a rho + b X + b zz X +
    b zz rho per entry in that order; X = x rho x, zz X = y rho y, zz rho = z rho z, zz = z_r z_c.
    X of a quarter block is its flipped partner, of the same zz: a stacked pair, reversed, is X."""
    split = (1 << (site - 1), 2, 1 << (n_qubits - site))
    blocks = rho.reshape(split + split).transpose(1, 4, 0, 2, 3, 5)  # (row bit, column bit, ...)
    # one pair-size buffer each: a single block of both fragmented the heap over repeated calls
    new, scratch = (np.empty(blocks[0].shape, rho.dtype) for _ in range(2))
    for pair, zz in ((np.einsum("ii...->i...", blocks), 1.0),
                     (np.einsum("ii...->i...", blocks[:, ::-1]), -1.0)):
        np.multiply(1.0 - 0.75 * q, pair, out=new)
        new += np.multiply(0.25 * q, pair, out=scratch)[::-1]
        np.multiply(0.25 * q, np.multiply(zz, pair, out=scratch), out=scratch)
        new += scratch[::-1]
        new += scratch
        pair[...] = new


def kraus_crosscheck(state: StateVector, spec: WitnessSpec, q: float) -> tuple[float, float]:
    """Evaluate the individually-depolarized <Sigma> along both routes.

    Returns (observable_side, state_side): the (1-q)^2 factor law versus an
    explicit per-qubit Kraus application to the density matrix, capped at
    states.KRAUS_MAX_QUBITS. The two are equal up to rounding; tests assert it.
    """
    check_type(state, StateVector, "kraus_crosscheck")
    q = check_real(q, "q", 0, 1)
    n = state.n_qubits
    states._check_size(n, "KRAUS_MAX_QUBITS")
    observable_side = (1.0 - q) ** 2 * sigma_value(state, spec)
    rho = np.outer(state.amplitudes, state.amplitudes.conj())
    for site in range(1, n + 1):
        _depolarize_qubit(rho, n, site, q)
    state_side = sigma_value(DensityMatrix._psd_by_construction(n, rho), spec)
    return observable_side, state_side
