"""Vectorized index kernels for dense multi-qubit arrays.

Bit convention used everywhere in this package: qubit ``i`` (1-based) lives
at bit ``n - i`` of the basis index, so the index written as an ``n``-digit
binary string reads ``|q1 q2 ... qN>`` left to right.

All kernels act on axis 0 of the input, so they apply equally to state
vectors (shape ``(2**n,)``) and to the row index of density matrices
(shape ``(2**n, 2**n)``). None of them materializes a ``2**n x 2**n``
operator.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

AXES = ("x", "y", "z")


def check_axis(axis: str) -> None:
    if axis not in AXES:
        raise InputError(f"Pauli axis must be one of {AXES}, got {axis!r}")


def check_site(n_qubits: int, site: int) -> None:
    if not 1 <= site <= n_qubits:
        raise InputError(f"site {site} out of range 1..{n_qubits}")


def bit_mask(n_qubits: int, site: int) -> int:
    """Index mask selecting the bit of qubit `site`."""
    return 1 << (n_qubits - site)


def bit_values(n_qubits: int, site: int) -> np.ndarray:
    """Bit of qubit `site` for every basis index (0 or 1)."""
    idx = np.arange(1 << n_qubits)
    return (idx >> (n_qubits - site)) & 1


def z_signs(n_qubits: int, site: int) -> np.ndarray:
    """sigma^z eigenvalue at `site` per basis index: +1 for |0>, -1 for |1>."""
    return 1.0 - 2.0 * bit_values(n_qubits, site)


def _broadcast(col: np.ndarray, target: np.ndarray) -> np.ndarray:
    # reshape a per-basis-index column so it broadcasts over trailing axes
    return col.reshape(col.shape[0], *([1] * (target.ndim - 1)))


def apply_pauli(arr: np.ndarray, n_qubits: int, site: int, axis: str) -> np.ndarray:
    """Return sigma_site^axis applied to axis 0 of `arr`."""
    check_axis(axis)
    check_site(n_qubits, site)
    if axis == "z":
        return _broadcast(z_signs(n_qubits, site), arr) * arr
    flipped = np.arange(1 << n_qubits) ^ bit_mask(n_qubits, site)
    if axis == "x":
        return arr[flipped]
    # y: <1|sigma^y|0> = i, <0|sigma^y|1> = -i, keyed on the output (row) bit
    phase = 1j * (2.0 * bit_values(n_qubits, site) - 1.0)
    return _broadcast(phase, arr) * arr[flipped]


def apply_pauli_right(rho: np.ndarray, n_qubits: int, site: int, axis: str) -> np.ndarray:
    """Return rho @ sigma_site^axis for a square matrix rho."""
    # sigma is Hermitian: rho sigma = (sigma rho^dagger)^dagger
    return apply_pauli(rho.conj().T, n_qubits, site, axis).conj().T


def pair_expectation_pure(amps: np.ndarray, n_qubits: int, i: int, j: int,
                          a: str, b: str) -> complex:
    """<psi| sigma_i^a sigma_j^b |psi> in O(2**n) time."""
    phi = apply_pauli(apply_pauli(amps, n_qubits, j, b), n_qubits, i, a)
    return complex(np.vdot(amps, phi))


def pair_expectation_density(rho: np.ndarray, n_qubits: int, i: int, j: int,
                             a: str, b: str) -> complex:
    """Tr(rho sigma_i^a sigma_j^b), exploiting one nonzero entry per row."""
    idx = np.arange(1 << n_qubits)
    flip = 0
    coef = np.ones(idx.shape, dtype=complex)
    for site, axis in ((i, a), (j, b)):
        check_axis(axis)
        check_site(n_qubits, site)
        if axis == "z":
            coef = coef * z_signs(n_qubits, site)
        else:
            flip ^= bit_mask(n_qubits, site)
            if axis == "y":
                coef = coef * (1j * (2.0 * bit_values(n_qubits, site) - 1.0))
    return complex(np.sum(coef * rho[idx ^ flip, idx]))
