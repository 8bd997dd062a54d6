"""The qubit-bit convention and the Pauli action, stated once for the package.

Qubit ``i`` (1-based) lives at bit ``n - i`` of the basis index, so the
index written as an ``n``-digit binary string reads ``|q1 q2 ... qN>`` left
to right. sigma^a on a qubit sends basis column ``c`` to row ``c ^ flip``
with a coefficient keyed on the row: ``(0, z)`` for z, ``(mask, 1)`` for x
and ``(mask, -i z)`` for y, where ``mask`` is the qubit's bit and ``z`` its
sigma^z eigenvalue on the row. No kernel materializes a ``2**n x 2**n``
operator.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, check_integer

AXES = ("x", "y", "z")


def check_axis(axis: str) -> None:
    if axis not in AXES:
        raise InputError(f"Pauli axis must be one of {AXES}, got {axis!r}")


def site_masks(n_qubits: int) -> np.ndarray:
    """Basis-index bit of qubits 1..n: qubit i sits at bit n - i."""
    return 1 << np.arange(n_qubits - 1, -1, -1)


def outcome_signs(n_qubits: int, sites=None) -> np.ndarray:
    """len(sites) x 2**n matrix (default sites 1..n): the +-1 sigma^z
    eigenvalue of each listed qubit per basis index."""
    sites = range(1, n_qubits + 1) if sites is None else sites
    signs = np.empty((len(sites), 1 << n_qubits))
    for row, site in enumerate(sites):
        # qubit `site` is bit n - site: +1 and -1 blocks of 2**(n - site) alternate
        signs[row].reshape(1 << (site - 1), 2, -1)[:] = [[1.0], [-1.0]]
    return signs


def pauli_rule(axis: str, mask, z: np.ndarray) -> tuple:
    """(flip, coef) of sigma^axis on qubits with bits `mask` and row eigenvalues `z`:
    column c goes to row c ^ flip, times coef[row]. One qubit takes an int and
    a 2**n row, many a column of masks and an outcome_signs matrix."""
    check_axis(axis)
    if axis == "z":
        return 0 * mask, z
    if axis == "x":
        return mask, np.ones_like(z)
    return mask, -1j * z


def pauli_action(n_qubits: int, site: int, axis: str) -> tuple:
    """(flip, coef) of sigma_site^axis on an n-qubit register."""
    check_integer(site, "site", 1, n_qubits)
    return pauli_rule(axis, int(site_masks(n_qubits)[site - 1]),
                      outcome_signs(n_qubits, (site,))[0])


def apply_pauli(arr: np.ndarray, n_qubits: int, site: int, axis: str) -> np.ndarray:
    """Return sigma_site^axis applied to axis 0 of `arr` (a vector or a matrix)."""
    flip, coef = pauli_action(n_qubits, site, axis)
    # z gathers nothing and x multiplies by nothing
    out = arr[np.arange(1 << n_qubits) ^ flip] if flip else arr
    if axis == "x":
        return out
    return coef.reshape(-1, *([1] * (arr.ndim - 1))) * out


def pair_expectation(arr: np.ndarray, n_qubits: int, i: int, j: int,
                     a: str, b: str) -> complex:
    """<sigma_i^a sigma_j^b> (i != j) of amplitudes or of a density matrix, in O(2**n).

    With flip = flip_i ^ flip_j and coef = coef_i coef_j this is
    vdot(psi, coef psi[idx ^ flip]), or sum_c coef[c] rho[c ^ flip, c].
    """
    flip_i, coef_i = pauli_action(n_qubits, i, a)
    flip_j, coef_j = pauli_action(n_qubits, j, b)
    idx = np.arange(1 << n_qubits)
    coef = coef_i * coef_j
    if arr.ndim == 1:
        return complex(np.vdot(arr, coef * arr[idx ^ flip_i ^ flip_j]))
    return complex(np.sum(coef * arr[idx ^ flip_i ^ flip_j, idx]))
