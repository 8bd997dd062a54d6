"""Shared fixtures and deliberately naive dense oracles.

The oracles build full 2^N x 2^N operators from Kronecker products and
evaluate expectations by matrix algebra, independently of the package's
kernels, correlation matrices and cosine-weighted sums.
"""

import math

import numpy as np
import pytest

from sfwitness import BlochVector, DensityMatrix, SiteLayout, StateVector, WitnessSpec

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "i": np.eye(2, dtype=complex),
}


def kron_chain(ops):
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def pauli_on(n_qubits, site_to_axis):
    """Dense operator with the given Paulis at 1-based sites, identity elsewhere."""
    ops = [PAULI["i"]] * n_qubits
    for site, axis in site_to_axis.items():
        ops[site - 1] = PAULI[axis]
    return kron_chain(ops)


def dense_sigma_matrix(spec: WitnessSpec) -> np.ndarray:
    """Sigma(k) built from complex exponentials symmetrized over +-k."""
    n = spec.n_qubits
    dim = 2 ** n
    total = np.zeros((dim, dim), dtype=complex)
    for sign in (+1.0, -1.0):
        part = np.zeros((dim, dim), dtype=complex)
        for c, axis in zip((spec.c_x, spec.c_y, spec.c_z), "xyz"):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    separation = spec.layout.positions[j - 1] - spec.layout.positions[i - 1]
                    phase = np.exp(1j * sign * spec.k * separation)
                    part += phase * c * pauli_on(n, {i: axis, j: axis})
        total += part / (2.0 * math.comb(n, 2))
    return total


def dense_expectation(state, operator) -> complex:
    if isinstance(state, StateVector):
        return complex(np.vdot(state.amplitudes, operator @ state.amplitudes))
    return complex(np.trace(operator @ state.entries))


def random_pure(rng, n_qubits) -> StateVector:
    amps = rng.standard_normal(2 ** n_qubits) + 1j * rng.standard_normal(2 ** n_qubits)
    return StateVector(n_qubits, amps / np.linalg.norm(amps))


def random_mixed(rng, n_qubits) -> DensityMatrix:
    """Full-rank density matrix g g^dagger / Tr from a complex Gaussian g."""
    dim = 2 ** n_qubits
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(n_qubits, rho / np.trace(rho).real)


def random_bloch_in_ball(rng) -> BlochVector:
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    return BlochVector(*(v * rng.random() ** (1.0 / 3.0)))


def random_spec(rng, n_qubits, layout: SiteLayout | None = None) -> WitnessSpec:
    return WitnessSpec(n_qubits, float(rng.uniform(0, 2 * math.pi)),
                       *(float(c) for c in rng.uniform(-1, 1, size=3)), layout)


def automorphism_closure(generators, n_qubits) -> set:
    """Every product of the 0-based site permutations `generators`: the group they generate."""
    group = frontier = {tuple(range(n_qubits))}
    while frontier:
        frontier = {tuple(p[s] for s in g) for p in frontier for g in generators} - group
        group = group | frontier
    return group


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
