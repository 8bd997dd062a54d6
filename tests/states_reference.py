"""Earlier, larger-temporary forms of the Dicke builders, the sampler, the Kraus step and the
density-stack check.

The Dicke builders list every excited-site tuple with itertools.combinations,
the estimator reads its +-1 signs from the full N x 2^N outcome table, the
depolarizing step adds each Kraus term out of place, from a flipped copy of the
whole matrix and a 2^N x 2^N sign table, and the stack check compares row
blocks with full-height mirrors. The package's forms must reproduce the first
three bit for bit, and the check's verdicts and messages.
"""

import itertools
import math

import numpy as np

from sfwitness import InputError, StateVector, kernels
from sfwitness.correlators import readout_probabilities
from sfwitness.sampling import _count_statistics
from sfwitness.states import HERMITIAN_ATOL, NORM_ATOL
from sfwitness.witness import measurement_settings, pair_weight_matrix


def _excitations(n_qubits, l):
    sites = np.array(list(itertools.combinations(range(n_qubits), l)), dtype=int)
    return sites, kernels.site_masks(n_qubits)[sites].sum(axis=1)


def make_dicke(n_qubits, l):
    _, index = _excitations(n_qubits, l)
    amps = np.zeros(2 ** n_qubits, dtype=complex)
    amps[index] = 1.0 / math.sqrt(math.comb(n_qubits, l))
    return StateVector(n_qubits, amps)


def make_phased_dicke(n_qubits, l):
    sites, index = _excitations(n_qubits, l)
    amps = np.zeros(2 ** n_qubits, dtype=complex)
    amp = 1.0 / math.sqrt(math.comb(n_qubits, l))
    amps[index] = np.where(sites.sum(axis=1) % 2 == (l * (l - 1) // 2) % 2, amp, -amp)
    return StateVector(n_qubits, amps)


def estimate(state, spec, shots, seed_words):
    """sampling._estimate with the sign table of every outcome."""
    norm = math.comb(spec.n_qubits, 2)
    weights = pair_weight_matrix(spec)
    signs = kernels.outcome_signs(state.n_qubits)
    sigma_est = variance = 0.0
    for axis in measurement_settings(spec):
        axis_pos = kernels.AXES.index(axis)
        c = spec.coefficients[axis_pos]
        rng = np.random.default_rng([*seed_words, axis_pos])
        probs = readout_probabilities(state, axis)
        counts = rng.multinomial(shots, probs / probs.sum())
        seen = np.flatnonzero(counts)
        values = 0.5 * np.sum(signs[:, seen] * (weights @ signs[:, seen]), axis=0)
        mean, var = _count_statistics(values, counts[seen])
        sigma_est += c * mean / norm
        if shots < 2:
            var = float(np.abs(weights).sum() / 2.0) ** 2
        variance += (c / norm) ** 2 * var / shots
    return 1.0 - sigma_est, math.sqrt(variance)


def flip_site(rho, n_qubits, site):
    """sigma_site^x rho sigma_site^x for a square matrix rho: a copy of rho with the site's bit
    flipped in both the row and the column index."""
    split = (1 << (site - 1), 2, 1 << (n_qubits - site))
    return rho.reshape(split + split)[:, ::-1, :, :, ::-1].reshape(rho.shape)


def depolarize_qubit(rho, n_qubits, site, q):
    """noise._depolarize_qubit out of place, with a fresh array per product and sum."""
    flipped, z = flip_site(rho, n_qubits, site), kernels.outcome_signs(n_qubits, (site,))
    zz = z.T * z
    out = (1.0 - 0.75 * q) * rho
    for term in (flipped, zz * flipped, zz * rho):
        out = out + (0.25 * q) * term
    return out


def check_stack(stack):
    """InputError unless each matrix of the (B, d, d) stack is finite, Hermitian and unit-trace:
    whole matrices of up to 2**14 entries, else row blocks of 2**14 entries, each compared with
    its full-height mirror."""
    dim = stack.shape[-1]
    count, rows = max(1, (1 << 14) // dim ** 2), min(dim, max(1, (1 << 14) // dim))
    worst = 0.0
    for b in range(0, len(stack), count):
        for i in range(0, dim, rows):
            block = stack[b:b + count, i:i + rows]
            if not np.isfinite(block).all():
                raise InputError("density-matrix entries must be finite")
            mirror = stack[b:b + count, :, i:i + rows].conj().swapaxes(1, 2)
            worst = max(worst, np.max(np.abs(block - mirror)))
    if worst > HERMITIAN_ATOL:
        raise InputError("matrix is not Hermitian")
    traces = np.trace(stack, axis1=1, axis2=2)
    off = np.abs(traces - 1.0) > NORM_ATOL
    if off.any():
        raise InputError(f"trace must be 1, got {complex(traces[np.argmax(off)])!r}")
