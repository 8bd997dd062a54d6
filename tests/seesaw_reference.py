"""Per-restart see-saw reference for the stacked driver in `bisep`.

Each restart runs alone here: its own validated random draws, single-factor
contractions and one `eigh` per half-step, as the see-saw ran before its
restarts were stacked. The stacked driver must reproduce these results bit for bit.
"""

import math

import numpy as np

from sfwitness import bisep, kernels, states, witness
from sfwitness.witness import pair_weight_matrix


def cut_half_step(spec, cut):
    """half_step(held, hold) -> (operator, shift) for one held factor."""
    norm = math.comb(spec.n_qubits, 2)
    weights, phases = pair_weight_matrix(spec), spec.k * np.array(spec.layout.positions)
    coupling, blocks = np.tile(spec.coefficients, 2) / norm, []
    for part in (cut.part_a, cut.part_b):
        sites, rows = [q - 1 for q in part], np.arange(1 << len(part))
        ops = np.zeros((7, rows.size, rows.size), dtype=complex)
        ops[0] = witness._pair_operator(weights[np.ix_(sites, sites)], spec.coefficients, norm)
        masks, signs = kernels.site_masks(len(part))[:, None], kernels.outcome_signs(len(part))
        flips, coefs = map(np.array, zip(*(kernels.pauli_rule(axis, masks, signs)
                                           for axis in kernels.AXES)))
        trig = np.array([np.cos(phases[sites]), np.sin(phases[sites])])[:, None, :, None]
        np.add.at(ops, (np.arange(1, 7).reshape(2, 3, 1, 1), rows, rows ^ flips), trig * coefs)
        blocks.append((ops.reshape(7 * rows.size, -1), ops[0], ops[1:].reshape(6, -1)))

    def half_step(held, hold):
        moments = ((blocks[1 - hold][0] @ held).reshape(7, -1) @ held.conj()).real
        _, own, amplitudes = blocks[hold]
        return own + ((coupling * moments[1:]) @ amplitudes).reshape(own.shape), moments[0]

    return half_step


def best_run(start, sweep, seed_words, restarts, tol, max_iter):
    """First best (value, point, sweeps, converged), one restart after another."""
    best = None
    for r in range(restarts):
        point, value = start(np.random.default_rng([*seed_words, r])), -np.inf
        for sweeps in range(1, max_iter + 1):
            previous, value = value, sweep(point)
            converged = value - previous < tol
            if converged:
                break
        if best is None or value > best[0]:
            best = (value, point, sweeps, converged)
    return best


def seesaw_cut(spec, cut, restarts, tol, max_iter, seed, cut_index=0):
    """(bound, (factor A, factor B), iterations, converged) of one cut."""
    half_step = cut_half_step(spec, cut)

    def start(rng):
        return [states.random_state_vector(len(part), rng).amplitudes
                for part in (cut.part_a, cut.part_b)]

    def sweep(factors):
        for hold in range(2):
            operator, shift = half_step(factors[1 - hold], hold)
            eigvals, eigvecs = np.linalg.eigh(operator)
            factors[hold] = eigvecs[:, -1]
        return float(eigvals[-1] + shift)

    value, factors, iterations, converged = best_run(start, sweep, (seed, cut_index),
                                                     restarts, tol, max_iter)
    return value, tuple(factors), iterations, converged


def bisep_bound(spec, restarts, tol, max_iter, seed):
    """(bound, best cut, factors, iterations, converged): the first best orbit's cut."""
    cuts = bisep.enumerate_bipartitions(spec.n_qubits)
    runs = [(cuts[index], seesaw_cut(spec, cuts[index], restarts, tol, max_iter, seed, index))
            for index, _ in bisep._cut_orbits(pair_weight_matrix(spec))]
    cut, (value, factors, iterations, converged) = max(runs, key=lambda run: run[1][0])
    return value, cut, factors, iterations, converged


def product_bound(spec, restarts, tol, max_iter, seed):
    """(value, Bloch vectors) of the best fully product restart."""
    weights = pair_weight_matrix(spec) / math.comb(spec.n_qubits, 2)
    coefficients = np.array(spec.coefficients)

    def start(rng):
        a, b = np.array([states.random_state_vector(1, rng).amplitudes for _ in weights]).T
        return np.column_stack([2 * (a.conj() * b).real, 2 * (a.conj() * b).imag,
                                np.abs(a) ** 2 - np.abs(b) ** 2])

    def sweep(blochs):
        for i in range(len(weights)):
            field = coefficients * (weights[i] @ blochs)
            norm = np.linalg.norm(field)
            if norm > 0.0:
                blochs[i] = field / norm
        return 0.5 * float(np.sum(coefficients * blochs * (weights @ blochs)))

    value, blochs, _, _ = best_run(start, sweep, (seed,), restarts, tol, max_iter)
    return value, blochs
