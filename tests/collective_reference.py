"""Full-matrix reference for the density branch of `correlators._collective_square`.

It builds all of phi = A rho, one Pauli gather of the 4^N matrix per site, and
reads Tr(A phi) off it, as the density route ran before it read only the entries
the trace needs. The restricted route must reproduce it bit for bit.
"""

import numpy as np

from sfwitness import kernels
from sfwitness.correlators import _real


def collective_square(rho, weights, a):
    """Tr(A A rho), A = sum_j weights[j] sigma_j^a, through the full phi = A rho."""
    arr, n = rho.entries, rho.n_qubits
    phi = np.zeros_like(arr)
    for site, weight in enumerate(weights, 1):
        phi += weight * kernels.apply_pauli(arr, n, site, a)
    idx, trace = np.arange(1 << n), 0j
    for site, weight in enumerate(weights, 1):
        flip, coef = kernels.pauli_action(n, site, a)
        trace += weight * np.sum(coef * phi[idx ^ flip, idx])
    return _real(trace)
