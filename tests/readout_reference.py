"""The tensordot form of the x/y readout rotation.

Each contraction applies the basis-change gate to the leading qubit axis of
the state tensor and moves it last, so n of them restore the qubit order,
as `readout_probabilities` computed it before it used one 2-D matrix
product per qubit. The matrix-product form must reproduce its distributions
bit for bit.
"""

import numpy as np

from sfwitness import correlators


def readout_probabilities(state, axis):
    psi, gate = state.amplitudes.reshape((2,) * state.n_qubits), correlators._ROTATIONS[axis]
    for _ in range(state.n_qubits):
        psi = np.tensordot(psi, gate, axes=(0, 1))
    return np.abs(psi.reshape(-1)) ** 2
