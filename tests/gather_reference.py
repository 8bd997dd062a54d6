"""One-shot form of the density branch of `correlators._density_correlations`.

It gathers the real trace entries rho[c ^ m_i ^ m_j, c] of every pair (i, j) at once, an
(n, n, 2^N) index table and a (B, n, n, 2^N) gather, as the density route ran before it took
one row i at a time. The row-by-row route must reproduce it bit for bit.
"""

import numpy as np

from sfwitness import kernels
from sfwitness.correlators import _from_readout


def density_correlations(stack, signs, axes):
    """{a: (B, n, n) matrices of <a_i a_j>, diagonal unset}, from one all-pairs gather."""
    found, flipped = dict.fromkeys(axes), None
    for axis in sorted(found):  # x sums the gather before y scales it in place
        if axis == "z":
            found[axis] = _from_readout(signs, np.diagonal(stack, axis1=1, axis2=2).real)
            continue
        if flipped is None:  # Re rho[r, c] with r = c ^ m_i ^ m_j sits at float 2 (r d + c)
            masks, idx = kernels.site_masks(len(signs)), np.arange(stack.shape[-1])
            flat = (masks[:, None] ^ masks)[..., None] ^ idx
            flat *= 2 * len(idx)
            flat += 2 * idx
            flipped = np.take(stack.reshape(len(stack), -1).view(float), flat, axis=1)
        if axis == "y":
            flipped *= signs[:, None]
            flipped *= -signs
        found[axis] = flipped.sum(axis=-1)
    return found
