"""Full-grid sphere search for the grid oracles in `reports`.

Each stage evaluates `values` on the whole grid at once and reads np.argmax
and np.max over it, as the search ran before it was evaluated in row
blocks. The blocked search must reproduce its values bit for bit.
"""

import math

import numpy as np

from sfwitness import reports


def sphere_search(values, spheres, coarse, per_side):
    grids = [reports._fibonacci_sphere(coarse)] * spheres
    radius = math.sqrt(4.0 * math.pi / coarse)
    for _ in range(3):
        grid_values = values(*grids)
        top = np.unravel_index(int(np.argmax(grid_values)), grid_values.shape)
        grids = [reports._cap_points(g[i], radius, per_side) for g, i in zip(grids, top)]
        radius /= 8.0
    return float(np.max(values(*grids)))
