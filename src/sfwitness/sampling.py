"""Finite-shot simulation of the witness measurement.

Each Pauli axis with a nonzero coefficient is one measurement setting: all
qubits are read out projectively in that basis, so a single shot yields
every two-point correlator of the axis at once. At most three settings are
needed regardless of N. The shots of a setting are drawn as multinomial
counts over the exact 2^N outcome distribution, and the pair sum is
evaluated once per observed outcome, so memory stays O(2^N) at any shot
count. The standard error propagates the per-shot sample variance of the
full pair sum, which keeps the correlations between pairs intact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .correlators import readout_probabilities
from .errors import InputError
from .states import StateVector
from .witness import WitnessSpec, _check_state, pair_weight_matrix


_MAX_SHOTS = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class ShotPlan:
    """Number of projective shots per measurement setting, plus the seed."""

    shots_per_setting: int
    seed: int = 0

    def __post_init__(self):
        _check_shots(self.shots_per_setting)
        if self.seed < 0:
            raise InputError("seed must be non-negative")


def _check_shots(shots: int) -> None:
    """Reject shot counts the int64 multinomial draw cannot take."""
    if not 1 <= shots <= _MAX_SHOTS:
        raise InputError(f"shot counts must be in [1, {_MAX_SHOTS}], got {shots}")


class CurvePoint(NamedTuple):
    shots: int
    estimate: float
    std_error: float


def measurement_settings(spec: WitnessSpec) -> tuple:
    """Axes that actually need a measurement setting (nonzero coefficient)."""
    return tuple(a for a, c in zip(kernels.AXES, spec.coefficients) if c != 0.0)


def _count_statistics(values: np.ndarray, counts: np.ndarray) -> tuple[float, float]:
    """Mean and ddof=1 variance of `values[b]` observed `counts[b]` times."""
    shots = int(counts.sum())
    mean = float(counts @ values) / shots
    return mean, float(counts @ (values - mean) ** 2) / max(shots - 1, 1)


def _estimate(state: StateVector, spec: WitnessSpec, shots: int,
              seed_words: tuple) -> tuple[float, float]:
    _check_state(state, spec)
    norm = math.comb(spec.n_qubits, 2)
    weights = pair_weight_matrix(spec)
    signs = kernels.outcome_signs(state.n_qubits)
    sigma_est = 0.0
    variance = 0.0
    for axis_pos, (axis, c) in enumerate(zip(kernels.AXES, spec.coefficients)):
        if c == 0.0:
            continue
        rng = np.random.default_rng([*seed_words, axis_pos])
        probs = readout_probabilities(state, axis)
        counts = rng.multinomial(shots, probs / probs.sum())
        # per-shot pair sum sum_{i<j} w_ij e_i e_j, once per observed outcome
        seen = np.flatnonzero(counts)
        values = 0.5 * np.sum(signs[:, seen] * (weights @ signs[:, seen]), axis=0)
        mean, var = _count_statistics(values, counts[seen])
        sigma_est += c * mean / norm
        if shots < 2:
            # single shot: fall back on the worst case for a bounded variable
            var = float(np.abs(weights).sum() / 2.0) ** 2
        variance += (c / norm) ** 2 * var / shots
    return 1.0 - sigma_est, math.sqrt(variance)


def estimate_witness(state: StateVector, spec: WitnessSpec,
                     plan: ShotPlan) -> tuple[float, float]:
    """Shot-limited estimate of <W(k)> with its standard error.

    Deterministic for a fixed plan: the RNG substream of each setting is
    derived from (seed, axis index).
    """
    return _estimate(state, spec, plan.shots_per_setting, (plan.seed,))


def convergence_curve(state: StateVector, spec: WitnessSpec, shot_grid,
                      seed: int = 0) -> list[CurvePoint]:
    """Independent witness estimates over a grid of shot counts.

    Grid points use disjoint substreams (seed, point index, axis index), so
    the curve samples independent experiments of growing size.
    """
    shot_grid = [int(s) for s in shot_grid]
    if not shot_grid:
        raise InputError("shot grid must be nonempty")
    for shots in shot_grid:
        _check_shots(shots)
    if seed < 0:
        raise InputError("seed must be non-negative")
    return [CurvePoint(shots, *_estimate(state, spec, shots, (seed, pos)))
            for pos, shots in enumerate(shot_grid)]
