"""Shot-noise simulation of the witness measurement."""

import math

import numpy as np
import pytest

from sfwitness import (InputError, ShotPlan, WitnessSpec, convergence_curve,
                       estimate_witness, make_basis_state, make_dicke,
                       make_phased_dicke, witness_value)
from sfwitness.sampling import _count_statistics, measurement_settings

DICKE_SPEC_4 = WitnessSpec(4, 0.0, 1, 1, -1)
PHASED_SPEC_4 = WitnessSpec(4, math.pi, 1, 1, 1)


class TestShotPlan:
    def test_rejects_zero_shots(self):
        with pytest.raises(InputError):
            ShotPlan(0, seed=1)


class TestSettings:
    def test_at_most_three(self):
        assert len(measurement_settings(PHASED_SPEC_4)) == 3

    def test_zero_coefficients_drop_settings(self):
        assert measurement_settings(WitnessSpec(4, 0.0, 1, 0, -1)) == ("x", "z")
        assert measurement_settings(WitnessSpec(4, 0.0, 0, 0, 0)) == ()


class TestCountStatistics:
    def test_matches_repeated_samples(self, rng):
        for _ in range(20):
            values = rng.normal(size=int(rng.integers(1, 40)))
            counts = rng.integers(0, 6, size=values.size)
            counts[0] += 2
            samples = np.repeat(values, counts)
            mean, var = _count_statistics(values, counts)
            assert mean == pytest.approx(samples.mean(), rel=1e-12, abs=1e-14)
            assert var == pytest.approx(samples.var(ddof=1), rel=1e-12, abs=1e-14)

    def test_single_outcome_has_zero_variance(self):
        mean, var = _count_statistics(np.array([6.0]), np.array([100]))
        assert (mean, var) == (6.0, 0.0)


class TestEstimateWitness:
    def test_deterministic_for_fixed_seed(self):
        plan = ShotPlan(500, seed=42)
        first = estimate_witness(make_dicke(4, 2), DICKE_SPEC_4, plan)
        second = estimate_witness(make_dicke(4, 2), DICKE_SPEC_4, plan)
        assert first == second

    def test_close_to_exact_at_many_shots(self):
        est, err = estimate_witness(make_dicke(4, 2), DICKE_SPEC_4,
                                    ShotPlan(100_000, seed=7))
        assert est == pytest.approx(-2 / 3, abs=5 * err)
        assert err < 0.01

    def test_zero_variance_case(self):
        spec = WitnessSpec(4, 0.0, 0, 0, 1)
        est, err = estimate_witness(make_basis_state(4, "0000"), spec,
                                    ShotPlan(100, seed=0))
        # every shot reads |0000>, so sigma = 1 exactly and the error vanishes
        assert est == pytest.approx(0.0, abs=1e-15)
        assert err == 0.0

    def test_single_shot_has_positive_error(self):
        est, err = estimate_witness(make_dicke(4, 2), DICKE_SPEC_4,
                                    ShotPlan(1, seed=3))
        assert math.isfinite(est)
        assert 0.0 < err < math.inf

    def test_unbiased_over_seeds(self):
        state = make_phased_dicke(4, 2)
        exact = witness_value(state, PHASED_SPEC_4)
        estimates, errors = [], []
        for seed in range(100):
            est, err = estimate_witness(state, PHASED_SPEC_4, ShotPlan(400, seed=seed))
            estimates.append(est)
            errors.append(err)
        pooled = math.sqrt(sum(e ** 2 for e in errors)) / len(errors)
        assert np.mean(estimates) == pytest.approx(exact, abs=3 * pooled)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            estimate_witness(make_dicke(3, 1), DICKE_SPEC_4, ShotPlan(10, seed=0))

    def test_shots_far_above_outcome_count(self):
        # 10^7 shots over 16 outcomes: counts keep memory at O(2^N)
        est, err = estimate_witness(make_phased_dicke(4, 2), PHASED_SPEC_4,
                                    ShotPlan(10 ** 7, seed=11))
        assert est == pytest.approx(-4 / 9, abs=5 * err)
        assert err < 1e-3


class TestConvergenceCurve:
    def test_error_halves_when_shots_quadruple(self):
        curve = convergence_curve(make_dicke(4, 2), DICKE_SPEC_4,
                                  [10 ** e for e in range(2, 6)], seed=5)
        slope = float(np.polyfit(np.log10([p.shots for p in curve]),
                                 np.log10([p.std_error for p in curve]), 1)[0])
        assert slope == pytest.approx(-0.5, abs=0.1)

    def test_estimate_within_errors(self):
        curve = convergence_curve(make_phased_dicke(4, 2), PHASED_SPEC_4,
                                  [10_000], seed=1)
        point = curve[0]
        assert point.estimate == pytest.approx(-4 / 9, abs=3 * point.std_error)

    def test_empty_coefficients_give_exact_one(self):
        spec = WitnessSpec(4, 0.0, 0, 0, 0)
        curve = convergence_curve(make_dicke(4, 2), spec, [10, 100], seed=0)
        for point in curve:
            assert point.estimate == 1.0
            assert point.std_error == 0.0

    def test_points_use_independent_substreams(self):
        curve = convergence_curve(make_dicke(4, 2), DICKE_SPEC_4, [500, 500], seed=9)
        assert curve[0].estimate != curve[1].estimate

    def test_empty_grid(self):
        with pytest.raises(InputError):
            convergence_curve(make_dicke(4, 2), DICKE_SPEC_4, [], seed=0)
