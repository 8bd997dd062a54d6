"""See-saw optimizer: enumeration, monotonicity, soundness, and oracles."""

import math

import numpy as np
import pytest

import sfwitness.bisep as bisep
from sfwitness import (Bipartition, InputError, WitnessSpec,
                       assemble_cut_state, bisep_bound, enumerate_bipartitions,
                       gme_detected, make_dicke, make_phased_dicke,
                       make_product_density, product_bound, seesaw_max,
                       sigma_operator, sigma_value)
from sfwitness.bisep import _effective_operator, _partition_tensor, _seesaw_once
from sfwitness.reports import cut_grid_max_3, product_grid_max_2, product_grid_max_3
from conftest import random_spec

PHASED_SPEC_4 = WitnessSpec(4, math.pi, 1, 1, 1)


class TestBipartition:
    def test_canonical_form_orders_sites(self):
        cut = Bipartition((3, 1), (2, 4))
        assert cut.part_a == (1, 3)
        assert cut.part_b == (2, 4)

    def test_rejects_empty_block(self):
        with pytest.raises(InputError):
            Bipartition((1, 2), ())

    def test_rejects_non_partition(self):
        with pytest.raises(InputError):
            Bipartition((1, 2), (2, 3))

    def test_rejects_site_one_in_part_b(self):
        with pytest.raises(InputError):
            Bipartition((2,), (1, 3))


class TestEnumeration:
    def test_three_qubits(self):
        cuts = enumerate_bipartitions(3)
        as_sets = [(set(c.part_a), set(c.part_b)) for c in cuts]
        assert ({1}, {2, 3}) in as_sets
        assert ({1, 2}, {3}) in as_sets
        assert ({1, 3}, {2}) in as_sets
        assert len(cuts) == 3

    @pytest.mark.parametrize("n, count", [(2, 1), (3, 3), (4, 7), (5, 15)])
    def test_counts(self, n, count):
        assert len(enumerate_bipartitions(n)) == count

    def test_deterministic_order(self):
        assert enumerate_bipartitions(4) == enumerate_bipartitions(4)

    def test_too_small(self):
        with pytest.raises(InputError):
            enumerate_bipartitions(1)


class TestEffectiveOperator:
    def test_against_naive_partial_contraction(self, rng):
        # explicit double loop over assembled basis indices, n <= 4
        for n in (3, 4):
            spec = random_spec(rng, n)
            matrix = sigma_operator(spec)
            cut = enumerate_bipartitions(n)[1]
            parts = (cut.part_a, cut.part_b)
            tensor, dims = _partition_tensor(matrix, n, parts)
            vec_b = rng.standard_normal(dims[1]) + 1j * rng.standard_normal(dims[1])
            vec_b /= np.linalg.norm(vec_b)
            vec_a = rng.standard_normal(dims[0]) + 1j * rng.standard_normal(dims[0])
            vec_a /= np.linalg.norm(vec_a)

            def global_index(bits_a, bits_b):
                bits = {}
                for pos, site in enumerate(parts[0]):
                    bits[site] = (bits_a >> (len(parts[0]) - 1 - pos)) & 1
                for pos, site in enumerate(parts[1]):
                    bits[site] = (bits_b >> (len(parts[1]) - 1 - pos)) & 1
                return sum(bits[s] << (n - s) for s in range(1, n + 1))

            naive = np.zeros((dims[0], dims[0]), dtype=complex)
            for x in range(dims[0]):
                for xp in range(dims[0]):
                    for y in range(dims[1]):
                        for yp in range(dims[1]):
                            naive[x, xp] += (vec_b[y].conjugate() * vec_b[yp]
                                             * matrix[global_index(x, y),
                                                      global_index(xp, yp)])
            eff = _effective_operator(tensor, [vec_a, vec_b], hold=0)
            assert np.allclose(eff, naive, atol=1e-12)


class TestSeesaw:
    def test_two_qubit_maximum(self):
        spec = WitnessSpec(2, 0.0, 1, 1, 1)
        result = seesaw_max(spec, Bipartition((1,), (2,)), restarts=20, seed=3)
        assert result.bound == pytest.approx(1.0, abs=1e-9)

    def test_zero_operator(self):
        spec = WitnessSpec(3, 0.0, 0, 0, 0)
        for cut in enumerate_bipartitions(3):
            assert seesaw_max(spec, cut, restarts=3, seed=0).bound == pytest.approx(0.0)

    def test_monotone_ascent_per_half_step(self, rng):
        spec = random_spec(rng, 4)
        tensor, dims = _partition_tensor(sigma_operator(spec), 4, ((1, 3), (2, 4)))
        for restart in range(5):
            trace = _seesaw_once(tensor, dims, np.random.default_rng(restart),
                                 tol=1e-10, max_iter=200)[4]
            assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))

    def test_reproducible_for_fixed_seed(self):
        runs = [seesaw_max(PHASED_SPEC_4, Bipartition((1, 2), (3, 4)),
                           restarts=5, seed=11) for _ in range(2)]
        assert runs[0].bound == runs[1].bound
        for a, b in zip(runs[0].best_state, runs[1].best_state):
            assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_cut_mismatch(self):
        with pytest.raises(InputError):
            seesaw_max(PHASED_SPEC_4, Bipartition((1,), (2, 3)))

    @pytest.mark.parametrize("run", [seesaw_max, bisep_bound, product_bound],
                             ids=["seesaw_max", "bisep_bound", "product_bound"])
    @pytest.mark.parametrize("params", [
        {"tol": math.nan}, {"tol": -1.0}, {"tol": math.inf}, {"max_iter": 0},
    ], ids=["tol-nan", "tol-negative", "tol-inf", "max_iter-0"])
    def test_rejects_bad_tol_and_max_iter(self, run, params):
        args = (Bipartition((1, 2), (3, 4)),) if run is seesaw_max else ()
        with pytest.raises(InputError):
            run(PHASED_SPEC_4, *args, restarts=1, **params)

    @pytest.mark.parametrize("search", [
        lambda spec: seesaw_max(spec, Bipartition((1, 2), (3, 4)), restarts=2),
        lambda spec: product_bound(spec, restarts=2),
    ], ids=["cut", "product"])
    def test_recheck_rejects_disagreeing_value(self, search, monkeypatch):
        # |<Sigma>| <= |c_x| + |c_y| + |c_z| = 3, so 10 disagrees with any see-saw value
        monkeypatch.setattr(bisep, "sigma_value", lambda state, spec: 10.0)
        with pytest.raises(ArithmeticError):
            search(PHASED_SPEC_4)


class TestBisepBound:
    def test_four_qubit_value(self):
        result = bisep_bound(PHASED_SPEC_4, restarts=40, seed=0)
        assert result.bound == pytest.approx(1.187, abs=0.01)

    def test_two_qubits_single_cut(self):
        spec = WitnessSpec(2, 0.0, 0.4, -0.9, 0.2)
        bound = bisep_bound(spec, restarts=20, seed=1)
        single = seesaw_max(spec, Bipartition((1,), (2,)), restarts=20, seed=1)
        assert bound.bound == single.bound

    def test_soundness_of_stored_state(self):
        result = bisep_bound(PHASED_SPEC_4, restarts=20, seed=2)
        assembled = assemble_cut_state(result.best_cut, *result.best_state)
        assert sigma_value(assembled, PHASED_SPEC_4) == pytest.approx(
            result.bound, abs=1e-9)

    def test_sandwich(self, rng):
        for _ in range(3):
            spec = random_spec(rng, 4)
            product = product_bound(spec, restarts=25, seed=4)
            bisep = bisep_bound(spec, restarts=25, seed=4).bound
            top = float(np.linalg.eigvalsh(sigma_operator(spec))[-1])
            assert product <= bisep + 1e-9
            assert bisep <= top + 1e-9


class TestProductBound:
    def test_never_exceeds_one(self, rng):
        for _ in range(4):
            spec = random_spec(rng, int(rng.integers(2, 6)))
            assert product_bound(spec, restarts=25, seed=5) <= 1.0 + 1e-6

    def test_dicke_witness_attains_one(self):
        value = product_bound(WitnessSpec(4, 0.0, 1, 1, -1), restarts=30, seed=6)
        assert 0.99 <= value <= 1.0 + 1e-6

    def test_two_qubit_isotropic(self):
        value = product_bound(WitnessSpec(2, 0.0, 1, 1, 1), restarts=20, seed=7)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_zero_coefficients(self):
        assert product_bound(WitnessSpec(3, 0.0, 0, 0, 0),
                             restarts=3, seed=0) == pytest.approx(0.0)


class TestGmeDetected:
    def test_phased_dicke_exceeds_bound(self):
        result = bisep_bound(PHASED_SPEC_4, restarts=40, seed=0)
        assert gme_detected(make_phased_dicke(4, 2), PHASED_SPEC_4, result)

    def test_product_state_below_bound(self):
        result = bisep_bound(PHASED_SPEC_4, restarts=20, seed=0)
        rho = make_product_density([(0, 0, 1)] * 4)
        assert not gme_detected(rho, PHASED_SPEC_4, result)

    def test_spec_mismatch(self):
        result = bisep_bound(PHASED_SPEC_4, restarts=5, seed=0)
        other = WitnessSpec(4, 0.0, 1, 1, -1)
        with pytest.raises(InputError):
            gme_detected(make_dicke(4, 2), other, result)


class TestGridOracles:
    def test_two_qubit_seesaw_matches_grid(self, rng):
        for _ in range(3):
            spec = random_spec(rng, 2)
            seesaw = bisep_bound(spec, restarts=25, seed=8).bound
            grid = product_grid_max_2(spec)
            assert seesaw == pytest.approx(grid, abs=1e-3)
            # independent closed form: max_n |diag(w c) n| = w max|c|
            analytic = abs(spec.pair_weight(1, 2)) * max(
                abs(c) for c in spec.coefficients)
            assert grid == pytest.approx(analytic, abs=1e-6)

    def test_three_qubit_product_matches_grid(self, rng):
        for _ in range(2):
            spec = random_spec(rng, 3)
            seesaw = product_bound(spec, restarts=25, seed=9)
            assert seesaw == pytest.approx(product_grid_max_3(spec), abs=1e-3)

    def test_three_qubit_cuts_match_grid(self, rng):
        spec = random_spec(rng, 3)
        for cut in enumerate_bipartitions(3):
            seesaw = seesaw_max(spec, cut, restarts=25, seed=10).bound
            assert seesaw == pytest.approx(cut_grid_max_3(spec, cut), abs=1e-3)

    def test_oracles_do_not_use_the_seesaw(self, monkeypatch):
        specs = [WitnessSpec(2, 0.7, 0.3, -0.9, 0.5),
                 WitnessSpec(3, 2.1, -0.4, 0.8, 0.6)]
        cuts = enumerate_bipartitions(3)

        def oracle_values():
            return ([product_grid_max_2(specs[0]), product_grid_max_3(specs[1])]
                    + [cut_grid_max_3(specs[1], cut) for cut in cuts])

        expected = oracle_values()

        def forbidden(*args, **kwargs):
            raise AssertionError("grid oracle reached the see-saw")

        for name in ("_partition_tensor", "_effective_operator", "_seesaw_once",
                     "_best_restart"):
            monkeypatch.setattr(bisep, name, forbidden)
        assert oracle_values() == expected
