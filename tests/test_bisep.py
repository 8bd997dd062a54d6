"""See-saw optimizer: enumeration, monotonicity, soundness, and oracles."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

import sfwitness.bisep as bisep
import sfwitness.states as states
import sfwitness.witness as witness
from sfwitness import (Bipartition, InputError, ResourceError, SiteLayout,
                       StateVector, UnsupportedCaseError, WitnessSpec,
                       assemble_cut_state, bisep_bound, enumerate_bipartitions,
                       gme_detected, make_dicke, make_phased_dicke,
                       make_product_density, product_bound, seesaw_max,
                       sigma_operator, sigma_value)
from sfwitness.reports import cut_grid_max_3, product_grid_max_2, product_grid_max_3
import seesaw_reference
from conftest import automorphism_closure, random_spec

PHASED_SPEC_4 = WitnessSpec(4, math.pi, 1, 1, 1)

# (spec args, restarts, seed, product_bound) from the dense N-block see-saw
PRODUCT_PINS = [
    ((3, math.pi, 1, 1, 1), 20, 0, 0.9999999999999746),
    ((4, math.pi, 1, 1, 1), 20, 1, 0.9999999999999685),
    ((6, math.pi, 1, 1, 1), 10, 2, 0.9999999999999806),
    ((8, math.pi, 1, 1, 1), 3, 3, 0.9999999999999263),
    ((3, 0.0, 0, 0, 0), 3, 0, 0.0),
    ((4, 0.0, 1, 1, -1), 15, 4, 0.9999999999995433),
    ((5, 0.7, 0.3, -0.9, 0.5, SiteLayout((0, 1, 2.5, 4, 4.5))), 15, 5, 0.2785938675947037),
    ((4, 2.1, -0.4, 0.8, 0.6, SiteLayout((0, 0.3, 1.7, 2))), 15, 6, 0.6540429088146156),
    ((6, 1.3, 0.9, 0.2, -0.7, SiteLayout((0, 0.5, 1.75, 2, 3.1, 4))), 10, 7,
     0.41892919749142055),
]

# (PRODUCT_PINS index, max_iter, seed, value) of one restart stopped after its first
# sweeps, so the start points and the iterates are pinned, not only the maximum
SWEEP_PINS = [
    (6, 1, 0, 0.18210904314896476),
    (6, 2, 11, 0.24868375145065613),
    (8, 1, 11, 0.40317186317710096),
    (8, 2, 0, 0.41721340382556843),
]

# (spec args, restarts, seed, max_iter, bisep_bound: bound, best cut, iterations,
# converged); the max_iter=3 case pins an unconverged winner
CUT_PINS = [
    ((4, math.pi, 1, 1, 1), 20, 0, 500, 1.1871842709362779, ((1,), (2, 3, 4)), 2, True),
    ((6, math.pi, 1, 1, 1), 4, 1, 500, 1.157796855855963, ((1,), (2, 3, 4, 5, 6)), 2,
     True),
    ((5, 0.7, 0.3, -0.9, 0.5, SiteLayout((0, 1, 2.5, 4, 4.5))), 10, 5, 500,
     0.366904405937144, ((1, 2, 4, 5), (3,)), 9, True),
    ((4, 2.1, -0.4, 0.8, 0.6, SiteLayout((0, 0.3, 1.7, 2))), 5, 6, 3,
     0.6952888071750901, ((1, 2), (3, 4)), 3, False),
    ((3, 0.0, 0, 0, 0), 3, 0, 500, 0.0, ((1,), (2, 3)), 2, True),
]

# (CUT_PINS index, bound, best cut) when every cut ran its own see-saw; the best cut
# moved to the first cut of its symmetry orbit, which runs on its own seeds
ALL_CUT_PINS = [
    (0, 1.187184270936279, ((1, 2, 3), (4,))),
    (1, 1.1577968558559653, ((1, 2, 3, 4, 5), (6,))),
]


def cut_image(perm, cut):
    """Canonical image of a cut under the 0-based site permutation `perm`."""
    moved = {perm[q - 1] + 1 for q in cut.part_a}
    rest = set(range(1, cut.n_qubits + 1)) - moved
    return Bipartition(*((moved, rest) if 1 in moved else (rest, moved)))


def orbits_by_search(generators, n_qubits):
    """Orbits of the cut indices of enumerate_bipartitions under `generators`, in order of
    their first cut, found by following cut_image from each cut not yet reached."""
    cuts = enumerate_bipartitions(n_qubits)
    index = {cut: i for i, cut in enumerate(cuts)}
    orbits = []
    for start in range(len(cuts)):
        if any(start in orbit for orbit in orbits):
            continue
        orbit = frontier = {start}
        while frontier:
            frontier = {index[cut_image(p, cuts[c])] for c in frontier for p in generators}
            frontier -= orbit
            orbit = orbit | frontier
        orbits.append(orbit)
    return orbits


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

    @pytest.mark.parametrize("part_a", [(1, 2.7), (1, 2.0), (True, 2), (1, np.bool_(True))],
                             ids=["fraction", "float", "bool", "numpy-bool"])
    def test_rejects_non_integer_site_labels(self, part_a):
        # int() would truncate 2.7 to 2 and read True as 1
        with pytest.raises(InputError, match="site label must be an integer"):
            Bipartition(part_a, (3,))

    def test_accepts_numpy_integer_site_labels(self):
        cut = Bipartition((np.int64(1), np.int32(3)), (np.uint8(2),))
        assert (cut.part_a, cut.part_b) == ((1, 3), (2,))
        assert all(type(q) is int for q in cut.part_a + cut.part_b)


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
    def test_against_naive_partial_contraction(self, rng, monkeypatch):
        # explicit double loop over the dense operator at assembled basis indices, n <= 4,
        # either block held, for each row of a stack of three held factors; the last case
        # has a non-uniform layout and k not in {0, pi}. The free block's operator is the stack
        # its top passes to eigh, with the cross term sum_a c_a (U_A^a U_B^a + V_A^a V_B^a) /
        # C(N,2) read from the held block's moments, and its shift the held block's own pair sum
        eigh, passed = np.linalg.eigh, []

        def recording_eigh(matrices):
            passed.append(matrices)
            return eigh(matrices)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        cases = [(random_spec(rng, 3), 1), (random_spec(rng, 4), 1),
                 (WitnessSpec(4, 2.1, -0.4, 0.8, 0.6, SiteLayout((0, 0.3, 1.7, 2))), 2)]
        for spec, cut_index in cases:
            n, norm = spec.n_qubits, math.comb(spec.n_qubits, 2)
            matrix = sigma_operator(spec)
            cut = enumerate_bipartitions(n)[cut_index]
            parts = (cut.part_a, cut.part_b)
            blocks = [bisep._block([q - 1 for q in part], spec, norm) for part in parts]
            coupling = np.tile(spec.coefficients, 2) / norm
            dims = [2 ** len(part) for part in parts]
            stack_b = rng.standard_normal((3, dims[1])) + 1j * rng.standard_normal((3, dims[1]))
            stack_b /= np.linalg.norm(stack_b, axis=1, keepdims=True)
            stack_a = rng.standard_normal((3, dims[0])) + 1j * rng.standard_normal((3, dims[0]))
            stack_a /= np.linalg.norm(stack_a, axis=1, keepdims=True)

            def global_index(free, fixed, hold):
                bits_a, bits_b = (free, fixed) if hold == 0 else (fixed, free)
                bits = {}
                for pos, site in enumerate(parts[0]):
                    bits[site] = (bits_a >> (len(parts[0]) - 1 - pos)) & 1
                for pos, site in enumerate(parts[1]):
                    bits[site] = (bits_b >> (len(parts[1]) - 1 - pos)) & 1
                return sum(bits[s] << (n - s) for s in range(1, n + 1))

            for hold in (0, 1):
                stack = (stack_a, stack_b)[1 - hold]
                moments = blocks[1 - hold][0](stack)
                passed.clear()
                blocks[hold][1](coupling * moments[:, 1:], (stack_a, stack_b)[hold])
                (operators,), shifts = passed, moments[:, 0]
                assert operators.shape == (3, dims[hold], dims[hold]) and shifts.shape == (3,)
                for held, operator, shift in zip(stack, operators, shifts):
                    # x, xp index the free block and y, yp the held one
                    naive = np.zeros((dims[hold], dims[hold]), dtype=complex)
                    for x in range(dims[hold]):
                        for xp in range(dims[hold]):
                            for y in range(dims[1 - hold]):
                                for yp in range(dims[1 - hold]):
                                    naive[x, xp] += (held[y].conjugate() * held[yp]
                                                     * matrix[global_index(x, y, hold),
                                                              global_index(xp, yp, hold)])
                    assert np.allclose(operator + shift * np.eye(dims[hold]), naive,
                                       atol=1e-12)


class TestSeesaw:
    def test_two_qubit_maximum(self):
        spec = WitnessSpec(2, 0.0, 1, 1, 1)
        result = seesaw_max(spec, Bipartition((1,), (2,)), restarts=20, seed=3)
        assert result.bound == pytest.approx(1.0, abs=1e-9)

    def test_zero_operator(self):
        spec = WitnessSpec(3, 0.0, 0, 0, 0)
        for cut in enumerate_bipartitions(3):
            assert seesaw_max(spec, cut, restarts=3, seed=0).bound == pytest.approx(0.0)

    def test_monotone_ascent_per_half_step(self, rng, monkeypatch):
        # every eigh of a one-restart run is one half-step on a stack of one operator that
        # replaces block A, then B, with its top eigenvector; <Sigma> after each is
        # recomputed by sigma_value
        spec = random_spec(rng, 4)
        cut = Bipartition((1, 3), (2, 4))
        eigh, normalize = np.linalg.eigh, states._normalized_amplitudes
        starts, tops = [], []

        def recording_draw(normals):
            amplitudes = normalize(normals)
            starts.extend(amplitudes.copy())  # one factor's stack of one restart
            return amplitudes

        def recording_eigh(matrices):
            eigvals, eigvecs = eigh(matrices)
            assert len(matrices) == 1
            tops.append(eigvecs[0, :, -1])
            return eigvals, eigvecs

        monkeypatch.setattr(states, "_normalized_amplitudes", recording_draw)
        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        for seed in range(5):
            starts.clear()
            tops.clear()
            result = seesaw_max(spec, cut, restarts=1, tol=1e-10, max_iter=200, seed=seed)
            assert len(starts) == 2 and len(tops) == 2 * result.iterations
            factors, values = list(starts), []
            for step, top in enumerate(tops):
                factors[step % 2] = top
                values.append(sigma_value(assemble_cut_state(
                    cut, *(StateVector(2, factor) for factor in factors)), spec))
            assert values[-1] == pytest.approx(result.bound, abs=1e-12)
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_restart_driver_stop_rule_and_first_best(self):
        # per-restart values by sweep: run 0 gains exactly tol on its second sweep, so it
        # does not stop there; run 1 stops after two sweeps and is frozen while the others
        # go on; run 2 ties with run 0, which wins as the first best; run 3 is cut off by
        # max_iter below the best. The same holds whether 4, 3 or 1 runs form a stack, and a
        # stack's runs are drawn, and its start made once from their rows, only once the
        # previous stack is done.
        table = {0: [2.0, 2.5, 3.5, 3.5], 1: [1.0, 1.2], 2: [3.0, 3.5, 3.5],
                 3: [0.0, 1.0, 2.0, 3.0, 3.4]}
        events = {4: ["draw 0-3", [0, 1, 2, 3], [0, 1, 2, 3], [0, 2, 3], [0, 3], [3]],
                  3: ["draw 0-2", [0, 1, 2], [0, 1, 2], [0, 2], [0], "draw 3-3", *[[3]] * 5],
                  1: ["draw 0-0", *[[0]] * 4, "draw 1-1", *[[1]] * 2, "draw 2-2", *[[2]] * 3,
                      "draw 3-3", *[[3]] * 5]}
        for stack, expected in events.items():
            runs, seen = iter(range(4)), []

            def draw(rng):
                run = next(runs)
                if run % stack == 0:
                    seen.append(f"draw {run}-{min(run + stack, 4) - 1}")
                return 10 * run

            def start(normals):
                return [normals]

            def sweep(points, rows):
                # a point is 10 * run + sweeps done, so the winner's point shows its sweeps
                points[0][rows] += 1
                swept = points[0][rows]
                seen.append((swept // 10).tolist())
                return np.array([table[p // 10][p % 10 - 1] for p in swept])

            best = bisep._best_run(draw, start, sweep, (0,), restarts=4, tol=0.5, max_iter=5,
                                   stack=stack)
            assert best == (3.5, [4], 4, True)
            assert seen == expected

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

    @pytest.mark.parametrize("run", [seesaw_max, bisep_bound, product_bound],
                             ids=["seesaw_max", "bisep_bound", "product_bound"])
    @pytest.mark.parametrize("params", [
        {"restarts": 2.5}, {"restarts": True}, {"max_iter": 1.5}, {"max_iter": True},
        {"seed": 1.5}, {"seed": False},
    ], ids=["restarts-float", "restarts-bool", "max_iter-float", "max_iter-bool",
            "seed-float", "seed-bool"])
    def test_rejects_non_integer_run_params(self, run, params):
        args = (Bipartition((1, 2), (3, 4)),) if run is seesaw_max else ()
        name = next(iter(params))
        with pytest.raises(InputError, match=f"{name} must be an integer"):
            run(PHASED_SPEC_4, *args, **{"restarts": 1, **params})

    @pytest.mark.parametrize("run", [seesaw_max, bisep_bound, product_bound],
                             ids=["seesaw_max", "bisep_bound", "product_bound"])
    def test_numpy_integer_run_params_give_the_same_result(self, run):
        args = (Bipartition((1, 2), (3, 4)),) if run is seesaw_max else ()
        results = [run(PHASED_SPEC_4, *args, restarts=restarts, seed=seed, max_iter=max_iter)
                   for restarts, seed, max_iter in [(2, 3, 4),
                                                    (np.int64(2), np.uint32(3), np.int16(4))]]
        bounds = [getattr(result, "bound", result) for result in results]  # product: a float
        assert bounds[0] == bounds[1]

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

    @pytest.mark.parametrize("args, restarts, seed, max_iter, bound, cut, iterations, "
                             "converged", CUT_PINS,
                             ids=[f"case{i}" for i in range(len(CUT_PINS))])
    def test_pinned_results(self, args, restarts, seed, max_iter, bound, cut,
                            iterations, converged):
        result = bisep_bound(WitnessSpec(*args), restarts=restarts, seed=seed,
                             max_iter=max_iter)
        assert (result.bound, result.best_cut, result.iterations, result.converged) == (
            bound, Bipartition(*cut), iterations, converged)

    @pytest.mark.parametrize("args, restarts, seed, max_iter, bound, cut, iterations, "
                             "converged", CUT_PINS,
                             ids=[f"case{i}" for i in range(len(CUT_PINS))])
    def test_pins_without_the_dense_operator(self, args, restarts, seed, max_iter, bound,
                                             cut, iterations, converged, monkeypatch):
        # no sigma_operator, and every pair operator a cut builds is one block's own
        spec = WitnessSpec(*args)
        pair_operator = witness._pair_operator
        sizes = []

        def forbidden(*_, **__):
            raise AssertionError("the cut see-saw built sigma_operator")

        def recording(weights, *rest):
            sizes.append(len(weights))
            return pair_operator(weights, *rest)

        monkeypatch.setattr(witness, "sigma_operator", forbidden)
        monkeypatch.setattr(bisep, "sigma_operator", forbidden, raising=False)
        monkeypatch.setattr(witness, "_pair_operator", recording)
        result = bisep_bound(spec, restarts=restarts, seed=seed, max_iter=max_iter)
        assert (result.bound, result.best_cut, result.iterations, result.converged) == (
            bound, Bipartition(*cut), iterations, converged)
        # seesaw_max seeds its cut as cut index 0, so it repeats the pins won there
        if Bipartition(*cut) == enumerate_bipartitions(spec.n_qubits)[0]:
            single = seesaw_max(spec, Bipartition(*cut), restarts=restarts, seed=seed,
                                max_iter=max_iter)
            assert (single.bound, single.iterations, single.converged) == (
                bound, iterations, converged)
        assert max(sizes) < spec.n_qubits

    @pytest.mark.parametrize("search", [
        lambda spec: bisep_bound(spec, restarts=2),
        lambda spec: seesaw_max(spec, Bipartition((1, 2), (3, 4)), restarts=2),
    ], ids=["bisep_bound", "seesaw_max"])
    def test_operator_cap_checked_before_any_sweep(self, search, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the see-saw ran above the cap")

        monkeypatch.setattr(states, "OPERATOR_MAX_QUBITS", 3)
        monkeypatch.setattr(bisep, "_best_run", forbidden)
        monkeypatch.setattr(bisep, "_block", forbidden)
        with pytest.raises(ResourceError, match="OPERATOR_MAX_QUBITS"):
            search(PHASED_SPEC_4)

    @pytest.mark.parametrize("pin, all_cut_bound, all_cut_best", ALL_CUT_PINS)
    def test_orbit_pins_match_the_run_over_every_cut(self, pin, all_cut_bound,
                                                     all_cut_best):
        args, _, _, _, bound, cut, _, _ = CUT_PINS[pin]
        assert abs(bound - all_cut_bound) <= 1e-9
        weights = witness.pair_weight_matrix(WitnessSpec(*args))
        group = automorphism_closure(bisep._automorphisms(weights), len(weights))
        assert Bipartition(*cut) in {cut_image(p, Bipartition(*all_cut_best)) for p in group}

    @pytest.mark.parametrize("args, orbits", [
        ((4, math.pi, 1, 1, 1), [(0, 4), (1, 2), (2, 1)]),
        ((4, 0.3, 0.2, -0.5, 0.9), [(0, 2), (1, 1), (2, 1), (4, 1), (5, 2)]),
        ((4, 2.1, -0.4, 0.8, 0.6, SiteLayout((0, 0.3, 1.7, 2))),
         [(index, 1) for index in range(7)]),
    ], ids=["k-pi", "mirror", "no-symmetry"])
    def test_one_seesaw_per_orbit(self, args, orbits, monkeypatch):
        # the layout (0, 0.3, 1.7, 2) looks mirror-symmetric, but 2 - 1.7 != 0.3 in floats
        spec = WitnessSpec(*args)
        seesaw_cut = bisep._seesaw_cut
        runs = []

        def recording(spec, cut, *rest):
            runs.append(rest[-2:])
            return seesaw_cut(spec, cut, *rest)

        monkeypatch.setattr(bisep, "_seesaw_cut", recording)
        result = bisep_bound(spec, restarts=3, seed=2)
        assert runs == orbits
        cuts = enumerate_bipartitions(4)
        assert (cuts.index(result.best_cut), result.orbit_size) in orbits
        best = max(seesaw_cut(spec, cuts[index], 3, bisep.DEFAULT_TOL, bisep.DEFAULT_MAX_ITER,
                              2, index).bound for index, _ in orbits)
        assert result.bound == best

    def test_only_orbit_representatives_are_built(self, monkeypatch):
        # listing all 2^(N-1) - 1 cuts took about 25 ms of a 0.2 s bound at N = 12, k = pi
        spec = WitnessSpec(6, math.pi, 1, 1, 1)
        expected = bisep_bound(spec, restarts=2, seed=1)
        labels, cut = [], bisep._cut

        def forbidden(*args):
            raise AssertionError("every cut listed")

        monkeypatch.setattr(bisep, "enumerate_bipartitions", forbidden)
        monkeypatch.setattr(bisep, "_cut", lambda n, label: labels.append(label) or cut(n, label))
        result = bisep_bound(spec, restarts=2, seed=1)
        assert (result.bound, result.best_cut) == (expected.bound, expected.best_cut)
        assert labels == [label for label, _ in bisep._cut_orbits(witness.pair_weight_matrix(spec))]
        assert len(labels) == 5 < 2 ** 5 - 1

    @pytest.mark.parametrize("budget, generators, orbits", [
        (0, 0, 31), (8, 1, 19), (15, 2, 11), (25, 4, 5), (47, 9, 5)])
    def test_budget_leaves_finer_orbits(self, budget, generators, orbits, monkeypatch):
        # the full generator search at k = pi, N = 6 takes 47 nodes
        weights = witness.pair_weight_matrix(WitnessSpec(6, math.pi, 1, 1, 1))
        exact = orbits_by_search(bisep._automorphisms(weights), 6)
        monkeypatch.setattr(bisep, "AUTOMORPHISM_NODE_BUDGET", budget)
        found = bisep._automorphisms(weights)
        assert len(found) == generators
        # only true automorphisms, so each orbit lies inside one exact orbit
        assert all(np.array_equal(weights[np.ix_(p, p)], weights) for p in found)
        finer = orbits_by_search(found, 6)
        assert len(finer) == orbits
        assert all(any(orbit <= full for full in exact) for orbit in finer)
        assert bisep._cut_orbits(weights) == [(min(orbit), len(orbit)) for orbit in finer]


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

    @pytest.mark.parametrize("args, restarts, seed, expected", PRODUCT_PINS,
                             ids=[f"case{i}" for i in range(len(PRODUCT_PINS))])
    def test_pinned_values(self, args, restarts, seed, expected):
        # values of the dense-operator see-saw that product_bound replaced
        assert product_bound(WitnessSpec(*args), restarts=restarts,
                             seed=seed) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("pin, max_iter, seed, expected", SWEEP_PINS)
    def test_first_sweeps_match_the_dense_seesaw(self, pin, max_iter, seed, expected):
        spec = WitnessSpec(*PRODUCT_PINS[pin][0])
        assert product_bound(spec, restarts=1, seed=seed, max_iter=max_iter) == (
            pytest.approx(expected, abs=1e-12))

    def test_no_dense_operator_and_no_eigh(self, monkeypatch):
        # the recheck evaluates the product ket: no operator, no eigensolver, no density
        def forbidden(*args, **kwargs):
            raise AssertionError("product_bound built sigma_operator, called an "
                                 "eigensolver or built a density matrix")

        monkeypatch.setattr(bisep, "sigma_operator", forbidden, raising=False)
        monkeypatch.setattr(witness, "sigma_operator", forbidden)
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        monkeypatch.setattr(states, "make_product_density", forbidden)
        monkeypatch.setattr(states.DensityMatrix, "_psd_by_construction", forbidden)
        args, restarts, seed, expected = PRODUCT_PINS[2]
        assert product_bound(WitnessSpec(*args), restarts=restarts,
                             seed=seed) == pytest.approx(expected, abs=1e-12)

    def test_density_cap_checked_before_iterating(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("product_bound iterated above the cap")

        monkeypatch.setattr(states, "MAX_QUBITS", 3)
        monkeypatch.setattr(bisep, "_best_run", forbidden)
        with pytest.raises(ResourceError, match="cap MAX_QUBITS"):
            product_bound(WitnessSpec(4, math.pi, 1, 1, 1), restarts=2)

    def test_density_cap_does_not_apply(self, monkeypatch):
        monkeypatch.setattr(states, "DENSITY_MAX_QUBITS", 3)
        args, restarts, seed, expected = PRODUCT_PINS[1]
        assert product_bound(WitnessSpec(*args), restarts=restarts,
                             seed=seed) == pytest.approx(expected, abs=1e-12)

    def test_runs_above_the_density_cap(self):
        assert states.DENSITY_MAX_QUBITS < 13
        assert product_bound(WitnessSpec(13, math.pi, 1, 1, 1), restarts=3) <= 1.0 + 1e-6


class TestStackedDriver:
    """The stacked restarts against the per-restart reference loop, bit for bit."""

    # (spec args, cut, restarts, seed, max_iter): a random-k layout, an unconverged
    # max_iter-capped winner, and k = pi with and without a coefficient sign flip
    CUT_CASES = [
        ((5, 0.7, 0.3, -0.9, 0.5, SiteLayout((0, 1, 2.5, 4, 4.5))), ((1, 2, 4, 5), (3,)),
         10, 5, 500),
        ((4, 2.1, -0.4, 0.8, 0.6, SiteLayout((0, 0.3, 1.7, 2))), ((1, 2), (3, 4)), 5, 6, 3),
        ((6, math.pi, 1, 1, 1), ((1, 2, 5), (3, 4, 6)), 12, 3, 500),
        ((5, -1.3, 0.9, 0.2, -0.7, SiteLayout((0, 0.5, 1.75, 2, 3.1))), ((1,), (2, 3, 4, 5)),
         9, 8, 7),
    ]

    @pytest.fixture(params=[None, 32 * 4 ** 3 * 2, 1],
                    ids=["one-stack", "4-kB-stacks", "one-restart-stacks"])
    def stack_bytes(self, request, monkeypatch):
        # None: every restart in one stack; 4 kB: 2 restarts of 3-qubit blocks (6 of 5-site
        # products) per stack; 1 byte: one restart per stack
        if request.param:
            monkeypatch.setattr(states, "_STACK_BYTES", request.param)

    @staticmethod
    def assert_same_cut_run(result, reference, cut):
        bound, factors, iterations, converged = reference
        assert result.bound == bound
        assert result.best_cut == cut
        for state, factor in zip(result.best_state, factors):
            assert np.array_equal(state.amplitudes, factor)
        assert (result.iterations, result.converged) == (iterations, converged)

    @pytest.mark.parametrize("args, parts, restarts, seed, max_iter", CUT_CASES)
    def test_seesaw_max(self, args, parts, restarts, seed, max_iter, stack_bytes):
        spec, cut = WitnessSpec(*args), Bipartition(*parts)
        reference = seesaw_reference.seesaw_cut(spec, cut, restarts, bisep.DEFAULT_TOL,
                                                max_iter, seed)
        result = seesaw_max(spec, cut, restarts=restarts, seed=seed, max_iter=max_iter)
        self.assert_same_cut_run(result, reference, cut)
        if max_iter == 3:
            assert not result.converged

    @pytest.mark.parametrize("args, restarts, seed, max_iter",
                             [case[:4] for case in CUT_PINS]
                             + [((5, -1.3, 0.9, 0.2, -0.7,
                                  SiteLayout((0, 0.5, 1.75, 2, 3.1))), 6, 2, 4)])
    def test_bisep_bound(self, args, restarts, seed, max_iter, stack_bytes):
        spec = WitnessSpec(*args)
        bound, cut, *run = seesaw_reference.bisep_bound(spec, restarts, bisep.DEFAULT_TOL,
                                                        max_iter, seed)
        result = bisep_bound(spec, restarts=restarts, seed=seed, max_iter=max_iter)
        self.assert_same_cut_run(result, (bound, *run), cut)

    @pytest.mark.parametrize("args, restarts, seed, max_iter",
                             [(*pin[:3], 500) for pin in PRODUCT_PINS]
                             + [(PRODUCT_PINS[8][0], 7, 3, 2)])
    def test_product_bound(self, args, restarts, seed, max_iter, monkeypatch, stack_bytes):
        # the winner's Bloch vectors, through the product ket the recheck evaluates
        spec, kets = WitnessSpec(*args), []
        recheck = bisep._recheck

        def recording(value, state, spec):
            kets.append(state.amplitudes)
            return recheck(value, state, spec)

        monkeypatch.setattr(bisep, "_recheck", recording)
        value, blochs = seesaw_reference.product_bound(spec, restarts, bisep.DEFAULT_TOL,
                                                       max_iter, seed)
        assert product_bound(spec, restarts=restarts, seed=seed, max_iter=max_iter) == value
        expected = StateVector(spec.n_qubits, functools.reduce(
            np.kron, states._bloch_to_ket(blochs))).amplitudes
        assert np.array_equal(kets[0], expected)

    def test_starts_are_the_random_state_vector_draws(self, monkeypatch):
        # every restart of every orbit's cut: both factors from one rng, block A first
        spec, drawn = WitnessSpec(5, 0.7, 0.3, -0.9, 0.5, SiteLayout((0, 1, 2.5, 4, 4.5))), []
        best_run = bisep._best_run

        def recording(draw, start, sweep, seed_words, restarts, *args, **kwargs):
            stacks = start(np.array([draw(np.random.default_rng([*seed_words, r]))
                                     for r in range(restarts)]))
            drawn.append((seed_words, [[stack[r] for stack in stacks] for r in range(restarts)]))
            return best_run(draw, start, sweep, seed_words, restarts, *args, **kwargs)

        monkeypatch.setattr(bisep, "_best_run", recording)
        bisep_bound(spec, restarts=4, seed=9)
        cuts = enumerate_bipartitions(5)
        assert [words for words, _ in drawn] == [
            (9, index) for index, _ in bisep._cut_orbits(witness.pair_weight_matrix(spec))]
        for (seed, cut_index), starts in drawn:
            cut = cuts[cut_index]
            for r, factors in enumerate(starts):
                rng = np.random.default_rng([seed, cut_index, r])
                for part, factor in zip((cut.part_a, cut.part_b), factors):
                    assert np.array_equal(
                        factor, states.random_state_vector(len(part), rng).amplitudes)


class TestMatrixFreeBlocks:
    """Blocks above DENSE_BLOCK_MAX_DIM run matrix-free with Lanczos; the per-restart dense
    reference (its own (7, d, d) build and eigh) must agree with them within 1e-9."""

    @pytest.mark.parametrize("args, restarts, seed, max_iter", [
        ((8, math.pi, 1, 1, 1), 3, 0, 500),
        ((8, 0.3, 1, 1, 1), 1, 1, 500),
        ((8, 1.9, 0.6, -0.8, 0.3, SiteLayout((0, 0.4, 1.1, 2, 2.7, 3.5, 4.2, 5))), 1, 2, 40),
        ((10, math.pi, 1, 1, 1), 1, 0, 500),
    ], ids=["8-k-pi", "8-k-0.3", "8-random-layout", "10-k-pi"])
    def test_bisep_bound_matches_the_dense_reference(self, args, restarts, seed, max_iter):
        spec = WitnessSpec(*args)
        cuts = enumerate_bipartitions(spec.n_qubits)
        reference = {index: seesaw_reference.seesaw_cut(spec, cuts[index], restarts,
                                                        bisep.DEFAULT_TOL, max_iter, seed,
                                                        index)[0]
                     for index, _ in bisep._cut_orbits(witness.pair_weight_matrix(spec))}
        assert max(max(len(cuts[index].part_a), len(cuts[index].part_b))
                   for index in reference) >= 7
        result = bisep_bound(spec, restarts=restarts, seed=seed, max_iter=max_iter)
        best = max(reference.values())
        assert abs(result.bound - best) <= 1e-9
        # the best cut's orbit is the reference's, or one whose reference bound ties it
        assert abs(reference[cuts.index(result.best_cut)] - best) <= 1e-9

    @pytest.mark.parametrize(
        "args, restarts, seed, max_iter, bound, cut, iterations, converged", CUT_PINS)
    def test_every_block_matrix_free_reproduces_the_exact_pins(
            self, args, restarts, seed, max_iter, bound, cut, iterations, converged,
            monkeypatch):
        # blocks of 2 to 32 dimensions too, where the Krylov basis breaks down before
        # LANCZOS_BASIS vectors; no block is built densely
        def forbidden(*args):
            raise AssertionError("a block was built densely")

        monkeypatch.setattr(bisep, "DENSE_BLOCK_MAX_DIM", 1)
        monkeypatch.setattr(witness, "_pair_operator", forbidden)
        with np.errstate(all="raise"):
            result = bisep_bound(WitnessSpec(*args), restarts=restarts, seed=seed,
                                 max_iter=max_iter)
        assert abs(result.bound - bound) <= 1e-12
        assert (result.best_cut, result.iterations, result.converged) == (
            Bipartition(*cut), iterations, converged)

    def test_eigh_never_sees_a_block_above_64_dimensions(self, monkeypatch):
        eigh, sizes = np.linalg.eigh, []

        def recording_eigh(matrices):
            sizes.append(matrices.shape[-1])
            return eigh(matrices)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        bisep_bound(WitnessSpec(8, math.pi, 1, 1, 1), restarts=2)
        seesaw_max(WitnessSpec(9, 0.3, 1, 1, 1), Bipartition((1,), tuple(range(2, 10))),
                   restarts=2)
        assert sizes and max(sizes) <= 64

    def test_singleton_cut_at_ten_qubits_holds_no_dense_block(self):
        # the dense (7, d, d) stack of the 9-qubit block alone is 7 * 4^9 * 16 B = 29 MB
        spec, cut = WitnessSpec(10, math.pi, 1, 1, 1), Bipartition((1,), tuple(range(2, 11)))
        tracemalloc.start()
        try:
            seesaw_max(spec, cut, restarts=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_zero_operator_breaks_down_at_the_first_step(self):
        # every Lanczos row stops at beta = 0 with Ritz value 0, as the N = 3 pin does
        with np.errstate(all="raise"):
            result = bisep_bound(WitnessSpec(8, 0.0, 0, 0, 0), restarts=2, seed=0)
        assert result.bound == 0.0 and result.converged

    def test_start_on_an_eigenvector_stops_at_once(self, rng):
        # row 0: a basis vector of a diagonal map (beta = 0 exactly); row 1: the top
        # eigenvector of a random Hermitian matrix (beta at rounding level)
        d = 128
        maps = np.zeros((2, d, d), dtype=complex)
        maps[0][np.diag_indices(d)] = rng.standard_normal(d)
        noise = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        maps[1] = noise + noise.conj().T
        eigvals, eigvecs = np.linalg.eigh(maps[1])
        start = np.array([np.eye(d)[np.argmax(maps[0].diagonal().real)], eigvecs[:, -1]])
        calls = []

        def apply(rows, v):
            calls.append(rows.tolist())
            return (maps[rows] @ v[:, :, None])[:, :, 0]

        with np.errstate(all="raise"):
            values, vectors = (a[..., -1] for a in bisep._lanczos_top(apply, start))
        assert calls == [[0, 1]]
        assert values[0] == maps[0].diagonal().real.max()
        assert values[1] == pytest.approx(eigvals[-1], abs=1e-12)
        assert np.allclose(np.abs(np.sum(vectors.conj() * start, axis=1)), 1.0, atol=1e-12)

    def test_zero_tol_and_one_sweep(self):
        spec, cut = WitnessSpec(8, math.pi, 1, 1, 1), Bipartition((1,), tuple(range(2, 9)))
        with np.errstate(all="raise"):
            result = seesaw_max(spec, cut, restarts=2, tol=0, max_iter=1, seed=4)
        bound, _, iterations, converged = seesaw_reference.seesaw_cut(spec, cut, 2, 0, 1, 4)
        assert abs(result.bound - bound) <= 1e-9
        assert (result.iterations, result.converged) == (iterations, converged) == (1, False)


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
            r1, r2 = spec.layout.positions
            analytic = abs(math.cos(abs(spec.k) * (r2 - r1))) * max(
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

    @pytest.mark.xfail(strict=True, reason="known see-saw defect, ROADMAP item 4: 30 "
                       "restarts stop at 0.296313 where the grid gives 0.301359")
    def test_cut_matches_grid_on_reproduce_seed_1315587361(self):
        # the third random N = 3 spec of check 11b under `reproduce-paper --seed 1315587361`
        spec = WitnessSpec(3, 5.865186155956739, -0.7805833045009107,
                           -0.2404050674692928, -0.3049220311575933)
        cut = Bipartition((1, 3), (2,))
        seesaw = seesaw_max(spec, cut, restarts=30, seed=1315587361).bound
        assert seesaw == pytest.approx(cut_grid_max_3(spec, cut), abs=1e-3)

    def test_cut_oracle_rejects_four_qubits_as_unsupported(self):
        with pytest.raises(UnsupportedCaseError, match="oracle written for 3 qubits"):
            cut_grid_max_3(WitnessSpec(4, 0.0, 1, 1, 1), Bipartition((1,), (2, 3, 4)))

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

        for name in ("_block", "_seesaw_cut", "_best_run"):
            monkeypatch.setattr(bisep, name, forbidden)
        assert oracle_values() == expected
