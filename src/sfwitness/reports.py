"""Reference-value verification battery.

Re-derives every headline quantity of the witness construction from the
library API and flags each against its expected value: Dicke closed forms,
structure-factor identities, phased-Dicke detection, detection windows,
noise-robustness thresholds, channel equivalence, biseparable bounds, and
shot-noise behavior. The CLI command ``reproduce-paper`` prints the result.

The module also hosts grid-search oracles for the small-system see-saw
cross-checks; they deliberately avoid eigenvector iterations so that they
stay independent of the optimizer they validate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import bisep, kernels, noise, sampling, states, witness
from .correlators import (SiteLayout, _density_correlations, structure_factor,
                          verify_collective_identity)
from .errors import InputError, UnsupportedCaseError, check_integer
from .states import (make_dicke, make_dicke_ghz_superposition, make_ghz_superposition,
                     make_phased_dicke, random_state_vector)
from .witness import WitnessSpec, pair_weight_matrix

GHZ_WINDOW_LOW = math.pi / 4
DICKE_GHZ_WINDOW_LOW = math.acos(3.0 * math.sqrt(2.0 / 19.0))
BISEP_BOUND_4 = 1.187
BISEP_BOUND_6 = 1.158

#: Fewest shots for check 12b: its grid 100, 1000, ... up to `shots` then has two points.
MIN_SHOTS = 1000

PHASED_4_SIGNS = {
    "0011": 1, "1100": 1, "0110": 1, "1001": 1, "0101": -1, "1010": -1,
}
PHASED_6_SIGNS = {
    "111000": 1, "001110": 1, "010101": 1, "011010": 1, "100011": 1,
    "100110": 1, "101001": 1, "101100": 1, "110010": 1, "001011": 1,
    "000111": -1, "110001": -1, "101010": -1, "100101": -1, "011100": -1,
    "011001": -1, "010110": -1, "010011": -1, "001101": -1, "110100": -1,
}


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: str
    expected: str
    detail: str = ""
    seconds: float | None = None

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        text = f"[{flag}] {self.name}: value={self.value} expected={self.expected}"
        return text + (f"  ({self.detail})" if self.detail else "")


@dataclass
class ReferenceReport:
    checks: list = field(default_factory=list)

    def add(self, name, passed, value, expected, detail=""):
        self.checks.append(CheckResult(name, bool(passed), str(value),
                                       str(expected), detail))

    def add_max_dev(self, name, deviations, tol: str, detail, fmt=".3e"):
        """Pass when the largest deviation is within `tol` (as printed); a NaN fails."""
        worst = float(np.max(list(deviations)))
        self.add(name, worst <= float(tol), f"max_dev={worst:{fmt}}", f"<={tol}", detail)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": [vars(c) for c in self.checks],
        }


# --- grid-search oracles (independent of the see-saw) ---------------------

def _fibonacci_sphere(count: int) -> np.ndarray:
    i = np.arange(count)
    golden = math.pi * (3.0 - math.sqrt(5.0))
    z = 1.0 - 2.0 * (i + 0.5) / count
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.stack([r * np.cos(golden * i), r * np.sin(golden * i), z], axis=1)


def _cap_points(center: np.ndarray, radius: float, per_side: int) -> np.ndarray:
    """Local grid on the sphere around `center` (tangent offsets, renormalized)."""
    helper = np.array([1.0, 0.0, 0.0])
    if abs(center @ helper) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    e1 = np.cross(center, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(center, e1)
    ticks = np.linspace(-radius, radius, per_side)
    a, b = np.meshgrid(ticks, ticks, indexing="ij")
    pts = center[None, :] + a.reshape(-1, 1) * e1[None, :] + b.reshape(-1, 1) * e2[None, :]
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _grid_argmax(values, grids) -> tuple:
    """(flat index, value) of the first maximum of values(*grids), a NaN the largest, as one
    np.argmax finds it: np.argmax over each block's first maximum. A block is at least two rows of
    the first grid (one row makes a matmul in `values` a vector-matrix product, which rounds
    differently), and at most states._STACK_BYTES / 128 values (five float64 per value at once)."""
    cols = math.prod(map(len, grids[1:]))
    rows = max(2, states._STACK_BYTES // (128 * cols))
    edges = [*range(0, len(grids[0]), rows), len(grids[0])]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]  # merge a one-row tail into the block before it
    found = []
    for start, stop in zip(edges, edges[1:]):
        block = values(grids[0][start:stop], *grids[1:])
        index = int(np.argmax(block))
        found.append((start * cols + index, block.flat[index]))
    return found[int(np.argmax([value for _, value in found]))]


def _sphere_search(values, spheres: int, coarse: int, per_side: int) -> float:
    """Grid maximum of `values` over one or two unit spheres.

    `values(*grids)` maps one (m, 3) point array per sphere to an array with
    one axis per sphere, each value depending only on its own points. A
    Fibonacci grid of `coarse` points is refined by three cap grids around
    the best point, each cap 8x smaller.
    """
    grids = [_fibonacci_sphere(coarse)] * spheres
    radius = math.sqrt(4.0 * math.pi / coarse)
    for _ in range(3):
        top = np.unravel_index(_grid_argmax(values, grids)[0], [len(g) for g in grids])
        grids = [_cap_points(g[i], radius, per_side) for g, i in zip(grids, top)]
        radius /= 8.0
    return float(_grid_argmax(values, grids)[1])


def product_grid_max_2(spec: WitnessSpec) -> float:
    """Grid maximum of <Sigma> over two-qubit Bloch product states.

    The second Bloch vector is eliminated exactly (it aligns with the
    weighted image of the first), so only one sphere is gridded.
    """
    d = pair_weight_matrix(spec)[0, 1] * np.array(spec.coefficients)
    return _sphere_search(lambda points: np.linalg.norm(points * d[None, :], axis=1),
                          1, 8000, 41)


def product_grid_max_3(spec: WitnessSpec) -> float:
    """Grid maximum of <Sigma> over three-qubit Bloch product states.

    Grids the first two spheres; the third Bloch vector is eliminated
    exactly (its optimum is the direction of the weighted field of the
    other two).
    """
    c = np.array(spec.coefficients)
    w12, w13, w23 = pair_weight_matrix(spec)[[0, 0, 1], [1, 2, 2]]

    def values(pts1, pts2):
        cross = (pts1 * c[None, :]) @ (w12 * pts2.T)
        field1 = w13 * pts1 * c[None, :]
        field2 = w23 * pts2 * c[None, :]
        norm_sq = (np.sum(field1 ** 2, axis=1)[:, None]
                   + np.sum(field2 ** 2, axis=1)[None, :]
                   + 2.0 * field1 @ field2.T)
        return (cross + np.sqrt(np.clip(norm_sq, 0.0, None))) / 3.0

    return _sphere_search(values, 2, 1200, 25)


def cut_grid_max_3(spec: WitnessSpec, cut: bisep.Bipartition) -> float:
    """Grid maximum of <Sigma> over a 3-qubit cut with a singleton block.

    Grids the Bloch sphere of the lone qubit; for each point the best state
    of the two-qubit block is the top eigenvector of the contracted 4x4
    operator, solved directly (no alternation).
    """
    if spec.n_qubits != 3:
        raise UnsupportedCaseError("oracle written for 3 qubits")
    single, pair = ((cut.part_a, cut.part_b) if len(cut.part_a) == 1
                    else (cut.part_b, cut.part_a))
    # one row and one column axis per block: (single, pair, single, pair)
    order = [q - 1 for q in (*single, *pair)]
    tensor = (witness.sigma_operator(spec).reshape((2,) * 6)
              .transpose([*order, *(3 + ax for ax in order)]).reshape(2, 4, 2, 4))

    def values(points):
        kets = states._bloch_to_ket(points)
        eff = np.einsum("ms,sytz,mt->myz", kets.conj(), tensor, kets)
        eff = 0.5 * (eff + np.transpose(eff.conj(), (0, 2, 1)))
        return np.linalg.eigvalsh(eff)[:, -1]

    return _sphere_search(values, 1, 2000, 41)


# --- the check battery -----------------------------------------------------

def _random_spec(rng, n: int) -> WitnessSpec:
    return WitnessSpec(n, rng.uniform(0.0, 2.0 * math.pi),
                       *rng.uniform(-1.0, 1.0, size=3))


def _sign_table(state) -> dict:
    n = state.n_qubits
    scale = math.sqrt(math.comb(n, n // 2))
    return {
        format(b, f"0{n}b"): round(float(a.real) * scale)
        for b, a in enumerate(state.amplitudes) if abs(a) > 1e-12
    }


def _check_dicke_closed_forms(report: ReferenceReport) -> None:
    report.add_max_dev(
        "01_dicke_sigma_closed_form",
        (abs(witness.sigma_value(make_dicke(n, l), WitnessSpec(n, 0.0, 1.0, 1.0, -1.0))
             - float(witness.dicke_sigma_closed_form(n, l)))
         for n in range(2, 11) for l in range(n + 1)),
        "1e-12", "N=2..10, all l; includes (N+1)/(N-1) and 17/15 for (6,2)")


def _check_structure_identities(report: ReferenceReport, seed: int) -> None:
    report.add_max_dev(
        "02a_dicke_structure_factors",
        (abs(structure_factor(make_dicke(n, l), 0.0, axis, axis).real - want)
         for n in range(2, 11) for l in range(n + 1)
         for axis, want in (("x", l * (n - l)), ("y", l * (n - l)),
                            ("z", ((n - 2 * l) ** 2 - n) / 2.0))),
        "1e-12", "S^xx(0)=S^yy(0)=l(N-l), S^zz(0)=((N-2l)^2-N)/2, N<=10")
    rng = np.random.default_rng([seed, 2])

    def deviation():
        state = random_state_vector(int(rng.integers(2, 7)), rng)
        lhs, rhs = verify_collective_identity(state, ("x", "y", "z")[rng.integers(3)])
        return abs(lhs - rhs)

    report.add_max_dev("02b_collective_spin_identity", (deviation() for _ in range(100)),
                       "1e-10", "pair sum vs (4 J^2 - N)/2 on 100 random states, N<=6")


def _check_phased_values(report: ReferenceReport) -> None:
    report.add_max_dev(
        "03a_phased_dicke_xy_values",
        (abs(witness.sigma_value(make_phased_dicke(n, l), WitnessSpec(n, math.pi, 1.0, 1.0, 0.0))
             - float(witness.phased_dicke_sigma_closed_form(n, l, with_z=False)))
         for n in range(2, 11)
         for l in ([n // 2] if n % 2 == 0 else [(n - 1) // 2, (n + 1) // 2])),
        "1e-12", "N/(N-1) even, (N+1)/N odd, k=pi, c=(1,1,0), N<=10")
    report.add_max_dev(
        "03b_phased_dicke_xyz_values",
        (abs(witness.sigma_value(make_phased_dicke(n, l), WitnessSpec(n, math.pi, 1.0, 1.0, 1.0))
             - float(want))
         for (n, l), want in (((4, 2), Fraction(13, 9)), ((6, 3), Fraction(31, 25)))),
        "1e-12", "13/9 and 31/25 with c=(1,1,1)")


def _check_sign_patterns(report: ReferenceReport) -> None:
    ok4 = _sign_table(make_phased_dicke(4, 2)) == PHASED_4_SIGNS
    ok6 = _sign_table(make_phased_dicke(6, 3)) == PHASED_6_SIGNS
    report.add("04_phased_sign_patterns", ok4 and ok6,
               f"four_qubit={ok4}, six_qubit={ok6}", "term-by-term match")


def _check_cross_detection(report: ReferenceReport) -> None:
    offenders = []
    for n in range(2, 7):
        spec = WitnessSpec(n, math.pi, 1.0, 1.0, 1.0)
        for l in range(n + 1):
            if witness.detects(make_dicke(n, l), spec):
                offenders.append((n, l))
    report.add("05a_dicke_not_detected_at_pi", not offenders,
               f"detected={offenders}", "none", "k=pi, c=(1,1,1), N<=6")
    comps = witness.axis_components(make_phased_dicke(4, 2),
                                    WitnessSpec(4, 0.0, 1.0, 1.0, 1.0))
    grid = np.linspace(-1.0, 1.0, 41)  # (c_x, c_y, c_z) = grid[i, j, l], summed left to right
    sig = (grid[:, None, None] * comps[0] + grid[None, :, None] * comps[1]) + grid * comps[2]
    worst = float(sig.max())
    report.add("05b_phased4_not_detected_at_k0", worst <= 1.0 + 1e-9,
               f"max_sigma={worst:.6f}", "<=1",
               "all c on the 0.05 grid over [-1,1]^3")


def _product_witness_values(vectors: np.ndarray, ks: np.ndarray,
                            coefficients: np.ndarray) -> np.ndarray:
    """<W(k)> on the product densities of a (B, N, 3) stack of Bloch vectors, state b under
    WitnessSpec(N, ks[b], *coefficients[b]): the density path with a leading stack axis."""
    stack, n = states._product_stack(vectors), vectors.shape[1]
    states._check_stack(stack)
    weights = SiteLayout.unit_spacing(n).weight_table(ks.tolist())
    correlations = _density_correlations(stack, kernels.outcome_signs(n), kernels.AXES)
    return 1.0 - witness._sigma_from(coefficients.T, weights, correlations)


def _product_bound_values(seed: int, samples: int) -> np.ndarray:
    """<W> of `samples` random product states, each under a random spec, in draw order. Each
    sample's draws go into the buffers of its N; a full buffer, a stack of at most
    states._STACK_BYTES, is built and evaluated at once, and the partial ones at the end."""
    rng = np.random.default_rng([seed, 6])
    values, stacks = np.empty(samples), {}
    for sample in range(samples):
        n = int(rng.integers(2, 7))
        if n not in stacks:
            # per state: its density entries and 16 bytes per entry of an all-pairs x/y gather,
            # more than the grouped gather holds; it sizes the stacks and so the traced peak,
            # but any stack size gives the same values
            size = min(samples, max(1, states._STACK_BYTES // (16 * 2 ** n * (2 ** n + n * n))))
            # filled: index, per Bloch vector three normals and a radius, k, coefficients
            stacks[n] = [0, np.empty(size, int), np.empty((size, n, 3)), np.empty((size, n, 1)),
                         np.empty(size), np.empty((size, 3))]
        stack = stacks[n]
        filled, index, normals, radii, ks, coefficients = stack
        index[filled] = sample
        for normal, radius in zip(normals[filled], radii[filled]):
            rng.standard_normal(out=normal)
            radius[0] = rng.random() ** (1.0 / 3.0)  # a float power: numpy's rounds differently
        ks[filled] = rng.uniform(0.0, 2.0 * math.pi)
        coefficients[filled] = rng.uniform(-1.0, 1.0, size=3)
        stack[0] = filled + 1
        if stack[0] == len(index):
            _evaluate_stack(values, *stack)
            stack[0] = 0
    for stack in stacks.values():
        _evaluate_stack(values, *stack)
    return values


def _evaluate_stack(values, filled, index, normals, radii, ks, coefficients) -> None:
    """values[index] = <W> of the first `filled` states of one N's buffers."""
    if filled:
        normals = normals[:filled]
        # per-row dots, as np.linalg.norm takes them; einsum would round differently
        lengths = np.sqrt(normals[..., None, :] @ normals[..., None])[..., 0]
        values[index[:filled]] = _product_witness_values(
            normals / lengths * radii[:filled], ks[:filled], coefficients[:filled])


def _check_product_bound(report: ReferenceReport, seed: int, samples: int) -> None:
    worst = _product_bound_values(seed, samples).min()
    report.add("06_product_state_bound", worst >= -1e-9,
               f"min_witness={worst:.3e}", ">=-1e-9",
               f"{samples} random product states x random specs, N in 2..6")


def _window_checks(report: ReferenceReport, label: str, factory, pairings,
                   expected_low: float) -> None:
    boundaries = []
    interior_ok = True
    outside_ok = True
    for sign, coeffs in pairings:
        spec = WitnessSpec(4, 0.0, *coeffs)
        boundaries.append(witness.find_detection_boundary(
            lambda th: factory(th, sign), spec, theta_inside=1.0, theta_outside=0.1))
        for theta in np.linspace(expected_low + 1e-3, math.pi / 2 - 1e-3, 25):
            interior_ok &= witness.detects(factory(theta, sign), spec)
        for theta in (0.05, expected_low - 1e-3, math.pi / 2):
            outside_ok &= not witness.detects(factory(theta, sign), spec)
    dev = max(abs(b - expected_low) for b in boundaries)
    report.add(f"{label}_boundary", dev <= 1e-6,
               f"boundaries={[f'{b:.8f}' for b in boundaries]}",
               f"{expected_low:.8f} +-1e-6")
    report.add(f"{label}_window", interior_ok and outside_ok,
               f"inside_detected={interior_ok}, outside_clear={outside_ok}",
               "True, True", "strict detection inside (boundary, pi/2) only")


def _check_windows(report: ReferenceReport) -> None:
    pairings = ((+1, (1.0, -1.0, 1.0)), (-1, (-1.0, 1.0, 1.0)))
    _window_checks(report, "07a_ghz_superposition", make_ghz_superposition,
                   pairings, GHZ_WINDOW_LOW)
    _window_checks(report, "07b_dicke_ghz_superposition",
                   make_dicke_ghz_superposition, pairings,
                   DICKE_GHZ_WINDOW_LOW)


def _threshold_cases() -> list:
    """(state, spec, closed-form Sigma, exact p*, q*) for the robustness checks."""
    cases = []
    for n in range(2, 11, 2):
        cases.append((make_dicke(n, n // 2), WitnessSpec(n, 0.0, 1.0, 1.0, -1.0),
                      witness.dicke_sigma_closed_form(n, n // 2), Fraction(2, n + 1),
                      1.0 - math.sqrt((n - 1.0) / (n + 1.0))))
        cases.append((make_phased_dicke(n, n // 2), WitnessSpec(n, math.pi, 1.0, 1.0, 0.0),
                      witness.phased_dicke_sigma_closed_form(n, n // 2, with_z=False),
                      Fraction(1, n), 1.0 - math.sqrt((n - 1.0) / n)))
    for (n, l), p_star, q_star in (((4, 2), Fraction(4, 13), 1.0 - 3.0 / math.sqrt(13.0)),
                                   ((6, 3), Fraction(6, 31), 1.0 - 5.0 / math.sqrt(31.0))):
        cases.append((make_phased_dicke(n, l), WitnessSpec(n, math.pi, 1.0, 1.0, 1.0),
                      witness.phased_dicke_sigma_closed_form(n, l, with_z=True),
                      p_star, q_star))
    return cases


def _check_thresholds(report: ReferenceReport) -> None:
    cases = _threshold_cases()
    exact_ok = all(noise.collective_threshold_exact(sigma) == p_star
                   for _, _, sigma, p_star, _ in cases)
    float_dev = max(abs(noise.collective_threshold(state, spec) - float(p_star))
                    for state, spec, _, p_star, _ in cases)
    report.add("08a_collective_thresholds", exact_ok and float_dev <= 1e-12,
               f"exact={exact_ok}, max_float_dev={float_dev:.3e}",
               "exact rationals; float path <=1e-12",
               "2/(N+1), 1/N, 4/13, 6/31")

    report.add_max_dev(
        "08b_individual_thresholds",
        (abs(noise.individual_threshold(state, spec) - q_star)
         for state, spec, _, _, q_star in cases),
        "1e-12", "1-sqrt((N-1)/(N+1)), 1-sqrt((N-1)/N), 1-3/sqrt(13), 1-5/sqrt(31)")

    improves = all(
        threshold(state, spec) > threshold(state, replace(spec, c_z=0.0))
        for state, spec, *_ in cases if spec.c_z != 0.0
        for threshold in (noise.collective_threshold, noise.individual_threshold))
    report.add("08c_z_term_improves_robustness", improves, str(improves), "True",
               "c_z != 0 thresholds strictly exceed the c_z = 0 ones")


def _check_kraus(report: ReferenceReport, seed: int) -> None:
    rng = np.random.default_rng([seed, 9])

    def deviation():
        n = int(rng.integers(2, 7))
        state = random_state_vector(n, rng)
        sides = noise.kraus_crosscheck(state, _random_spec(rng, n),
                                       float(rng.integers(0, 11)) / 10.0)
        return abs(sides[0] - sides[1])

    report.add_max_dev("09_kraus_channel_equivalence", (deviation() for _ in range(100)),
                       "1e-12", "factor law vs explicit Kraus, 100 random (state, spec, q)")


def _check_bisep(report: ReferenceReport, seed: int, restarts: int) -> None:
    results = {}
    for n, target in ((4, BISEP_BOUND_4), (6, BISEP_BOUND_6)):
        spec = WitnessSpec(n, math.pi, 1.0, 1.0, 1.0)
        result = bisep.bisep_bound(spec, restarts=restarts, seed=seed)
        results[n] = (spec, result)
        report.add(f"10_bisep_bound_{n}", abs(result.bound - target) <= 0.01,
                   f"{result.bound:.6f}", f"{target} +-0.01",
                   f"best cut {result.best_cut.part_a}|{result.best_cut.part_b}, "
                   f"{restarts} restarts")
    gme_ok = True
    for n, l in ((4, 2), (6, 3)):
        spec, result = results[n]
        gme_ok &= bisep.gme_detected(make_phased_dicke(n, l), spec, result)
    report.add("10_gme_detected", gme_ok, str(gme_ok), "True",
               "phased Dicke states exceed the biseparable bounds")
    worst = float(np.max([bisep.product_bound(spec, restarts=restarts, seed=seed)
                          for spec, _ in results.values()]))
    report.add("10_product_bound_cap", worst <= 1.0 + 1e-6, f"max={worst:.9f}", "<=1+1e-6")

    sound = True
    for n, (spec, result) in results.items():
        assembled = bisep.assemble_cut_state(result.best_cut, *result.best_state)
        sound &= (abs(witness.sigma_value(assembled, spec) - result.bound)
                  <= bisep.BOUND_RECHECK_ATOL)
    report.add("11a_seesaw_soundness", sound, str(sound), "True",
               "bounds re-verified on the stored achieving states")

    report.add_max_dev("11b_small_n_grid_agreement", _grid_deviations(seed), "1e-3",
                       "see-saw vs grid-search oracles, N=2 and N=3", fmt=".2e")


def _grid_deviations(seed: int):
    rng = np.random.default_rng([seed, 11])
    for _ in range(3):
        spec2 = _random_spec(rng, 2)
        yield abs(bisep.bisep_bound(spec2, restarts=30, seed=seed).bound
                  - product_grid_max_2(spec2))
        spec3 = _random_spec(rng, 3)
        yield abs(bisep.product_bound(spec3, restarts=30, seed=seed)
                  - product_grid_max_3(spec3))
        for cut in bisep.enumerate_bipartitions(3):
            yield abs(bisep.seesaw_max(spec3, cut, restarts=30, seed=seed).bound
                      - cut_grid_max_3(spec3, cut))


def _check_sampling(report: ReferenceReport, seed: int, shots: int) -> None:
    cases = (
        ("dicke_4_2", make_dicke(4, 2), WitnessSpec(4, 0.0, 1.0, 1.0, -1.0), -2.0 / 3.0),
        ("phased_4_2", make_phased_dicke(4, 2), WitnessSpec(4, math.pi, 1.0, 1.0, 1.0), -4.0 / 9.0),
    )
    for name, state, spec, exact in cases:
        est, err = sampling.estimate_witness(state, spec,
                                             sampling.ShotPlan(shots, seed))
        report.add(f"12a_estimator_{name}", abs(est - exact) <= 5.0 * err,
                   f"estimate={est:.6f}, std_error={err:.2e}",
                   f"{exact:.6f} +-5 sigma", f"{shots} shots per setting")
    grid = [10 ** e for e in range(2, 7) if 10 ** e <= shots] or [shots]
    curve = sampling.convergence_curve(cases[0][1], cases[0][2], grid, seed)
    slope = float(np.polyfit(np.log10([p.shots for p in curve]),
                             np.log10([p.std_error for p in curve]), 1)[0])
    report.add("12b_error_scaling", abs(slope + 0.5) <= 0.1,
               f"slope={slope:.4f}", "-0.5 +-0.1",
               f"log-log fit over shots {grid}")


def run_reference_checks(seed: int = 0, restarts: int = bisep.DEFAULT_RESTARTS,
                         shots: int = 10 ** 6,
                         product_samples: int = 10 ** 4) -> ReferenceReport:
    """Run the full battery, sizes checked first; each check's `seconds` times its check group."""
    for name, value, least in (("seed", seed, 0), ("restarts", restarts, 1),
                               ("product_samples", product_samples, 1)):
        check_integer(value, name, least)
    if sampling._check_shots(shots) < MIN_SHOTS:
        raise InputError(f"shots must be >= {MIN_SHOTS}, got {shots}")
    report = ReferenceReport()
    for check, *args in ((_check_dicke_closed_forms,), (_check_structure_identities, seed),
                         (_check_phased_values,), (_check_sign_patterns,),
                         (_check_cross_detection,), (_check_product_bound, seed, product_samples),
                         (_check_windows,), (_check_thresholds,), (_check_kraus, seed),
                         (_check_bisep, seed, restarts), (_check_sampling, seed, shots)):
        first, start = len(report.checks), time.perf_counter()
        check(report, *args)
        seconds = time.perf_counter() - start
        for result in report.checks[first:]:
            result.seconds = seconds
    return report
