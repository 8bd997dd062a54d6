"""The benchmark's three workloads: seeded inputs and the timed tasks.

``make_inputs`` turns a workload seed into plain data (spec tuples, grids,
shot counts, restart and state seeds). ``run_pass`` hands those inputs to the
public sfwitness API and records every task's value next to its time. The
library sees only the generated inputs, never the workload seed.

Why these workloads:

* ``reproduce`` - the full ``reproduce-paper`` battery at default settings
  through ``cli.main``. Many small-N calls (10^4 random product density
  matrices, see-saw bounds at N = 4 and 6, 10^6-shot sampling at N = 4),
  so per-call overhead and validation dominate. A vectorised rewrite with a
  higher fixed cost per call shows here.
* ``large-n`` - one job per pure state at N = 12, 14, 16 (Dicke, phased
  Dicke, random), nothing cached between jobs, plus the density path at
  N = 8, 10. O(2^N) correlator kernels and repeated work per state
  dominate; its two sampling regimes put shots far above (N = 12) and far
  below (N = 16) the 2^N outcomes. No see-saw work.
* ``seesaw`` - biseparable and product bounds at N = 4..8. Time goes to
  ``sigma_operator``, the 4^N contraction and ``eigh`` per cut and restart;
  correlators appear only in the recheck. No sampling, no density matrices.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from time import perf_counter

import numpy as np

WORKLOADS = ("reproduce", "large-n", "seesaw")

# The large-n and seesaw inputs are drawn from default_rng([tag, seed]).
_WORKLOAD_TAG = {"large-n": 2, "seesaw": 3}

#: reproduce-paper checks that fail by design (README "Known discrepancy").
EXPECTED_FAILURES = ("07b_dicke_ghz_superposition_boundary",
                     "07b_dicke_ghz_superposition_window")
EXPECTED_EXIT = 5

FAMILIES = ("dicke", "phased", "random")
#: Paper spec (k, c_x, c_y, c_z) of each large-n state family.
PAPER_SPECS = {
    "dicke": (0.0, 1.0, 1.0, -1.0),
    "phased": (math.pi, 1.0, 1.0, 0.0),
    "random": (math.pi, 1.0, 1.0, 1.0),
}
LARGE_N_SIZES = (12, 14, 16)
K_GRID = (0.0, math.pi, 257)
ESTIMATE_N, ESTIMATE_SHOTS = 12, 200_000
CURVE_N, CURVE_GRID = 16, (100, 1000, 10_000)
DENSITY_SIZES, NOISE_LEVELS, KRAUS_N = (8, 10), (0.1, 0.3), 8

GME_SPEC = (math.pi, 1.0, 1.0, 1.0)
DEFAULT_MAX_ITER = 500          # bisep.DEFAULT_MAX_ITER
RANDOM_SPEC_MAX_ITER = 50
BALANCED_CUT_8 = ((1, 2, 3, 4), (5, 6, 7, 8))


def _seed_word(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2 ** 31 - 1))


def _random_spec(rng: np.random.Generator, n: int) -> tuple:
    return (n, float(rng.uniform(0.0, 2.0 * math.pi)),
            *(float(c) for c in rng.uniform(-1.0, 1.0, size=3)))


def make_inputs(workload: str, seed: int) -> dict:
    """Plain-data inputs of one workload; equal seeds give equal inputs."""
    if workload == "reproduce":
        return {"argv": ["reproduce-paper", "--format", "json", "--seed", str(seed)]}
    rng = np.random.default_rng([_WORKLOAD_TAG[workload], seed])
    if workload == "large-n":
        jobs = []
        for n in LARGE_N_SIZES:
            for family in FAMILIES:
                k_random = float(rng.uniform(0.0, 2.0 * math.pi))
                jobs.append({
                    "family": family, "n": n,
                    "paper_spec": (n, *PAPER_SPECS[family]),
                    # three random specs share one k, so a single
                    # axis_components call checks all of them
                    "random_specs": [(n, k_random, *(float(c) for c in rng.uniform(-1, 1, 3)))
                                     for _ in range(3)],
                    "state_seed": _seed_word(rng) if family == "random" else None,
                    "shot_seed": _seed_word(rng),
                })
        return {"jobs": jobs, "k_grid": K_GRID,
                "estimate_shots": ESTIMATE_SHOTS, "curve_grid": CURVE_GRID,
                "density": [{"n": n, "p": p} for n in DENSITY_SIZES for p in NOISE_LEVELS],
                "kraus": [{"spec": _random_spec(rng, KRAUS_N), "q": q} for q in NOISE_LEVELS]}
    if workload == "seesaw":
        def bound(label, spec, restarts, max_iter=DEFAULT_MAX_ITER):
            return {"label": label, "spec": spec, "restarts": restarts,
                    "max_iter": max_iter, "seed": _seed_word(rng)}
        return {
            "bisep": [bound("paper4", (4, *GME_SPEC), 200),
                      bound("paper6", (6, *GME_SPEC), 50),
                      # see-saw sweeps on a random spec range from a few to
                      # hundreds; few restarts and a sweep cap keep this
                      # seed-dependent part a small share of the pass
                      bound("random4", _random_spec(rng, 4), 5, RANDOM_SPEC_MAX_ITER),
                      bound("random6", _random_spec(rng, 6), 2, RANDOM_SPEC_MAX_ITER),
                      bound("paper8", (8, *GME_SPEC), 5)],
            "seesaw_max": [dict(bound("balanced8", (8, *GME_SPEC), 50), cut=BALANCED_CUT_8)],
            "product": [bound("product6", (6, *GME_SPEC), 50),
                        bound("product8", (8, *GME_SPEC), 10)],
            "gme": [{"label": "phased4", "n": 4, "l": 2, "bound": "paper4"},
                    {"label": "phased6", "n": 6, "l": 3, "bound": "paper6"}],
        }
    raise ValueError(f"unknown workload {workload!r}")


class Recorder:
    """Times each task and keeps its value next to its time."""

    def __init__(self):
        self.values: dict = {}
        self.seconds: dict = {}

    def call(self, label: str, fn, *args, **kwargs):
        start = perf_counter()
        value = fn(*args, **kwargs)
        self.seconds[label] = perf_counter() - start
        self.values[label] = value
        return value


def _run_cli(sf, argv) -> tuple[int, dict]:
    """cli.main with stdout captured; returns (exit code, parsed JSON)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            sf.cli.main(list(argv))
            code = 0
        except SystemExit as stop:
            code = stop.code
    return code, json.loads(out.getvalue())


def _build_state(sf, job):
    n = job["n"]
    if job["family"] == "dicke":
        return sf.make_dicke(n, n // 2)
    if job["family"] == "phased":
        return sf.make_phased_dicke(n, n // 2)
    return sf.random_state_vector(n, np.random.default_rng(job["state_seed"]))


def _run_large_n(sf, inputs, rec: Recorder) -> None:
    k_grid = np.linspace(*inputs["k_grid"])
    for job in inputs["jobs"]:
        tag = f"{job['family']}{job['n']}"
        state = rec.call(f"{tag}.state", _build_state, sf, job)
        paper = sf.WitnessSpec(*job["paper_spec"])
        rec.call(f"{tag}.sigma_paper", sf.sigma_value, state, paper)
        randoms = [sf.WitnessSpec(*spec) for spec in job["random_specs"]]
        for r, spec in enumerate(randoms):
            rec.call(f"{tag}.sigma_random{r}", sf.sigma_value, state, spec)
        rec.call(f"{tag}.axis_components", sf.axis_components, state, randoms[0])
        rec.call(f"{tag}.scan_k", sf.scan_k, state, *paper.coefficients, k_grid)
        rec.call(f"{tag}.p_star", sf.collective_threshold, state, paper)
        rec.call(f"{tag}.q_star", sf.individual_threshold, state, paper)
        if job["n"] == ESTIMATE_N:
            rec.call(f"{tag}.estimate", sf.estimate_witness, state, paper,
                     sf.ShotPlan(inputs["estimate_shots"], job["shot_seed"]))
        if job["n"] == CURVE_N:
            rec.call(f"{tag}.curve", sf.convergence_curve, state, paper,
                     list(inputs["curve_grid"]), job["shot_seed"])
    for case in inputs["density"]:
        n, p = case["n"], case["p"]
        tag = f"mixed{n}_p{p}"
        pure = rec.call(f"{tag}.pure", sf.make_dicke, n, n // 2)
        rho = rec.call(f"{tag}.rho", sf.mix_with_white_noise, pure, p)
        rec.call(f"{tag}.sigma", sf.sigma_value, rho,
                 sf.WitnessSpec(n, *PAPER_SPECS["dicke"]))
        for axis in ("x", "z"):
            rec.call(f"{tag}.J{axis}2", sf.collective_spin_sq, rho, axis)
    for r, case in enumerate(inputs["kraus"]):
        pure = rec.call(f"kraus{r}.pure", sf.make_dicke, KRAUS_N, KRAUS_N // 2)
        rec.call(f"kraus{r}.sides", sf.kraus_crosscheck, pure,
                 sf.WitnessSpec(*case["spec"]), case["q"])


def _run_seesaw(sf, inputs, rec: Recorder) -> None:
    for case in inputs["bisep"]:
        rec.call(case["label"], sf.bisep_bound, sf.WitnessSpec(*case["spec"]),
                 restarts=case["restarts"], seed=case["seed"], max_iter=case["max_iter"])
    for case in inputs["seesaw_max"]:
        rec.call(case["label"], sf.seesaw_max, sf.WitnessSpec(*case["spec"]),
                 sf.Bipartition(*case["cut"]), restarts=case["restarts"],
                 seed=case["seed"], max_iter=case["max_iter"])
    for case in inputs["product"]:
        rec.call(case["label"], sf.product_bound, sf.WitnessSpec(*case["spec"]),
                 restarts=case["restarts"], seed=case["seed"], max_iter=case["max_iter"])
    for case in inputs["gme"]:
        bound = rec.values[case["bound"]]
        state = rec.call(f"{case['label']}.state", sf.make_phased_dicke,
                         case["n"], case["l"])
        rec.call(f"{case['label']}.gme", sf.gme_detected, state, bound.spec, bound)


def run_pass(workload: str, sf, inputs: dict) -> Recorder:
    """Run every task of the workload once through the public API."""
    rec = Recorder()
    if workload == "reproduce":
        rec.call("reproduce-paper", _run_cli, sf, inputs["argv"])
    elif workload == "large-n":
        _run_large_n(sf, inputs, rec)
    else:
        _run_seesaw(sf, inputs, rec)
    return rec


def largest_array(workload: str, sf, inputs: dict) -> dict:
    """Largest array the workload allocates, computed from its input sizes."""
    complex_bytes = np.dtype(complex).itemsize
    float_bytes = np.dtype(float).itemsize
    if workload == "reproduce":
        shots = sf.cli.RunConfig("reproduce-paper").shots
        candidates = {
            f"sampling eigenvalues, {shots} shots x 4 qubits, float64": shots * 4 * float_bytes,
            "sigma_operator, N=6": complex_bytes * 4 ** 6,
        }
    elif workload == "large-n":
        top_n = max(job["n"] for job in inputs["jobs"])
        top_rho = max(case["n"] for case in inputs["density"])
        shots = inputs["estimate_shots"]
        candidates = {
            f"state vector, N={top_n}": complex_bytes * 2 ** top_n,
            f"density matrix, N={top_rho}": complex_bytes * 4 ** top_rho,
            f"sampling eigenvalues, {shots} shots x {ESTIMATE_N} qubits, float64":
                shots * ESTIMATE_N * float_bytes,
        }
    else:
        top_n = max(case["spec"][0] for case in inputs["bisep"])
        candidates = {f"sigma_operator, N={top_n}": complex_bytes * 4 ** top_n}
    name = max(candidates, key=candidates.get)
    return {"array": name, "bytes": int(candidates[name])}
