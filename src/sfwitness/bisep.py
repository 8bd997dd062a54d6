"""Numerical maximization of <Sigma(k)> over biseparable and fully product
pure states.

The optimizer is an alternating see-saw: with all tensor factors but one
held fixed, Sigma contracts to an effective Hermitian operator on the free
factor, whose top eigenvector is the exact best update. Each half-step is
therefore non-decreasing and the iteration converges to a local maximum;
random restarts guard against bad basins.

A mixed biseparable state is a convex mixture of pure states product
across single cuts, and <Sigma> is linear in the state, so the maximum
over pure product-across-a-cut states already bounds all biseparable
states. The see-saw returns attained values, i.e. lower bounds on that
maximum; restarts make them sharp in practice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import InputError
from .states import StateVector
from .witness import WitnessSpec, sigma_operator, sigma_value

DEFAULT_RESTARTS = 200
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 500

BOUND_RECHECK_ATOL = 1e-9


@dataclass(frozen=True)
class Bipartition:
    """Canonical two-block split of sites {1..N}: block A contains site 1."""

    part_a: tuple
    part_b: tuple

    def __post_init__(self):
        a = tuple(sorted(int(q) for q in self.part_a))
        b = tuple(sorted(int(q) for q in self.part_b))
        if not a or not b:
            raise InputError("both blocks must be nonempty")
        n = len(a) + len(b)
        if set(a) | set(b) != set(range(1, n + 1)) or set(a) & set(b):
            raise InputError("blocks must partition {1..N}")
        if a[0] != 1:
            raise InputError("canonical form keeps site 1 in part_a")
        object.__setattr__(self, "part_a", a)
        object.__setattr__(self, "part_b", b)

    @property
    def n_qubits(self) -> int:
        return len(self.part_a) + len(self.part_b)


@dataclass(frozen=True)
class BisepResult:
    """Outcome of a see-saw maximization of <Sigma> over product states."""

    bound: float
    best_cut: Bipartition
    best_state: tuple
    restarts_used: int
    converged: bool
    iterations: int
    spec: WitnessSpec


def enumerate_bipartitions(n_qubits: int) -> list[Bipartition]:
    """All 2^(N-1) - 1 canonical cuts, ordered by the bitmask of part_a."""
    if n_qubits < 2:
        raise InputError("need at least 2 qubits to cut")
    others = list(range(2, n_qubits + 1))
    cuts = []
    for mask in range(2 ** (n_qubits - 1) - 1):
        part_a = (1,) + tuple(q for pos, q in enumerate(others) if mask >> pos & 1)
        part_b = tuple(q for pos, q in enumerate(others) if not mask >> pos & 1)
        cuts.append(Bipartition(part_a, part_b))
    return cuts


def _partition_tensor(matrix: np.ndarray, n_qubits: int, parts) -> tuple[np.ndarray, list]:
    """Reshape the dense operator to one row and one col axis per block."""
    order = [q - 1 for part in parts for q in part]
    tensor = matrix.reshape((2,) * (2 * n_qubits))
    tensor = tensor.transpose([*order, *(n_qubits + ax for ax in order)])
    dims = [2 ** len(part) for part in parts]
    return tensor.reshape(*dims, *dims), dims


def _effective_operator(tensor: np.ndarray, vectors: list, hold: int) -> np.ndarray:
    """Contract <v|...|v> over every block except `hold`."""
    n_parts = len(vectors)
    args = [tensor, list(range(2 * n_parts))]
    for pos, vec in enumerate(vectors):
        if pos != hold:
            args += [vec.conj(), [pos], vec, [n_parts + pos]]
    eff = np.einsum(*args, [hold, n_parts + hold])
    return 0.5 * (eff + eff.conj().T)


def _random_factors(dims, rng: np.random.Generator) -> list:
    factors = []
    for d in dims:
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        factors.append(v / np.linalg.norm(v))
    return factors


def _seesaw_once(tensor: np.ndarray, dims, rng: np.random.Generator,
                 tol: float, max_iter: int):
    """One restart. Returns (value, factors, iterations, converged, trace)."""
    factors = _random_factors(dims, rng)
    trace = []
    value = -np.inf
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        for hold in range(len(dims)):
            eff = _effective_operator(tensor, factors, hold)
            eigvals, eigvecs = np.linalg.eigh(eff)
            factors[hold] = eigvecs[:, -1]
            trace.append(float(eigvals[-1]))
        if trace[-1] - value < tol:
            value = trace[-1]
            converged = True
            break
        value = trace[-1]
    return value, factors, iterations, converged, trace


def _assemble(n_qubits: int, parts, factors) -> StateVector:
    """Tensor the block factors back together in global qubit order."""
    order = [q - 1 for part in parts for q in part]
    full = reduce(np.kron, factors)
    amps = full.reshape((2,) * n_qubits).transpose(np.argsort(order)).reshape(-1)
    return StateVector(n_qubits, amps / np.linalg.norm(amps))


def assemble_cut_state(cut: Bipartition, state_a: StateVector,
                       state_b: StateVector) -> StateVector:
    """Product state |a> x |b> across the cut, as a full register state."""
    if (len(cut.part_a), len(cut.part_b)) != (state_a.n_qubits, state_b.n_qubits):
        raise InputError("factor sizes do not match the cut")
    return _assemble(cut.n_qubits, (cut.part_a, cut.part_b),
                     (state_a.amplitudes, state_b.amplitudes))


def _check_cut(spec: WitnessSpec, cut: Bipartition) -> None:
    if cut.n_qubits != spec.n_qubits:
        raise InputError(
            f"cut covers {cut.n_qubits} sites, spec has {spec.n_qubits}")


def _best_restart(matrix: np.ndarray, spec: WitnessSpec, parts, restarts: int,
                  tol: float, max_iter: int, seed_words: list):
    """First best of `restarts` see-saw runs, run r seeded by [*seed_words, r].

    Raises ArithmeticError unless <Sigma> of the assembled winner matches it.
    """
    tensor, dims = _partition_tensor(matrix, spec.n_qubits, parts)
    best = max((_seesaw_once(tensor, dims, np.random.default_rng([*seed_words, r]),
                             tol, max_iter) for r in range(restarts)),
               key=lambda run: run[0])
    recheck = sigma_value(_assemble(spec.n_qubits, parts, best[1]), spec)
    if abs(recheck - best[0]) > BOUND_RECHECK_ATOL:
        raise ArithmeticError(
            f"see-saw value {best[0]!r} disagrees with recomputed {recheck!r}")
    return best


def _seesaw_cut(matrix: np.ndarray, spec: WitnessSpec, cut: Bipartition,
                restarts: int, tol: float, max_iter: int, seed: int,
                cut_index: int) -> BisepResult:
    value, factors, iterations, converged, _ = _best_restart(
        matrix, spec, (cut.part_a, cut.part_b), restarts, tol, max_iter,
        [seed, cut_index])
    return BisepResult(bound=float(value), best_cut=cut,
                       best_state=(StateVector(len(cut.part_a), factors[0]),
                                   StateVector(len(cut.part_b), factors[1])),
                       restarts_used=restarts, converged=converged,
                       iterations=iterations, spec=spec)


def _check_run_params(restarts: int, seed: int, tol: float, max_iter: int) -> None:
    if restarts < 1:
        raise InputError("need at least one restart")
    if seed < 0:
        raise InputError("seed must be non-negative")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InputError(f"tol must be finite and non-negative, got {tol}")
    if max_iter < 1:
        raise InputError("need at least one sweep (max_iter >= 1)")


def seesaw_max(spec: WitnessSpec, cut: Bipartition,
               restarts: int = DEFAULT_RESTARTS, tol: float = DEFAULT_TOL,
               max_iter: int = DEFAULT_MAX_ITER, seed: int = 0) -> BisepResult:
    """Maximize <Sigma> over pure states product across one cut."""
    _check_cut(spec, cut)
    _check_run_params(restarts, seed, tol, max_iter)
    return _seesaw_cut(sigma_operator(spec), spec, cut,
                       restarts, tol, max_iter, seed, cut_index=0)


def bisep_bound(spec: WitnessSpec, restarts: int = DEFAULT_RESTARTS,
                tol: float = DEFAULT_TOL, seed: int = 0,
                max_iter: int = DEFAULT_MAX_ITER) -> BisepResult:
    """Maximum of seesaw_max over every canonical cut.

    The result bounds <Sigma> on all biseparable states (see module notes);
    exceeding it certifies genuine multipartite entanglement.
    """
    _check_run_params(restarts, seed, tol, max_iter)
    matrix = sigma_operator(spec)
    best = None
    for cut_index, cut in enumerate(enumerate_bipartitions(spec.n_qubits)):
        result = _seesaw_cut(matrix, spec, cut, restarts, tol, max_iter,
                             seed, cut_index)
        if best is None or result.bound > best.bound:
            best = result
    return best


def product_bound(spec: WitnessSpec, restarts: int = DEFAULT_RESTARTS,
                  tol: float = DEFAULT_TOL, seed: int = 0,
                  max_iter: int = DEFAULT_MAX_ITER) -> float:
    """Best <Sigma> found over fully product states (N single-qubit factors).

    Cannot exceed 1 beyond numerical slack; useful as a sanity anchor for
    the analytic product bound.
    """
    _check_run_params(restarts, seed, tol, max_iter)
    parts = tuple((q,) for q in range(1, spec.n_qubits + 1))
    return float(_best_restart(sigma_operator(spec), spec, parts, restarts,
                               tol, max_iter, [seed])[0])


def gme_detected(state, spec: WitnessSpec, bisep: BisepResult,
                 tol: float = 1e-9) -> bool:
    """True iff <Sigma> of the state exceeds the biseparable bound by > tol."""
    if bisep.spec != spec:
        raise InputError("biseparable bound was computed for a different witness")
    return sigma_value(state, spec) > bisep.bound + tol
