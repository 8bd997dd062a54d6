"""Numerical maximization of <Sigma(k)> over biseparable and fully product
pure states.

The optimizer is an alternating see-saw: with all tensor factors but one held fixed,
Sigma contracts to an effective Hermitian operator on the free factor, whose top
eigenvector (by `eigh` up to 64 dimensions, by matrix-free Lanczos above) is the exact
best update. Each half-step is therefore non-decreasing and the iteration converges to a
local maximum; random restarts guard against bad basins. Both see-saws sweep their
restarts as stacks in `_best_run`, each restart frozen once it stops; a byte cap on a
stack runs many restarts in turns.

A mixed biseparable state is a convex mixture of pure states product
across single cuts, and <Sigma> is linear in the state, so the maximum
over pure product-across-a-cut states already bounds all biseparable
states. The see-saw returns attained values, i.e. lower bounds on that
maximum; restarts make them sharp in practice.

W_ij = u_i u_j + v_i v_j with u_j = cos(k r_j) and v_j = sin(k r_j), so across a
cut A|B Sigma is each block's own pair sum plus sum_a c_a (U_A^a U_B^a +
V_A^a V_B^a) / C(N,2), where U^a + i V^a = sum_j e^{i k r_j} sigma_j^a is a
block's structure-factor amplitude: cuts run on block operators, never on a 4^N
one. A fully product state's factors are qubits with effective operator
h.sigma + const, h = c o sum_j W_ij n_j over the other Bloch vectors n_j, so that
see-saw moves n_i to h/|h| (a zero field leaves n_i).

A site permutation p with W[p][:, p] == W maps Sigma to itself, so all cuts of its
orbit share one maximum: `bisep_bound` runs the first cut of each orbit only, on
that cut's own seeds, and `orbit_size` counts the cuts its `best_cut` stands for.
The automorphisms (bit-equal weights) come from a generator search, so the orbits are
exact; its node budget, kept for user layouts, can only leave smaller orbits, which stay sound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels, states, witness
from .errors import InputError, check_integer, check_real, check_type
from .states import StateVector
from .witness import WitnessSpec, pair_weight_matrix, sigma_value

DEFAULT_RESTARTS = 200
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 500

BOUND_RECHECK_ATOL = 1e-9

#: Partial site maps the automorphism search may extend before it stops.
AUTOMORPHISM_NODE_BUDGET = 20_000

#: Blocks above DENSE_BLOCK_MAX_DIM dimensions (|B| >= 7) run matrix-free: `_lanczos_top` takes
#: LANCZOS_BASIS Krylov vectors per cycle and stops a row at Ritz residual LANCZOS_RESIDUAL.
DENSE_BLOCK_MAX_DIM, LANCZOS_BASIS, LANCZOS_RESIDUAL = 64, 32, 1e-12


@dataclass(frozen=True)
class Bipartition:
    """Canonical two-block split of sites {1..N}: block A contains site 1."""

    part_a: tuple
    part_b: tuple

    def __post_init__(self):
        a, b = (tuple(sorted(check_integer(q, "site label", 1) for q in part))
                for part in (self.part_a, self.part_b))
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
    orbit_size: int = 1


def enumerate_bipartitions(n_qubits: int) -> list[Bipartition]:
    """All 2^(N-1) - 1 canonical cuts, ordered by their `_cut` label."""
    n_qubits = check_integer(n_qubits, "n_qubits", 2)
    return [_cut(n_qubits, label) for label in range(2 ** (n_qubits - 1) - 1)]


def _cut(n_qubits: int, label: int) -> Bipartition:
    """Cut `label`: part_a holds site 1, plus site q + 2 for each bit q of the label."""
    others = range(2, n_qubits + 1)
    return Bipartition((1,) + tuple(q for pos, q in enumerate(others) if label >> pos & 1),
                       tuple(q for pos, q in enumerate(others) if not label >> pos & 1))


def _automorphisms(weights: np.ndarray) -> list[tuple]:
    """Generators of the site permutations p (0-based) with weights[p][:, p] == weights: for
    each site i and j > i, one that fixes sites 0..i-1 and sends i to j, which generate the
    group. A depth-first search maps a site only to one with the same sorted row while the
    weights among mapped sites are preserved; it stops after AUTOMORPHISM_NODE_BUDGET partial
    maps in all, and what it found then generates a subgroup."""
    n = len(weights)
    rows = weights.tolist()
    classes = [sorted(row) for row in rows]
    candidates = [[j for j in range(n) if classes[j] == classes[i]] for i in range(n)]
    nodes = 0

    def extend(image, j):
        """First automorphism extending the partial map `image` by len(image) -> j."""
        nonlocal nodes
        i = len(image)
        if (j in image or nodes >= AUTOMORPHISM_NODE_BUDGET
                or not all(rows[j][image[s]] == rows[i][s] for s in range(i))):
            return None
        nodes += 1
        image = image + [j]
        if i + 1 < n:
            return next(filter(None, (extend(image, t) for t in candidates[i + 1])), None)
        return tuple(image) if np.array_equal(weights[np.ix_(image, image)], weights) else None

    found = (extend(list(range(i)), j) for i in range(n) for j in candidates[i] if j > i)
    return [p for p in found if p]


def _cut_orbits(weights: np.ndarray) -> list[tuple[int, int]]:
    """(cut label, orbit size) of the first cut of each orbit, in label order: each `_cut`
    label takes the least label of itself and its canonical images under the `_automorphisms`
    generators, then its label's label, until no label changes."""
    n = len(weights)
    count = 2 ** (n - 1) - 1
    members = (np.arange(count)[:, None] << 1 | 1) >> np.arange(n) & 1
    generators = np.array(_automorphisms(weights), dtype=int).reshape(-1, n)
    images = members @ (1 << generators).T
    images = np.where(images & 1, images, (2 ** n - 1) ^ images) >> 1
    label, joined = None, np.arange(count)
    while not np.array_equal(joined, label):
        label = joined
        joined = np.minimum(label, label[images].min(1, initial=count))
        joined = joined[joined]
    representatives, sizes = np.unique(label, return_counts=True)
    return list(zip(representatives.tolist(), sizes.tolist()))


def _block(sites: list, spec: WitnessSpec, norm: int):
    """(moments(held), top(field, start), bytes) of the cut block on 0-based `sites`: per row of
    `held`, the block's own pair sum and its six moments <U^xyz>, <V^xyz>; per row of `field`,
    eigh's (values, vectors) of the top eigenpair of own + field . (U^xyz, V^xyz); and one
    restart's peak bytes in a half-step. A block of at most DENSE_BLOCK_MAX_DIM dimensions holds
    its dense (own, U^xyz, V^xyz) stack and calls eigh ((d, d) operators beside the coupling term
    or the eigenvectors); a larger one is matrix-free and runs `_lanczos_top` from `start` (its
    Krylov basis beside 4|B| gathered vectors)."""
    n, idx = len(sites), np.arange(1 << len(sites))
    masks, signs = kernels.site_masks(n)[:, None], kernels.outcome_signs(n)
    rules = [kernels.pauli_rule(axis, masks, signs) for axis in kernels.AXES]
    trig = spec.layout.cos_sin(spec.k)[:, sites]
    if idx.size <= DENSE_BLOCK_MAX_DIM:
        ops = np.zeros((7, idx.size, idx.size), dtype=complex)
        weights = pair_weight_matrix(spec)[np.ix_(sites, sites)]
        ops[0] = witness._pair_operator(weights, spec.coefficients, norm)
        flips, coefs = map(np.array, zip(*rules))
        np.add.at(ops, (np.arange(1, 7).reshape(2, 3, 1, 1), idx, idx ^ flips),
                  trig[:, None, :, None] * coefs)
        flat, own, amplitudes = ops.reshape(7 * idx.size, -1), ops[0], ops[1:].reshape(6, -1)
        return (lambda held: ((flat @ held[:, :, None]).reshape(len(held), 7, -1)
                              @ held.conj()[:, :, None])[:, :, 0].real,
                lambda field, start: np.linalg.eigh(
                    own + (field[:, None, :] @ amplitudes).reshape(-1, *own.shape)),
                32 * idx.size ** 2)
    # U^a U^a + V^a V^a = sum_ij w_ji sigma_j^a sigma_i^a (w_ji = cos cos + sin sin), so the own
    # pair sum takes one gather of v, shared by x and y, and one of their w-weighted sums; z is
    # diagonal. Real factors multiply complex arrays as real views.
    (flip, x_coef), (_, y_coef), (_, z) = rules
    table, coefs = idx ^ flip, np.array([x_coef, y_coef])  # sigma^x, sigma^y
    spots = (np.arange(2 * n)[:, None] << n | np.tile(table, (2, 1))).ravel()  # (j, c ^ m_j)
    z_sums, half = trig @ z, np.array(spec.coefficients) / (2 * norm)
    pair, own_z = np.kron(np.diag(half[:2]), trig.T @ trig), half[2] * (z_sums ** 2).sum(0)

    def moments(held):
        xy = (trig @ (coefs * np.take(held, table, axis=1)[:, None]).view(float)).view(complex)
        products = np.concatenate([xy, z_sums * held[:, None, None]], 1)  # (rows, a, U|V, d)
        means = (products @ held.conj()[:, None, :, None])[..., 0].real.transpose(0, 2, 1)
        return np.column_stack([((np.abs(products) ** 2).sum((2, 3)) - n) @ half,
                                means.reshape(-1, 6)])

    def top(field, start):  # field: (rows, U|V x xyz)
        site_field = (trig.T @ field.reshape(-1, 2, 3)[..., :2]).transpose(0, 2, 1)[..., None]
        diagonal = own_z - n * half.sum() + field[:, 2::3] @ z_sums

        def apply(rows, v):  # holds at most 4|B| vectors per row at once
            sigma = (coefs * np.take(v, table, axis=1)[:, None]).reshape(len(v), 2 * n, -1)
            sigma = (pair @ sigma.view(float)).view(complex)  # sum_i w_ji sigma_i^a v
            sigma += site_field[rows].reshape(len(v), 2 * n, 1) * v[:, None]  # and the field's
            back = np.take(sigma.reshape(len(v), -1), spots, axis=1).reshape(sigma.shape)
            back *= coefs.reshape(2 * n, -1)
            return diagonal[rows] * v + back.sum(1)

        return _lanczos_top(apply, start)

    return moments, top, (16 << n) * (LANCZOS_BASIS + 4 * n)


def _lanczos_top(apply, start: np.ndarray):
    """eigh's (values, vectors) of the top eigenpair of each row's Hermitian map apply(rows, v),
    by Lanczos with full reorthogonalization from the unit rows `start`. A cycle ends after
    LANCZOS_BASIS steps, at a breakdown or once every Ritz residual (checked every fourth step)
    is at most LANCZOS_RESIDUAL; other rows restart from their Ritz vectors, unless stalled."""
    values, vectors, rows = np.full(len(start), -np.inf), start.copy(), np.arange(len(start))
    while rows.size:
        basis = np.zeros((rows.size, LANCZOS_BASIS, start.shape[1]), dtype=complex)
        tri, basis[:, 0] = np.zeros((rows.size, LANCZOS_BASIS, LANCZOS_BASIS)), vectors[rows]
        for j in range(LANCZOS_BASIS):
            w = apply(rows, basis[:, j])
            tri[:, j, j] = (basis[:, j].conj() * w).sum(1).real
            for _ in range(2):  # classical Gram-Schmidt against the whole basis, twice
                w -= ((basis[:, :j + 1] @ w.conj()[:, :, None]).conj().transpose(0, 2, 1)
                      @ basis[:, :j + 1])[:, 0]
            beta, full = np.linalg.norm(w, axis=1), j + 1 == LANCZOS_BASIS
            if full or (j + 1) % 4 == 0 or np.any(beta <= LANCZOS_RESIDUAL):
                theta, ritz = np.linalg.eigh(tri[:, :j + 1, :j + 1])
                done = beta * np.abs(ritz[:, -1, -1]) <= LANCZOS_RESIDUAL
                if full or done.all() or np.any(beta <= LANCZOS_RESIDUAL):  # or a breakdown
                    break
            basis[:, j + 1] = w / beta[:, None]
            tri[:, j, j + 1] = tri[:, j + 1, j] = beta
        top = (ritz[:, None, :, -1] @ basis[:, :j + 1])[:, 0]
        done |= full & (theta[:, -1] <= values[rows])
        values[rows], vectors[rows] = theta[:, -1], top / np.linalg.norm(top, axis=1)[:, None]
        rows = rows[~done]
    return values[:, None], vectors[:, :, None]


def _best_run(draw, start, sweep, seed_words: tuple, restarts: int, tol: float,
              max_iter: int, stack: int):
    """First best (value, point, sweeps, converged) of `restarts` runs, `stack` runs at a
    time. Run r draws a row draw(default_rng([*seed_words, r])); start(rows) makes a stack's
    `points`, and sweep(points, rows) updates those rows in place and returns their values.
    A run is frozen once a sweep gains < tol or after max_iter sweeps."""
    best = None
    for first in range(0, restarts, stack):
        runs = range(first, min(first + stack, restarts))
        points = start(np.array([draw(np.random.default_rng([*seed_words, r])) for r in runs]))
        values, gains = np.full(len(runs), -np.inf), np.full(len(runs), np.inf)
        sweeps, active = np.zeros(len(runs), dtype=int), np.arange(len(runs))
        while active.size:  # max_iter >= 1 (_check_run_params)
            new = sweep(points, active)
            gains[active], values[active] = new - values[active], new
            sweeps[active] += 1
            active = active[~(gains[active] < tol) & (sweeps[active] < max_iter)]
        win = int(np.argmax(values))  # the first best of this stack, and of all if better
        if best is None or values[win] > best[0]:
            best = (float(values[win]), [p[win] for p in points], int(sweeps[win]),
                    bool(gains[win] < tol))
    return best


def assemble_cut_state(cut: Bipartition, state_a: StateVector,
                       state_b: StateVector) -> StateVector:
    """Product state |a> x |b> across the cut, as a full register state."""
    for value, kind in ((cut, Bipartition), (state_a, StateVector), (state_b, StateVector)):
        check_type(value, kind, "assemble_cut_state")
    if (len(cut.part_a), len(cut.part_b)) != (state_a.n_qubits, state_b.n_qubits):
        raise InputError("factor sizes do not match the cut")
    order = [q - 1 for q in (*cut.part_a, *cut.part_b)]
    full = np.kron(state_a.amplitudes, state_b.amplitudes)
    amps = full.reshape((2,) * cut.n_qubits).transpose(np.argsort(order)).reshape(-1)
    return StateVector._adopt(cut.n_qubits, amps / np.linalg.norm(amps))


def _recheck(value: float, state, spec: WitnessSpec) -> float:
    """Return `value`, or raise ArithmeticError unless <Sigma> on `state` matches it."""
    recheck = sigma_value(state, spec)
    if abs(recheck - value) > BOUND_RECHECK_ATOL:
        raise ArithmeticError(
            f"see-saw value {value!r} disagrees with recomputed {recheck!r}")
    return float(value)


def _seesaw_cut(spec: WitnessSpec, cut: Bipartition, restarts: int, tol: float,
                max_iter: int, seed: int, cut_index: int, orbit_size: int = 1) -> BisepResult:
    """First best of `restarts` see-saw runs, run r seeded by [seed, cut_index, r]."""
    norm, parts = math.comb(spec.n_qubits, 2), (cut.part_a, cut.part_b)
    coupling = np.tile(spec.coefficients, 2) / norm
    moments, tops, peaks = zip(*(_block([q - 1 for q in part], spec, norm) for part in parts))
    sizes = [2 << len(part) for part in parts]  # normals per factor: real and imaginary parts

    def sweep(factors, rows):  # <held|Sigma|held> = top value + the held block's own pair sum
        for hold in range(2):
            held = moments[1 - hold](factors[1 - hold][rows])
            values, vectors = tops[hold](coupling * held[:, 1:], factors[hold][rows])
            factors[hold][rows] = vectors[:, :, -1]
        return values[:, -1] + held[:, 0]

    def start(normals):
        return list(map(states._normalized_amplitudes, np.split(normals, sizes[:1], axis=1)))

    value, factors, iterations, converged = _best_run(  # one draw per restart, both factors
        lambda rng: rng.standard_normal(sum(sizes)), start, sweep, (seed, cut_index), restarts,
        tol, max_iter, stack=max(1, states._STACK_BYTES // max(peaks)))
    best_state = tuple(StateVector(len(part), factor) for part, factor in zip(parts, factors))
    return BisepResult(bound=_recheck(value, assemble_cut_state(cut, *best_state), spec),
                       best_cut=cut, best_state=best_state,
                       restarts_used=restarts, converged=converged,
                       iterations=iterations, spec=spec, orbit_size=orbit_size)


def _check_run_params(spec, restarts, seed, tol, max_iter, cap="OPERATOR_MAX_QUBITS") -> tuple:
    check_type(spec, WitnessSpec, "the see-saw")
    restarts, seed, max_iter = (check_integer(value, name, least) for name, value, least in (
        ("restarts", restarts, 1), ("seed", seed, 0), ("max_iter", max_iter, 1)))
    tol = check_real(tol, "tol", 0)
    states._check_size(spec.n_qubits, cap)
    return restarts, seed, tol, max_iter


def seesaw_max(spec: WitnessSpec, cut: Bipartition,
               restarts: int = DEFAULT_RESTARTS, tol: float = DEFAULT_TOL,
               max_iter: int = DEFAULT_MAX_ITER, seed: int = 0) -> BisepResult:
    """Maximize <Sigma> over pure states product across one cut."""
    check_type(cut, Bipartition, "seesaw_max")
    restarts, seed, tol, max_iter = _check_run_params(spec, restarts, seed, tol, max_iter)
    if cut.n_qubits != spec.n_qubits:
        raise InputError(f"cut covers {cut.n_qubits} sites, spec has {spec.n_qubits}")
    return _seesaw_cut(spec, cut, restarts, tol, max_iter, seed, cut_index=0)


def bisep_bound(spec: WitnessSpec, restarts: int = DEFAULT_RESTARTS,
                tol: float = DEFAULT_TOL, seed: int = 0,
                max_iter: int = DEFAULT_MAX_ITER) -> BisepResult:
    """Maximum of seesaw_max over one cut per symmetry orbit (the first best wins).

    The result bounds <Sigma> on all biseparable states (see module notes);
    exceeding it certifies genuine multipartite entanglement.
    """
    restarts, seed, tol, max_iter = _check_run_params(spec, restarts, seed, tol, max_iter)
    return max((_seesaw_cut(spec, _cut(spec.n_qubits, label), restarts, tol, max_iter, seed,
                            label, size) for label, size in _cut_orbits(pair_weight_matrix(spec))),
               key=lambda result: result.bound)


def product_bound(spec: WitnessSpec, restarts: int = DEFAULT_RESTARTS,
                  tol: float = DEFAULT_TOL, seed: int = 0,
                  max_iter: int = DEFAULT_MAX_ITER) -> float:
    """Best <Sigma> found over fully product states (N single-qubit factors).

    Restart r starts from the Bloch vectors of N random kets drawn from
    default_rng([seed, r]). Cannot exceed 1 beyond numerical slack; useful
    as a sanity anchor for the analytic product bound.
    """
    restarts, seed, tol, max_iter = _check_run_params(spec, restarts, seed, tol, max_iter,
                                                      "MAX_QUBITS")  # the recheck's ket
    weights = pair_weight_matrix(spec) / math.comb(spec.n_qubits, 2)
    coefficients = np.array(spec.coefficients)

    def start(normals):
        a, b = np.moveaxis(states._normalized_amplitudes(normals), -1, 0)
        return [np.stack([2 * (a.conj() * b).real, 2 * (a.conj() * b).imag,
                          np.abs(a) ** 2 - np.abs(b) ** 2], -1)]

    def sweep(points, rows):
        blochs = points[0][rows]
        for i in range(len(weights)):
            field = coefficients * (weights[i] @ blochs)
            norm = np.sqrt(field[:, None, :] @ field[:, :, None])[:, 0]  # per row, as one dot
            np.divide(field, norm, out=blochs[:, i], where=norm > 0.0)
        points[0][rows] = blochs
        return 0.5 * (coefficients * blochs * (weights @ blochs)).reshape(len(rows), -1).sum(1)

    # per restart, a sweep's peak holds five (N, 3) float arrays: the stored and swept rows
    # and the three terms of the value
    value, (blochs,), _, _ = _best_run(lambda rng: rng.standard_normal((len(weights), 4)), start,
                                       sweep, (seed,), restarts, tol, max_iter,
                                       stack=max(1, states._STACK_BYTES // (120 * len(weights))))
    ket = functools.reduce(np.kron, states._bloch_to_ket(blochs))
    return _recheck(value, StateVector(spec.n_qubits, ket), spec)


def gme_detected(state, spec: WitnessSpec, bisep: BisepResult) -> bool:
    """True iff <Sigma> of the state exceeds the biseparable bound by > witness.DETECTION_TOL."""
    check_type(bisep, BisepResult, "gme_detected")
    if bisep.spec != spec:
        raise InputError("biseparable bound was computed for a different witness")
    return sigma_value(state, spec) > bisep.bound + witness.DETECTION_TOL
