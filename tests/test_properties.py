"""Property tests of Sigma(k) and its operator (hypothesis-generated specs), and of the CLI's
exit codes on argv drawn from its grammar."""

import contextlib
import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sfwitness import (SiteLayout, StateVector, WitnessSpec, axis_components,
                       kraus_crosscheck, make_product_density, mix_with_white_noise,
                       pair_weight_matrix, sigma_operator, sigma_value,
                       verify_collective_identity)
from sfwitness import cli
from sfwitness.bisep import _automorphisms, _cut_orbits
from conftest import (automorphism_closure, dense_expectation, random_bloch_in_ball,
                      random_mixed, random_pure)

# N <= 6 keeps each example in the millisecond range; derandomized so reruns agree
SETTINGS = settings(max_examples=25, deadline=None, database=None, derandomize=True)

coefficient = st.floats(-1.0, 1.0, allow_nan=False)
seeds = st.integers(0, 2 ** 32 - 1)


@st.composite
def specs(draw, max_n=6):
    n = draw(st.integers(2, max_n))
    gaps = draw(st.lists(st.floats(0.1, 3.0), min_size=n - 1, max_size=n - 1))
    layout = SiteLayout(tuple(np.concatenate(([0.0], np.cumsum(gaps)))))
    k = draw(st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False))
    return WitnessSpec(n, k, draw(coefficient), draw(coefficient), draw(coefficient), layout)


@SETTINGS
@given(specs())
def test_operator_bit_identical_under_k_sign_flip(spec):
    flipped = WitnessSpec(spec.n_qubits, -spec.k, *spec.coefficients, spec.layout)
    assert np.array_equal(sigma_operator(spec), sigma_operator(flipped))


@SETTINGS
@given(specs(), seeds)
def test_operator_expectation_matches_sigma_value(spec, seed):
    state = random_pure(np.random.default_rng(seed), spec.n_qubits)
    dense = dense_expectation(state, sigma_operator(spec))
    assert abs(dense.imag) < 1e-10
    assert dense.real == pytest.approx(sigma_value(state, spec), abs=1e-10)


@SETTINGS
@given(specs(), seeds)
def test_sigma_value_is_components_dot_coefficients(spec, seed):
    state = random_pure(np.random.default_rng(seed), spec.n_qubits)
    assert sigma_value(state, spec) == pytest.approx(
        float(np.dot(axis_components(state, spec), spec.coefficients)), abs=1e-12)


@SETTINGS
@given(specs(), seeds)
def test_product_density_bounded_by_one(spec, seed):
    rng = np.random.default_rng(seed)
    rho = make_product_density([random_bloch_in_ball(rng) for _ in range(spec.n_qubits)])
    assert abs(sigma_value(rho, spec)) <= 1.0 + 1e-12


@SETTINGS
@given(specs(max_n=5), seeds, st.sampled_from("xyz"), st.booleans())
def test_collective_identity_at_any_k(spec, seed, axis, mixed):
    # the spec supplies a random N <= 5, layout and k; |S^a(k)|^2 - N against the pair sum
    state = (random_mixed if mixed else random_pure)(np.random.default_rng(seed), spec.n_qubits)
    lhs, rhs = verify_collective_identity(state, axis, spec.k, spec.layout)
    assert lhs == pytest.approx(rhs, abs=1e-10)


@SETTINGS
@given(specs())
def test_spec_json_round_trip(spec):
    assert WitnessSpec.from_json(spec.to_json()) == spec


@SETTINGS
@given(specs(max_n=5), seeds, st.floats(0.0, 1.0))
def test_white_noise_scales_sigma_by_one_minus_p(spec, seed, p):
    state = random_pure(np.random.default_rng(seed), spec.n_qubits)
    assert sigma_value(mix_with_white_noise(state, p), spec) == pytest.approx(
        (1.0 - p) * sigma_value(state, spec), abs=1e-12)


@SETTINGS
@given(specs(max_n=5), seeds, st.floats(0.0, 1.0))
def test_kraus_channel_matches_factor_law(spec, seed, q):
    state = random_pure(np.random.default_rng(seed), spec.n_qubits)
    observable_side, state_side = kraus_crosscheck(state, spec, q)
    assert state_side == pytest.approx(observable_side, abs=1e-12)


@st.composite
def symmetric_specs(draw):
    """Specs whose weights have symmetries: k = pi, k = 0 or a generic k, on unit
    spacing or on gaps from {0.5, 1, 2}, whose positions and separations are exact."""
    n = draw(st.integers(2, 6))
    k = draw(st.sampled_from([math.pi, 0.0, 0.3, 2.2]))
    gaps = draw(st.one_of(st.just([1.0] * (n - 1)),
                          st.lists(st.sampled_from([0.5, 1.0, 2.0]),
                                   min_size=n - 1, max_size=n - 1)))
    layout = SiteLayout(tuple(np.concatenate(([0.0], np.cumsum(gaps)))))
    return WitnessSpec(n, k, draw(coefficient), draw(coefficient), draw(coefficient), layout)


@SETTINGS
@given(symmetric_specs(), seeds)
def test_sigma_invariant_under_weight_automorphism(spec, seed):
    # every site permutation the search returns maps W, <Sigma> and Sigma to themselves
    n = spec.n_qubits
    weights = pair_weight_matrix(spec)
    state = random_pure(np.random.default_rng(seed), n)
    value, operator = sigma_value(state, spec), sigma_operator(spec)
    basis = np.arange(2 ** n).reshape((2,) * n)
    for perm in _automorphisms(weights):
        assert np.array_equal(weights[np.ix_(perm, perm)], weights)
        moved = basis.transpose(perm).reshape(-1)
        assert sigma_value(StateVector(n, state.amplitudes[moved]), spec) == pytest.approx(
            value, abs=1e-12)
        assert np.allclose(operator[np.ix_(moved, moved)], operator, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n, automorphisms, orbits", [(4, 8, 3), (6, 72, 5), (8, 1152, 8)])
def test_k_pi_symmetry_counts(n, automorphisms, orbits):
    # W_ij = (-1)^(j-i): permute odd and even sites within their class, or swap the classes
    weights = pair_weight_matrix(WitnessSpec(n, math.pi, 1, 1, 1))
    generators = _automorphisms(weights)
    assert len(generators) <= n * (n - 1) // 2
    assert len(automorphism_closure(generators, n)) == automorphisms
    assert len(_cut_orbits(weights)) == orbits


def burnside_cut_orbits(classes):
    """Orbits of the cuts when the sites of each class are interchangeable, by Burnside.

    A cut is then its counts (a_1, ...) of each class's sites in part A, up to the
    complement and, for two classes of equal size, up to swapping the classes.
    """
    points = [a for a in itertools.product(*(range(size + 1) for size in classes))
              if 0 < sum(a) < sum(classes)]
    def complement(a):
        return tuple(size - count for size, count in zip(classes, a))

    maps = [lambda a: a, complement]
    if len(classes) == 2 and classes[0] == classes[1]:
        maps += [lambda a: a[::-1], lambda a: complement(a[::-1])]
    fixed = sum(m(a) == a for m in maps for a in points)
    assert fixed % len(maps) == 0
    return fixed // len(maps)


@pytest.mark.parametrize("n, k, orbits", [
    (9, 0.0, 4), (10, 0.0, 5), (11, 0.0, 5), (12, 0.0, 6),
    (9, math.pi, 14), (10, math.pi, 11), (11, math.pi, 20), (12, math.pi, 15)])
def test_exact_orbit_counts(n, k, orbits):
    # k = 0: W_ij = 1, so every site permutation is an automorphism and a cut's orbit is
    # its block sizes; k = pi: as in test_k_pi_symmetry_counts
    spec = WitnessSpec(n, k, 1, 1, -1) if k == 0.0 else WitnessSpec(n, k, 1, 1, 1)
    classes = (n,) if k == 0.0 else ((n + 1) // 2, n // 2)
    found = _cut_orbits(pair_weight_matrix(spec))
    assert len(found) == orbits == burnside_cut_orbits(classes)
    assert sum(size for _, size in found) == 2 ** (n - 1) - 1


@pytest.mark.parametrize("n", [3, 4, 6, 8])
def test_generic_k_has_only_the_mirror(n):
    weights = pair_weight_matrix(WitnessSpec(n, 0.3, 1, 1, 1))
    assert _automorphisms(weights) == [tuple(range(n - 1, -1, -1))]


@SETTINGS
@given(specs(max_n=5), seeds)
def test_sigma_invariant_under_chain_mirror(spec, seed):
    # reversing the sites and mapping r -> -r keeps the layout increasing and every |r_j - r_i|
    n = spec.n_qubits
    mirrored = WitnessSpec(n, spec.k, *spec.coefficients,
                           SiteLayout(tuple(-r for r in reversed(spec.layout.positions))))
    reverse = np.arange(2 ** n).reshape((2,) * n).transpose(range(n - 1, -1, -1)).reshape(-1)
    state = random_pure(np.random.default_rng(seed), n)
    reversed_state = StateVector(n, state.amplitudes[reverse])
    assert sigma_value(reversed_state, mirrored) == pytest.approx(
        sigma_value(state, spec), abs=1e-12)
    assert np.allclose(sigma_operator(mirrored), sigma_operator(spec)[np.ix_(reverse, reverse)],
                       rtol=0.0, atol=1e-12)


# --- the CLI on argv drawn from its grammar --------------------------------

angles = st.one_of(
    st.sampled_from(["0", "pi", "-pi/2", "3pi/4", "2.5pi/3", "pi/0", ".pi", "tau",
                     "inf", "-inf", "nan", "1e308", "-1e308"]),
    st.floats(-10.0, 10.0).map(repr))
number_tokens = st.sampled_from(["0", "1", "-1", "0.5", "1.5", "x", "nan", "inf", "1e308"])
state_tokens = st.one_of(
    st.builds("{}:{},{}".format, st.sampled_from(["dicke", "phased-dicke"]),
              st.integers(0, 6), st.integers(-1, 7)),
    st.builds("{}:{},{}".format, st.sampled_from(["ghz-superposition", "dicke-ghz-superposition"]),
              angles, st.sampled_from(["+", "-", "+1", "-1", "0", "x"])),
    st.text("01", max_size=6).map("basis:{}".format),
    st.lists(st.lists(number_tokens, min_size=2, max_size=4).map(",".join), min_size=1, max_size=4)
    .map(lambda triples: "product:" + ";".join(triples)),
    st.sampled_from(["", "nonsense:1", "dicke:4", "dicke:a,b"]))
k_grids = st.one_of(
    st.lists(angles, min_size=1, max_size=4).map(",".join),
    st.builds("{}:{}:{}".format, angles, angles,
              st.sampled_from(["0", "1", "3", "-1", "x", str(cli.K_GRID_MAX_POINTS + 1)])))
shot_grids = st.lists(st.sampled_from(["1", "100", "1000", "0", "-5", "1.5", "1e3"]),
                      max_size=3).map(",".join)


@st.composite
def cli_argv(draw):
    """One invocation of eval, scan, robustness, sample or bisep-bound; every value option
    is passed as --name=value, so a leading '-' reaches the value parsers, not argparse."""
    command = draw(st.sampled_from(["eval", "scan", "robustness", "sample", "bisep-bound"]))
    argv = [command]
    if command == "bisep-bound":  # N <= 6 and restarts <= 2 keep each example cheap
        argv += [f"--n-qubits={draw(st.sampled_from(['0', '1', '2', '3', '4', '6', 'x']))}",
                 f"--restarts={draw(st.sampled_from(['0', '1', '2', '-1']))}",
                 f"--tol={draw(st.sampled_from(['1e-10', '1e-6', '-1', 'nan', 'inf', 'x']))}"]
    else:
        argv.append(f"--state={draw(state_tokens)}")
    coefficients = draw(st.lists(number_tokens, min_size=2, max_size=4))
    argv += [f"--k={draw(angles)}", f"--c={','.join(coefficients)}"]
    if draw(st.booleans()):
        positions = draw(st.lists(number_tokens, min_size=1, max_size=7))
        argv.append(f"--positions={','.join(positions)}")
    if command == "scan":
        argv.append(f"--k-grid={draw(k_grids)}")
    if command == "sample":
        argv.append(f"--shot-grid={draw(shot_grids)}")
    if command == "eval" and draw(st.booleans()):
        argv.append("--correlators")
    argv.append(f"--format={draw(st.sampled_from(['text', 'json', 'csv']))}")
    seed = draw(st.sampled_from([None, "0", "7", "-1", "x"]))
    return argv + ([f"--seed={seed}"] if seed is not None else [])


@SETTINGS
@given(cli_argv())
def test_cli_exits_with_a_mapped_code_and_an_error_line(argv):
    # in process: main() always ends in SystemExit, and a failure must come with its reason
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          pytest.raises(SystemExit) as exc_info):
        cli.main(argv)
    code = exc_info.value.code
    assert code in (0, 2, 3, 4, 5), (argv, code)
    assert code == 0 or "error:" in err.getvalue(), (argv, err.getvalue())
