"""Property tests of Sigma(k) and its operator (hypothesis-generated specs)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sfwitness import (SiteLayout, StateVector, WitnessSpec, axis_components,
                       kraus_crosscheck, make_product_density, mix_with_white_noise,
                       pair_weight_matrix, sigma_operator, sigma_value,
                       verify_collective_identity)
from sfwitness.bisep import _automorphisms, _cut_orbits
from conftest import dense_expectation, random_bloch_in_ball, random_mixed, random_pure

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
    assert len(_automorphisms(weights)) == automorphisms
    assert len(_cut_orbits(weights)) == orbits


@pytest.mark.parametrize("n", [3, 4, 6, 8])
def test_generic_k_has_only_the_mirror(n):
    weights = pair_weight_matrix(WitnessSpec(n, 0.3, 1, 1, 1))
    assert _automorphisms(weights) == [tuple(range(n)), tuple(range(n - 1, -1, -1))]


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
