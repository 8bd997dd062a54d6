"""Property tests of Sigma(k) and its operator (hypothesis-generated specs)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sfwitness import (SiteLayout, StateVector, WitnessSpec, axis_components,
                       kraus_crosscheck, make_product_density, mix_with_white_noise,
                       sigma_operator, sigma_value)
from conftest import dense_expectation, random_bloch_in_ball, random_pure

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
def parity_swaps(draw):
    """A k = pi spec on unit spacing and two distinct sites of equal parity."""
    n = draw(st.integers(3, 5))
    i = draw(st.integers(1, n - 2))
    j = draw(st.sampled_from(range(i + 2, n + 1, 2)))
    spec = WitnessSpec(n, math.pi, draw(coefficient), draw(coefficient), draw(coefficient))
    return spec, i, j


@SETTINGS
@given(parity_swaps(), seeds)
def test_sigma_invariant_under_weight_automorphism(case, seed):
    # at k = pi, W_ij = (-1)^(j-i), so swapping two sites of equal parity maps W to itself
    spec, i, j = case
    n = spec.n_qubits
    axes = list(range(n))
    axes[i - 1], axes[j - 1] = axes[j - 1], axes[i - 1]
    swap = np.arange(2 ** n).reshape((2,) * n).transpose(axes).reshape(-1)
    state = random_pure(np.random.default_rng(seed), n)
    swapped = StateVector(n, state.amplitudes[swap])
    assert sigma_value(swapped, spec) == pytest.approx(sigma_value(state, spec), abs=1e-12)
    operator = sigma_operator(spec)
    assert np.allclose(operator[np.ix_(swap, swap)], operator, rtol=0.0, atol=1e-12)
