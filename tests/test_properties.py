"""Property tests of Sigma(k) and its operator (hypothesis-generated specs)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sfwitness import (SiteLayout, WitnessSpec, axis_components, make_product_density,
                       sigma_operator, sigma_value)
from conftest import dense_expectation, random_bloch_in_ball, random_pure

# N <= 6 keeps each example in the millisecond range; derandomized so reruns agree
SETTINGS = settings(max_examples=25, deadline=None, database=None, derandomize=True)

coefficient = st.floats(-1.0, 1.0, allow_nan=False)
seeds = st.integers(0, 2 ** 32 - 1)


@st.composite
def specs(draw):
    n = draw(st.integers(2, 6))
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
