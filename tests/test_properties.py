"""Property tests of the dense Sigma(k) operator (hypothesis-generated specs)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sfwitness import SiteLayout, WitnessSpec, sigma_operator, sigma_value
from conftest import dense_expectation, random_pure

# N <= 6 keeps each example in the millisecond range
SETTINGS = settings(max_examples=25, deadline=None, database=None)

coefficient = st.floats(-1.0, 1.0, allow_nan=False)


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
@given(specs(), st.integers(0, 2 ** 32 - 1))
def test_operator_expectation_matches_sigma_value(spec, seed):
    state = random_pure(np.random.default_rng(seed), spec.n_qubits)
    dense = dense_expectation(state, sigma_operator(spec))
    assert abs(dense.imag) < 1e-10
    assert dense.real == pytest.approx(sigma_value(state, spec), abs=1e-10)
