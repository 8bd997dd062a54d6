"""Bit convention and Pauli action against kron-built dense operators."""

import itertools

import numpy as np
import pytest

from sfwitness import InputError, kernels
from conftest import pauli_on, random_mixed, random_pure


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_masks_and_signs_follow_basis_strings(n):
    # qubit i is the i-th character of the n-digit binary string of the index
    bits = np.array([[int(ch) for ch in format(b, f"0{n}b")] for b in range(2 ** n)]).T
    assert np.array_equal(kernels.outcome_signs(n), 1.0 - 2.0 * bits)
    assert np.array_equal(kernels.outcome_signs(n, (n, 1)), 1.0 - 2.0 * bits[[n - 1, 0]])
    assert kernels.site_masks(n).tolist() == [
        int("".join("1" if q == i else "0" for q in range(n)), 2) for i in range(n)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_apply_pauli_matches_dense_operator(rng, n):
    vector = random_pure(rng, n).amplitudes
    matrix = random_mixed(rng, n).entries
    for site, axis in itertools.product(range(1, n + 1), "xyz"):
        op = pauli_on(n, {site: axis})
        for arr in (vector, matrix):
            assert np.allclose(kernels.apply_pauli(arr, n, site, axis), op @ arr,
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pair_expectation_matches_dense_operator(rng, n):
    psi, rho = random_pure(rng, n).amplitudes, random_mixed(rng, n).entries
    for i, j in itertools.permutations(range(1, n + 1), 2):
        for a, b in itertools.product("xyz", repeat=2):
            op = pauli_on(n, {i: a, j: b})
            assert kernels.pair_expectation(psi, n, i, j, a, b) == pytest.approx(
                np.vdot(psi, op @ psi), abs=1e-12)
            assert kernels.pair_expectation(rho, n, i, j, a, b) == pytest.approx(
                np.trace(rho @ op), abs=1e-12)


@pytest.mark.parametrize("site, axis", [(0, "x"), (4, "x"), (1, "w")])
def test_rejects_bad_site_or_axis(site, axis):
    with pytest.raises(InputError):
        kernels.apply_pauli(np.ones(8) / np.sqrt(8), 3, site, axis)
