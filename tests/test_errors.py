"""The shared input rules: `errors.check_real` beside `errors.check_integer`, and the number
boundary they make: every accepted number type gives the answer of its float or int image."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sfwitness import (BlochVector, DensityMatrix, InputError, NoiseModel, ShotPlan, SiteLayout,
                       StateVector, WitnessSpec, bisep_bound, dicke_sigma_closed_form,
                       kraus_crosscheck, make_dicke, make_dicke_ghz_superposition,
                       make_ghz_superposition, mix_with_white_noise, noisy_sigma,
                       pair_weight_matrix, phased_dicke_sigma_closed_form, product_bound,
                       scan_k, sigma_value, states, structure_factor, two_point,
                       verify_collective_identity)
from sfwitness.errors import check_integer, check_real
from conftest import random_mixed, random_pure

DICKE_4 = make_dicke(4, 2)
SPEC_4 = WitnessSpec(4, 0.0, 1, 1, 1)


class TestCheckReal:
    @pytest.mark.parametrize("value", [0.25, -3, np.float64(0.5), np.float32(0.5),
                                       np.int64(2), Fraction(1, 3), -1.7976931348623157e308])
    def test_returns_the_value_unconverted(self, value):
        # checked as given, returned as its float image: the one number type callers store
        checked = check_real(value, "x")
        assert checked == float(value) and type(checked) is float

    @pytest.mark.parametrize("value", [True, np.bool_(False), 1j, complex(0.5, 0), "0.5", None,
                                       [0.5], math.nan, math.inf, -math.inf, np.float32("inf"),
                                       10 ** 400, Fraction(-(10 ** 400))],
                             ids=["bool", "numpy-bool", "complex", "complex-real", "str",
                                  "none", "list", "nan", "inf", "-inf", "float32-inf",
                                  "huge-int", "huge-fraction"])
    def test_rejects_what_is_not_a_finite_real(self, value):
        with pytest.raises(InputError, match="x must be finite and real"):
            check_real(value, "x")

    @pytest.mark.parametrize("value, least, most, message", [
        (-0.5, 0, None, r"x must be >= 0, got -0.5"),
        (1.5, 0, 1, r"x must be in \[0, 1\], got 1.5"),
        (-2, -1, 1, r"x must be in \[-1, 1\], got -2"),
    ])
    def test_range_messages_match_check_integer(self, value, least, most, message):
        with pytest.raises(InputError, match=message):
            check_real(value, "x", least, most)
        if isinstance(value, int):
            with pytest.raises(InputError, match=message):
                check_integer(value, "x", least, most)

    def test_bounds_are_inclusive(self):
        assert check_real(0, "x", 0, 1) == 0 and check_real(1.0, "x", 0, 1) == 1.0

    def test_narrow_numpy_floats_check_without_warnings(self):
        # warnings are errors in this suite: no comparison may cast the float range to float32
        assert check_real(np.float32(0.5), "x", 0, 1) == np.float32(0.5)
        assert check_real(np.float16(-2.0), "x") == np.float16(-2.0)


def test_check_integer_still_accepts_integers_beyond_the_float_range():
    # only reals must fit a float; a huge integer is finite, and its range rule still applies
    assert check_integer(10 ** 400, "seed", 0) == 10 ** 400


@pytest.mark.parametrize("call", [
    lambda: WitnessSpec(4, 0.0, 0.5j, 1, 1),
    lambda: WitnessSpec(4, 1j, 1, 1, 1),
    lambda: WitnessSpec(4, "1", 1, 1, 1),
    lambda: SiteLayout(("a", "b")),
    lambda: BlochVector("a", 0, 0),
    lambda: BlochVector(1e308, 0, 0),
    lambda: mix_with_white_noise(DICKE_4, "0.5"),
    lambda: NoiseModel("collective", None),
    lambda: kraus_crosscheck(DICKE_4, SPEC_4, "0.1"),
    lambda: bisep_bound(SPEC_4, restarts=1, tol="1"),
    lambda: make_ghz_superposition(math.inf),
    lambda: make_dicke_ghz_superposition(math.inf),
    lambda: scan_k(DICKE_4, 1, 1, 1, ["a"]),
    lambda: structure_factor(DICKE_4, "0", "x", "x"),
    lambda: two_point(DICKE_4, 1.5, 2, "x", "x"),
], ids=["spec-complex-c", "spec-complex-k", "spec-str-k", "layout-str", "bloch-str",
        "bloch-overflowing-norm", "white-noise-str", "noise-model-none", "kraus-q-str",
        "bisep-tol-str", "ghz-inf", "dicke-ghz-inf", "scan-str-k", "structure-factor-str-k",
        "two-point-float-label"])
def test_wrong_real_or_label_raises_input_error(call):
    with pytest.raises(InputError):
        call()


LAYOUT_6 = SiteLayout((0, 1.3, 2.9, 4.4, 5, 7.7))


def _image(value):
    """The float (or, for an integer type, int) that the checks make of an accepted number."""
    return int(value) if isinstance(value, (int, np.integer)) else float(value)


def _bits(result):
    """float.hex of every number in a result: equal only when every bit and type agrees."""
    if isinstance(result, (tuple, list)):
        return [_bits(part) for part in result]
    if isinstance(result, np.ndarray):
        return _bits(result.tolist())
    if isinstance(result, complex):
        return [result.real.hex(), result.imag.hex()]
    return float.hex(result)  # TypeError for a numpy float32 or an int


class TestFloatImages:
    """Each number type the checks accept gives its float or int image's answer."""

    def test_float32_k_weights_as_a_float(self):
        spec = WitnessSpec(6, np.float32(0.7), 1, 1, 1, LAYOUT_6)
        assert sigma_value(make_dicke(6, 3), spec) == -0.18665868276138353

    @pytest.mark.parametrize("args, restarts", [
        ((6, np.float32(0.7), 1, 1, 1, LAYOUT_6), 2),
        ((4, math.pi, *np.float32([0.3, 0.7, 0.9])), 3),
        ((4, Fraction(1, 3), 1, 1, 1), 2),
        ((4, 0.3, Fraction(1, 3), 1, -1), 2),
    ], ids=["float32-k", "float32-c", "fraction-k", "fraction-c"])
    def test_see_saw_bounds(self, args, restarts):
        # float32 input must not round the see-saw apart from its float64 recheck, and a
        # Fraction must not reach numpy as an object
        spec, image = WitnessSpec(*args), WitnessSpec(*map(_image, args[:5]), *args[5:])
        assert spec.to_json() == image.to_json()
        assert _bits(bisep_bound(spec, restarts).bound) == _bits(bisep_bound(image, restarts).bound)
        assert _bits(product_bound(spec, restarts)) == _bits(product_bound(image, restarts))

    def test_fraction_k_in_the_collective_identity(self):
        state = make_dicke(4, 2)
        assert (_bits(verify_collective_identity(state, "x", Fraction(1, 3)))
                == _bits(verify_collective_identity(state, "x", 1 / 3)))

    def test_fraction_white_noise(self):
        rho = mix_with_white_noise(make_dicke(8, 4), Fraction(1, 3))
        assert sigma_value(rho, WitnessSpec(8, 0, 1, 1, -1)) == pytest.approx(6 / 7, abs=1e-12)

    def test_float32_noise_strengths(self):
        spec, state, q = WitnessSpec(4, 0, 1, 1, -1), make_dicke(4, 2), np.float32(0.3)
        assert (_bits(kraus_crosscheck(state, spec, q))
                == _bits(kraus_crosscheck(state, spec, _image(q))))
        for kind in ("collective", "individual"):
            assert (_bits(noisy_sigma(state, spec, NoiseModel(kind, q)))
                    == _bits(noisy_sigma(state, spec, NoiseModel(kind, _image(q)))))

    def test_numpy_integer_closed_forms_stay_exact(self):
        # int64 products at N = 4e9 would wrap into a negative Sigma
        n, l = 4 * 10 ** 9, 10 ** 9
        assert dicke_sigma_closed_form(np.int64(n), np.int64(l)) == dicke_sigma_closed_form(n, l)
        assert (phased_dicke_sigma_closed_form(np.int64(n), np.int64(n // 2), True)
                == phased_dicke_sigma_closed_form(n, n // 2, True))

    def test_numpy_integer_qubit_counts_write_json(self):
        assert (WitnessSpec(np.int64(4), 0, 1, 1, -1).to_json()
                == '{"n_qubits": 4, "k": 0.0, "c": [1.0, 1.0, -1.0], '
                   '"positions": [0.0, 1.0, 2.0, 3.0]}')
        assert states.to_json(make_dicke(np.int64(4), 2)) == states.to_json(make_dicke(4, 2))

    @pytest.mark.parametrize("make, fields, types", [
        (lambda: WitnessSpec(np.int64(3), np.float32(0.5), 1, np.int64(0), Fraction(1, 2)),
         ("n_qubits", "k", "c_x", "c_y", "c_z"), (int, float, float, float, float)),
        (lambda: NoiseModel("collective", np.float32(0.25)), ("strength",), (float,)),
        (lambda: BlochVector(np.float32(0.5), 0, Fraction(1, 2)), ("n_x", "n_y", "n_z"),
         (float, float, float)),
        (lambda: ShotPlan(np.int64(10), np.int64(3)), ("shots_per_setting", "seed"), (int, int)),
        (lambda: StateVector(np.int64(1), [1, 0]), ("n_qubits",), (int,)),
        (lambda: DensityMatrix(np.int64(1), np.eye(2) / 2), ("n_qubits",), (int,)),
        (lambda: mix_with_white_noise(make_dicke(np.int64(2), 1), 0.5), ("n_qubits",), (int,)),
        (lambda: bisep_bound(WitnessSpec(3, 0, 1, 1, 1), np.int64(1)), ("restarts_used",), (int,)),
    ], ids=["spec", "noise-model", "bloch-vector", "shot-plan", "state-vector", "density-matrix",
            "adopted-density-matrix", "bisep-result"])
    def test_stored_fields_hold_python_numbers(self, make, fields, types):
        made = make()
        assert tuple(type(getattr(made, name)) for name in fields) == types


#: N <= 4 keeps each example fast; derandomized so reruns agree
SETTINGS = settings(max_examples=40, deadline=None, database=None, derandomize=True)


def typed_reals(least, most):
    """A real in [least, most] (float32-exact bounds) as an int, np.int64, np.float32, np.float64
    or Fraction: integral values in all five, others in the three that can hold them."""
    integral = st.integers(math.ceil(least), math.floor(most)).flatmap(
        lambda i: st.sampled_from([i, np.int64(i), np.float32(i), np.float64(i), Fraction(i)]))
    other = st.floats(least, most).flatmap(
        lambda x: st.sampled_from([np.float32(x), np.float64(x), Fraction(x)]))
    return st.one_of(integral, other, st.fractions(least, most, max_denominator=64))


@st.composite
def typed_inputs(draw):
    """n_qubits, sorted site positions, then k, c_x, c_y, c_z, p, q and theta, each in a drawn
    type."""
    n = draw(st.integers(2, 4).flatmap(lambda i: st.sampled_from([i, np.int64(i)])))
    positions = draw(st.lists(typed_reals(-6, 6), min_size=int(n), max_size=int(n),
                              unique_by=_image))
    ranges = [(-7, 7)] + [(-1, 1)] * 3 + [(0, 1)] * 2 + [(-7, 7)]
    return n, sorted(positions, key=_image), [draw(typed_reals(*r)) for r in ranges]


@SETTINGS
@given(typed_inputs(), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_every_number_type_gives_its_images_answer(inputs, seed, mixed):
    """Each result for inputs drawn in their own types equals, by float.hex, the result for their
    float or int images."""
    n, positions, numbers = inputs
    rng = np.random.default_rng(seed)
    pure = random_pure(rng, int(n))
    state = random_mixed(rng, int(n)) if mixed else pure

    def results(n, positions, numbers):
        k, c_x, c_y, c_z, p, q, theta = numbers
        layout = SiteLayout(positions)
        spec, own_pure = WitnessSpec(n, k, c_x, c_y, c_z, layout), StateVector(n, pure.amplitudes)
        return {
            "spec": spec.to_json(), "state": states.to_json(own_pure),
            "sigma": _bits(sigma_value(state, spec)),
            "weights": _bits(pair_weight_matrix(spec)),
            "scan": _bits(scan_k(state, c_x, c_y, c_z, [k, 0, theta], layout)),
            "structure": _bits([structure_factor(state, k, a, b, layout)
                                for a, b in ("xx", "yz", "zz")]),
            "identity": _bits([verify_collective_identity(state, a, k, layout) for a in "xyz"]),
            "noisy": _bits([noisy_sigma(own_pure, spec, NoiseModel(kind, strength))
                            for kind, strength in (("collective", p), ("individual", q))]),
            "white": _bits(mix_with_white_noise(own_pure, p).entries),
            "kraus": _bits(kraus_crosscheck(own_pure, spec, q)),
            "ghz": _bits([make_ghz_superposition(theta).amplitudes,
                          make_dicke_ghz_superposition(theta, -1).amplitudes]),
        }

    assert results(n, positions, numbers) == results(
        _image(n), list(map(_image, positions)), list(map(_image, numbers)))
