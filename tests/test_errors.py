"""The shared input rules: `errors.check_real` beside `errors.check_integer`."""

import math
from fractions import Fraction

import numpy as np
import pytest

from sfwitness import (BlochVector, InputError, NoiseModel, SiteLayout, WitnessSpec,
                       bisep_bound, kraus_crosscheck, make_dicke,
                       make_dicke_ghz_superposition, make_ghz_superposition,
                       mix_with_white_noise, scan_k, structure_factor, two_point)
from sfwitness.errors import check_integer, check_real

DICKE_4 = make_dicke(4, 2)
SPEC_4 = WitnessSpec(4, 0.0, 1, 1, 1)


class TestCheckReal:
    @pytest.mark.parametrize("value", [0.25, -3, np.float64(0.5), np.float32(0.5),
                                       np.int64(2), Fraction(1, 3), -1.7976931348623157e308])
    def test_returns_the_value_unconverted(self, value):
        assert check_real(value, "x") is value

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
