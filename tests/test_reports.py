"""Reference battery bookkeeping: the shared max-deviation check."""

import math

import pytest

from sfwitness.reports import ReferenceReport


def add_one(deviations, tol="1e-12", **kwargs):
    report = ReferenceReport()
    report.add_max_dev("check", deviations, tol, "detail", **kwargs)
    return report.checks[0]


def test_finite_deviations_keep_the_printed_format():
    devs = [1e-13, 3.25e-13, 0.0]
    check = add_one(iter(devs))
    assert check.passed
    assert check.value == f"max_dev={max(devs):.3e}" == "max_dev=3.250e-13"
    assert check.expected == "<=1e-12"
    assert check.detail == "detail"


def test_deviation_above_tolerance_fails():
    check = add_one([2e-3, 5e-4], tol="1e-3", fmt=".2e")
    assert not check.passed
    assert (check.value, check.expected) == ("max_dev=2.00e-03", "<=1e-3")


def test_deviation_at_tolerance_passes():
    assert add_one([1e-10], tol="1e-10").passed


@pytest.mark.parametrize("devs", [[math.nan, 0.0], [0.0, math.nan, 1e-13], [1e-13, math.nan]],
                         ids=["first", "middle", "last"])
def test_nan_deviation_fails(devs):
    check = add_one(devs)
    assert not check.passed
    assert check.value == "max_dev=nan"
