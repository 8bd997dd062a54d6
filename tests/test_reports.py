"""Reference battery bookkeeping: the shared max-deviation check and the size checks."""

import hashlib
import math

import numpy as np
import pytest

import sfwitness.reports as reports
from sfwitness import InputError
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


def forbid_every_check(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a reference check ran")

    for name in dir(reports):
        if name.startswith("_check_"):
            monkeypatch.setattr(reports, name, forbidden)


@pytest.mark.parametrize("sizes, message", [
    ({"product_samples": 0}, "product_samples must be >= 1, got 0"),
    ({"shots": 100}, "shots must be >= 1000, got 100"),
    ({"shots": reports.MIN_SHOTS - 1}, "shots must be >= 1000, got 999"),
    ({"restarts": 0}, "restarts must be >= 1, got 0"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"shots": 10 ** 20},
     "shot counts must be in [1, 9223372036854775807], got 100000000000000000000"),
], ids=["product-samples", "shots-100", "shots-999", "restarts", "seed", "shots-int64"])
def test_battery_sizes_rejected_before_any_check(sizes, message, monkeypatch):
    forbid_every_check(monkeypatch)
    with pytest.raises(InputError) as exc_info:
        reports.run_reference_checks(**sizes)
    assert str(exc_info.value) == message


def test_smallest_battery_sizes_reach_the_checks(monkeypatch):
    forbid_every_check(monkeypatch)
    with pytest.raises(AssertionError, match="a reference check ran"):
        reports.run_reference_checks(restarts=1, shots=reports.MIN_SHOTS, product_samples=1)


def test_product_bound_pins_its_exact_values(monkeypatch):
    # every witness value of check 06 goes through the generic density path; a change
    # in rounding anywhere along it moves one of the 500 floats, so their digest changes
    seen = []
    evaluate = reports.witness.witness_value

    def recorded(state, spec):
        seen.append(evaluate(state, spec))
        return seen[-1]

    monkeypatch.setattr(reports.witness, "witness_value", recorded)
    report = ReferenceReport()
    reports._check_product_bound(report, 0, 500)
    assert len(seen) == 500
    assert min(seen) == 0.48498654394437246
    digest = hashlib.sha256(np.array(seen, dtype="<f8").tobytes()).hexdigest()
    assert digest == "74c86e50e5954e7b8c2dae519ea42ff6fec864f93c86eb00732bfcdd9075c99c"
    assert report.checks[0].value == "min_witness=4.850e-01"


def test_checks_carry_the_time_of_their_group(monkeypatch):
    def two_checks(report, *args):
        report.add("a", True, 1, 1)
        report.add("b", True, 2, 2)

    def one_check(report, *args):
        report.add("c", True, 3, 3)

    for name in dir(reports):
        if name.startswith("_check_"):
            monkeypatch.setattr(reports, name, one_check)
    monkeypatch.setattr(reports, "_check_product_bound", two_checks)
    checks = reports.run_reference_checks(restarts=1, shots=reports.MIN_SHOTS,
                                          product_samples=1).checks
    assert len(checks) == 12
    assert all(isinstance(c.seconds, float) and c.seconds >= 0.0 for c in checks)
    pair = [c for c in checks if c.name in ("a", "b")]
    assert pair[0].seconds == pair[1].seconds
    assert "seconds" not in checks[0].line()
