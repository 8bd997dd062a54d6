"""Reference battery bookkeeping: the shared max-deviation check, the size checks, and
check 06's stacked evaluation against one state at a time."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import sfwitness.reports as reports
from sfwitness import InputError, WitnessSpec, make_product_density, witness_value
from sfwitness.reports import ReferenceReport
import grid_reference


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


@pytest.mark.parametrize("sizes, name", [
    ({"seed": 1.5}, "seed"), ({"restarts": True}, "restarts"), ({"shots": 1e6}, "shot counts"),
    ({"product_samples": 10.0}, "product_samples"),
])
def test_non_integer_battery_sizes_rejected_before_any_check(sizes, name, monkeypatch):
    forbid_every_check(monkeypatch)
    with pytest.raises(InputError, match=f"{name} must be an integer"):
        reports.run_reference_checks(**sizes)


def test_smallest_battery_sizes_reach_the_checks(monkeypatch):
    forbid_every_check(monkeypatch)
    with pytest.raises(AssertionError, match="a reference check ran"):
        reports.run_reference_checks(restarts=1, shots=reports.MIN_SHOTS, product_samples=1)


def test_product_bound_pins_its_exact_values(monkeypatch):
    # every witness value of check 06 goes through the generic density path, in stacks; a
    # change in rounding anywhere along it moves one of the 500 floats, so their digest changes
    seen = []
    evaluate = reports._product_bound_values

    def recorded(seed, samples):
        seen.extend(evaluate(seed, samples))
        return np.array(seen)

    monkeypatch.setattr(reports, "_product_bound_values", recorded)
    report = ReferenceReport()
    reports._check_product_bound(report, 0, 500)
    assert len(seen) == 500
    assert min(seen) == 0.48498654394437246
    digest = hashlib.sha256(np.array(seen, dtype="<f8").tobytes()).hexdigest()
    assert digest == "74c86e50e5954e7b8c2dae519ea42ff6fec864f93c86eb00732bfcdd9075c99c"
    assert report.checks[0].value == "min_witness=4.850e-01"


def per_state_values(seed, samples):
    """Check 06 one state at a time: its draws in order, each density built and evaluated
    alone by the public path."""
    rng = np.random.default_rng([seed, 6])
    values = []
    for _ in range(samples):
        n = int(rng.integers(2, 7))
        blochs = []
        for _ in range(n):
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            blochs.append(v * rng.random() ** (1.0 / 3.0))
        spec = WitnessSpec(n, rng.uniform(0.0, 2.0 * math.pi), *rng.uniform(-1.0, 1.0, size=3))
        values.append(witness_value(make_product_density(blochs), spec))
    return np.array(values)


def random_stack(rng, size, n):
    vectors = rng.standard_normal((size, n, 3))
    vectors *= rng.random((size, n, 1)) / np.linalg.norm(vectors, axis=-1, keepdims=True)
    return vectors, rng.uniform(0.0, 2.0 * math.pi, size), rng.uniform(-1.0, 1.0, (size, 3))


@pytest.mark.parametrize("n", range(2, 7))
def test_stacked_evaluator_matches_the_per_state_path(n):
    vectors, ks, coefficients = random_stack(np.random.default_rng(n), 9, n)
    vectors[0, 0] /= np.linalg.norm(vectors[0, 0])  # one pure factor
    values = reports._product_witness_values(vectors, ks, coefficients)
    expected = [witness_value(make_product_density(v), WitnessSpec(n, k, *c))
                for v, k, c in zip(vectors, ks, coefficients)]
    assert values.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("stack_bytes", [None, 1 << 19, 1], ids=["default", "512KiB", "one-state"])
def test_stack_size_leaves_the_values_unchanged(stack_bytes, monkeypatch):
    expected = per_state_values(3, 201)
    if stack_bytes is not None:
        monkeypatch.setattr(reports.states, "_STACK_BYTES", stack_bytes)
    stacks, evaluate = {}, reports._product_witness_values

    def recorded(vectors, ks, coefficients):
        stacks.setdefault(vectors.shape[1], []).append(len(vectors))
        return evaluate(vectors, ks, coefficients)

    monkeypatch.setattr(reports, "_product_witness_values", recorded)
    assert reports._product_bound_values(3, 201).tobytes() == expected.tobytes()
    if stack_bytes == 1:
        assert {size for sizes in stacks.values() for size in sizes} == {1}
    else:  # some N ends on a part-filled stack
        assert any(len(set(sizes)) > 1 for sizes in stacks.values())


def test_stack_budget_leaves_the_full_check_unchanged(monkeypatch):
    # check 06 at its 10^4 samples, where every N fills stacks of other sizes at each budget
    expected = reports._product_bound_values(0, 10 ** 4).tobytes()
    for stack_bytes in (1 << 20, 1 << 16):
        monkeypatch.setattr(reports.states, "_STACK_BYTES", stack_bytes)
        assert reports._product_bound_values(0, 10 ** 4).tobytes() == expected


def test_product_bound_draws_fill_one_stack_per_size():
    # draws go straight into per-N stack buffers; the whole-run draw table took it to 5.9 MB
    reports._product_bound_values(0, 2)
    assert traced_peak(lambda: reports._product_bound_values(0, 10 ** 4)) <= 5.5 * 2 ** 20


@pytest.mark.parametrize("bad", [(0.8, 0.8, 0.0), (0.0, math.nan, 0.0), (math.inf, 0.0, 0.0),
                                 (0.0, 0.0, -1.5)],
                         ids=["longer-than-one", "nan", "inf", "out-of-range"])
def test_stack_rejects_a_vector_as_the_per_state_path_does(bad):
    vectors, ks, coefficients = random_stack(np.random.default_rng(0), 5, 3)
    vectors[3, 1] = bad
    with pytest.raises(InputError) as one:
        make_product_density(vectors[3].tolist())
    with pytest.raises(InputError) as stacked:
        reports._product_witness_values(vectors, ks, coefficients)
    assert str(stacked.value) == str(one.value)


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


# --- the grid oracles' blocked search against the full-grid search -------------------------

SEED_1315587361_SPEC = WitnessSpec(3, 5.865186155956739, -0.7805833045009107,
                                   -0.2404050674692928, -0.3049220311575933)
CUTS = reports.bisep.enumerate_bipartitions(3)


def oracle_calls():
    """{name: call} per oracle evaluation: 50 random specs, the cut oracle on one cut of each
    in turn, and the spec of check 11b under seed 1315587361 (index 50) on every cut."""
    rng = np.random.default_rng(21)
    specs = [reports._random_spec(rng, 3) for _ in range(50)]
    calls = {}
    for index, spec in enumerate(specs + [SEED_1315587361_SPEC]):
        spec2 = WitnessSpec(2, spec.k, *spec.coefficients)
        calls[f"product2-{index}"] = lambda s=spec2: reports.product_grid_max_2(s)
        calls[f"product3-{index}"] = lambda s=spec: reports.product_grid_max_3(s)
        for cut in (CUTS if spec is SEED_1315587361_SPEC else [CUTS[index % 3]]):
            calls[f"cut{cut.part_a}-{index}"] = lambda s=spec, c=cut: reports.cut_grid_max_3(s, c)
    return calls


ORACLE_CALLS = oracle_calls()


@pytest.fixture(scope="module")
def full_grid_values():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reports, "_sphere_search", grid_reference.sphere_search)
        return {name: call() for name, call in ORACLE_CALLS.items()}


@pytest.mark.parametrize("stack_bytes", [None, 1 << 16, 1], ids=["default", "64KiB", "two-rows"])
def test_blocked_oracles_equal_the_full_grid_search(stack_bytes, full_grid_values, monkeypatch):
    if stack_bytes is not None:
        monkeypatch.setattr(reports.states, "_STACK_BYTES", stack_bytes)
    got = {name: call() for name, call in ORACLE_CALLS.items()}
    assert got == full_grid_values
    assert len(got) == 155


def record_blocks(values):
    blocks = []

    def recorded(rows, *rest):
        blocks.append(len(rows))
        return values(rows, *rest)

    return blocks, recorded


@pytest.mark.parametrize("stack_bytes, points, cols, rows", [
    (1, 625, 625, [2] * 311 + [3]), (1, 5, 1, [2, 3]), (1, 4, 1, [2, 2]), (1, 2, 1, [2]),
    (1, 1, 1, [1]), (1 << 16, 2000, 1, [512] * 3 + [464]), (1 << 16, 1537, 1, [512, 512, 513]),
    (128 * 3 * 10, 21, 3, [10, 11]), (None, 1200, 1200, [27] * 44 + [12])])
def test_blocks_hold_two_rows_or_more_and_cover_the_grid(stack_bytes, points, cols, rows,
                                                        monkeypatch):
    if stack_bytes is not None:
        monkeypatch.setattr(reports.states, "_STACK_BYTES", stack_bytes)
    grids = [np.zeros((points, 3))] + ([np.zeros((cols, 3))] if cols > 1 else [])
    blocks, values = record_blocks(lambda *grids: np.zeros([len(g) for g in grids]))
    reports._grid_argmax(values, grids)
    assert blocks == rows


@pytest.mark.parametrize("stack_bytes", [1, 128 * 7 * 3, None], ids=["two-rows", "three-rows",
                                                                      "default"])
def test_first_maximum_and_nans_resolve_as_argmax_over_the_whole_grid(stack_bytes, monkeypatch):
    if stack_bytes is not None:
        monkeypatch.setattr(reports.states, "_STACK_BYTES", stack_bytes)
    rng = np.random.default_rng(5)
    for _ in range(300):
        shape = (int(rng.integers(1, 12)), int(rng.integers(1, 8)))
        table = rng.integers(0, 4, shape).astype(float)  # ties in several blocks
        table[rng.random(shape) < rng.choice([0.0, 0.05])] = math.nan
        grids = [np.arange(n, dtype=float)[:, None] * np.ones(3) for n in shape]

        def values(pts1, pts2):
            return table[pts1[:, 0].astype(int)][:, pts2[:, 0].astype(int)]

        index, value = reports._grid_argmax(values, grids)
        assert index == np.argmax(table)
        assert np.array_equal(value, np.max(table), equal_nan=True)


def test_equal_maxima_in_two_blocks_return_the_first(monkeypatch):
    monkeypatch.setattr(reports.states, "_STACK_BYTES", 1)
    table = np.array([0.0, 1.0, 0.5, 3.0, 2.0, 3.0, 3.0, 0.0])
    blocks, values = record_blocks(lambda pts: table[pts[:, 0].astype(int)])
    grid = np.arange(8.0)[:, None] * np.ones(3)
    assert reports._grid_argmax(values, [grid]) == (3, 3.0)
    assert blocks == [2, 2, 2, 2]


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", [name for name in ORACLE_CALLS if name.endswith("-50")])
def test_each_oracle_call_stays_within_two_megabytes(name):
    ORACLE_CALLS[name]()
    assert traced_peak(ORACLE_CALLS[name]) <= 2 * 2 ** 20


def test_the_biseparable_check_group_stays_within_eight_megabytes():
    # the full-grid search held four 1200 x 1200 float64 arrays at once: 44 MB
    assert traced_peak(lambda: reports._check_bisep(ReferenceReport(), 0,
                                                    reports.bisep.DEFAULT_RESTARTS)) <= 8 * 2 ** 20
