"""The traced run: self-time arithmetic, wrapper removal, repeatable counts."""

import json
import math
import sys

import pytest

import sfwitness
import sfwitness.cli  # noqa: F401  (every layer loaded before bindings are snapshot)
import checks
import run
import spans
import workloads

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


def test_self_times_on_synthetic_tree():
    # 0: root [0, 10]          children 1, 3
    # 1:   child [1, 4]        child 2
    # 2:     grandchild [2, 3]
    # 3:   child [5, 7]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 7.0]
    parent = [-1, 0, 1, 0]
    assert spans.self_times(start, end, parent).tolist() == [5.0, 2.0, 1.0, 2.0]
    # spans 0 and 2 in layer 0, spans 1 and 3 in layer 1
    per_layer = spans.layer_self_times(start, end, parent, [0, 1, 0, 1], 3)
    assert per_layer.tolist() == [6.0, 4.0, 0.0]
    assert per_layer.sum() == pytest.approx(10.0)


def _bindings():
    """Every function or validation hook reachable from the package."""
    seen = {}
    for name, module in sys.modules.items():
        if module is not None and (name == "sfwitness" or name.startswith("sfwitness.")):
            for attr, value in vars(module).items():
                if callable(value):
                    seen[(name, attr)] = value
    for cls_name in spans.VALIDATED_CLASSES:
        cls = getattr(sfwitness.states, cls_name)
        seen[(cls_name, "__post_init__")] = cls.__dict__["__post_init__"]
    return seen


def test_wrappers_removed_after_traced_run():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with spans.Tracer(sfwitness) as tracer:
            assert sfwitness.witness.two_point is not before[("sfwitness.witness", "two_point")]
            assert sfwitness.sigma_value is not before[("sfwitness", "sigma_value")]
            sfwitness.sigma_value(sfwitness.make_dicke(4, 2),
                                  sfwitness.WitnessSpec(4, 0.0, 1, 1, -1))
            1 / 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracer.span_count > 0


def test_counts_on_a_known_call():
    state = sfwitness.make_dicke(4, 2)
    spec = sfwitness.WitnessSpec(4, 0.0, 1, 1, -1)
    with spans.Tracer(sfwitness) as tracer:
        first = sfwitness.sigma_value(state, spec)
        second = sfwitness.sigma_value(state, spec)
        sfwitness.mix_with_white_noise(state, 0.2)
    assert first == second == pytest.approx(5 / 3, abs=1e-12)
    values = tracer.layer_metrics()
    pair_calls = 2 * math.comb(4, 2) * 3
    assert values["correlators.calls"] == pair_calls
    assert values["kernels.bytes_computed"] == pair_calls * 16 * 2 ** 4
    assert values["kernels.repeat_share"] == pytest.approx(0.5)
    assert values["witness.calls"] == 2
    assert values["states.density_validations"] == 1
    assert all(values[f"{layer}.self_s"] >= 0.0 for layer in spans.LAYERS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counts_repeat_with_one_seed(workload):
    inputs = workloads.make_inputs(workload, 3)
    counts = []
    for _ in range(2):
        with spans.Tracer(sfwitness) as tracer:
            rec = workloads.run_pass(workload, sfwitness, inputs)
        assert all(c["ok"] for c in checks.CHECKS[workload](inputs, rec.values))
        values = tracer.layer_metrics()
        counts.append({name: values[name] for name in spans.EXACT_COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["kernels.calls"] > 0


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == spans.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
