"""One rule per decision: typed errors for structured arguments, numbers shown as numbers
in messages, one detection margin, and the bisection's stopping rule."""

import argparse
import math

import numpy as np
import pytest

import sfwitness.witness as witness
from sfwitness import (Bipartition, BisepResult, InputError, ResourceError, SiteLayout,
                       WitnessSpec, axis_components, bisep_bound, cli, collective_spin_sq,
                       collective_threshold, detects, estimate_witness, find_detection_boundary,
                       gme_detected, individual_threshold, make_dicke, make_ghz_superposition,
                       make_phased_dicke, mix_with_white_noise, noisy_sigma, pair_weight_matrix,
                       product_bound, scan_k, seesaw_max, sigma_operator, sigma_value,
                       structure_factor, to_json, two_point, verify_collective_identity)
from sfwitness.bisep import assemble_cut_state
from sfwitness.errors import check_integer, check_real

DICKE_4 = make_dicke(4, 2)
SPEC_4 = WitnessSpec(4, 0.0, 1, 1, 1)
PHASED_SPEC_4 = WitnessSpec(4, math.pi, 1, 1, 1)
GHZ_BRACKET = (lambda theta: make_ghz_superposition(theta, +1), WitnessSpec(4, 0.0, 1, -1, 1),
               1.0, 0.2)


@pytest.mark.parametrize("call", [
    lambda: noisy_sigma(DICKE_4, SPEC_4, "collective"),
    lambda: estimate_witness(DICKE_4, SPEC_4, 10),
    lambda: mix_with_white_noise("x", 0.5),
    lambda: mix_with_white_noise(mix_with_white_noise(DICKE_4, 0.5), 0.5),
    lambda: gme_detected(DICKE_4, SPEC_4, None),
    lambda: seesaw_max(SPEC_4, "cut"),
    lambda: sigma_value(DICKE_4, "spec"),
    lambda: axis_components(DICKE_4, None),
    lambda: collective_threshold(DICKE_4, None),
    lambda: two_point("state", 1, 2, "x", "x"),
    lambda: structure_factor(None, 0.0, "x", "x"),
    lambda: collective_spin_sq([1.0, 0.0], "z"),
    lambda: scan_k("state", 1, 1, 1, [0.0]),
    lambda: to_json(mix_with_white_noise(DICKE_4, 0.5)),
    lambda: assemble_cut_state(Bipartition((1,), (2,)), "a", "b"),
    lambda: WitnessSpec(3, 0.1, 1, 1, 1, (0.0, 1.0, 2.0)),
    lambda: structure_factor(DICKE_4, 0.0, "x", "x", layout=[0, 1, 2, 3]),
    lambda: structure_factor(DICKE_4, 0.0, "x", "x", layout=[]),
    lambda: scan_k(DICKE_4, 1, 1, 1, [0.0], layout="abc"),
    lambda: verify_collective_identity(DICKE_4, "x", 0.1, layout="abc"),
], ids=["noisy-sigma-str-model", "estimate-int-plan", "white-noise-str-state",
        "white-noise-density", "gme-none-bound", "seesaw-str-cut", "sigma-str-spec",
        "components-none-spec", "threshold-none-spec", "two-point-str-state",
        "structure-factor-none-state", "spin-list-state", "scan-str-state",
        "to-json-density", "assemble-str-states", "spec-tuple-layout",
        "structure-factor-list-layout", "structure-factor-empty-layout", "scan-str-layout",
        "identity-str-layout"])
def test_wrong_structured_argument_raises_input_error(call):
    with pytest.raises(InputError, match="needs a|unsupported state type"):
        call()


@pytest.mark.parametrize("call", [
    lambda: bisep_bound("x"),
    lambda: product_bound("x"),
    lambda: seesaw_max("x", Bipartition((1,), (2,))),
    lambda: sigma_operator("x"),
    lambda: pair_weight_matrix("x"),
], ids=["bisep-bound", "product-bound", "seesaw-max", "sigma-operator", "pair-weights"])
def test_spec_is_type_checked_before_it_is_read(call):
    with pytest.raises(InputError, match=r"needs a WitnessSpec, got str$"):
        call()


@pytest.mark.parametrize("call", [
    lambda: SiteLayout(None),
    lambda: SiteLayout(3),
    lambda: SiteLayout(np.array(3.0)),
    lambda: scan_k(DICKE_4, 1, 1, 1, None),
    lambda: scan_k(DICKE_4, 1, 1, 1, 0.5),
], ids=["layout-none", "layout-int", "layout-0d-array", "grid-none", "grid-float"])
def test_non_iterable_raises_input_error(call):
    with pytest.raises(InputError, match="must be iterable, got"):
        call()


def test_white_noise_names_the_state_it_needs():
    with pytest.raises(InputError, match="needs a StateVector, got DensityMatrix"):
        mix_with_white_noise(mix_with_white_noise(DICKE_4, 0.5), 0.5)


def test_numpy_scalar_reads_as_a_number():
    with pytest.raises(InputError, match=r"k must be finite and real, got nan$"):
        scan_k(DICKE_4, 1, 1, 1, np.array([np.nan]))


@pytest.mark.parametrize("call", [lambda: WitnessSpec(4, 10 ** 400, 1, 1, 1),
                                  lambda: check_integer(-(10 ** 5000), "seed", 0),
                                  lambda: check_integer(10 ** 400, "l", 0, 4)],
                         ids=["huge-k", "huge-negative-seed", "huge-label"])
def test_huge_integer_message_stays_short(call):
    with pytest.raises(InputError) as info:
        call()
    assert len(str(info.value)) < 80 and "e+" in str(info.value)


@pytest.mark.parametrize("n_qubits", [10 ** 400, 10 ** 5000], ids=["401-digits", "5001-digits"])
def test_huge_qubit_count_message_stays_short(n_qubits):
    with pytest.raises(ResourceError) as info:
        make_dicke(n_qubits, 1)
    assert len(str(info.value)) < 80 and "e+" in str(info.value)


def test_non_numbers_keep_their_repr():
    with pytest.raises(InputError, match=r"got '0\.5'$"):
        check_real("0.5", "x")


def test_detects_and_gme_detected_follow_the_detection_tol(monkeypatch):
    state = make_phased_dicke(4, 2)  # <Sigma> = 13/9, <W> = -4/9
    bound = BisepResult(bound=1.2, best_cut=Bipartition((1, 2), (3, 4)), best_state=(),
                        restarts_used=1, converged=True, iterations=1, spec=PHASED_SPEC_4)
    assert detects(state, PHASED_SPEC_4) and gme_detected(state, PHASED_SPEC_4, bound)
    monkeypatch.setattr(witness, "DETECTION_TOL", 0.3)
    assert detects(state, PHASED_SPEC_4) and not gme_detected(state, PHASED_SPEC_4, bound)
    monkeypatch.setattr(witness, "DETECTION_TOL", 0.5)
    assert not detects(state, PHASED_SPEC_4)


@pytest.mark.parametrize("tol", ["a", math.nan, -1], ids=["str", "nan", "negative"])
def test_find_detection_boundary_rejects_a_bad_tol(tol):
    with pytest.raises(InputError, match="tol must be"):
        find_detection_boundary(*GHZ_BRACKET, tol=tol)


def test_find_detection_boundary_stops_at_tol_zero():
    # below the float spacing at the boundary (1.1e-16), both shrink to adjacent floats
    boundary = find_detection_boundary(*GHZ_BRACKET, tol=0)
    assert boundary == find_detection_boundary(*GHZ_BRACKET, tol=1e-16)
    assert abs(boundary - math.pi / 4) < 1e-8


def test_every_command_carries_its_runner():
    commands = next(action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert len(commands.choices) == 6
    for name, parser in commands.choices.items():
        assert callable(parser.get_default("runner")), name


def test_thresholds_follow_detects_at_the_boundary():
    factory, spec = GHZ_BRACKET[:2]
    boundary = find_detection_boundary(*GHZ_BRACKET, tol=0)
    below, above = factory(boundary - 2e-10), factory(boundary + 2e-10)
    assert 1.0 < sigma_value(below, spec) < 1.0 + witness.DETECTION_TOL
    assert not detects(below, spec)
    assert collective_threshold(below, spec) == individual_threshold(below, spec) == 0.0
    assert detects(above, spec)
    assert collective_threshold(above, spec) > 0.0 and individual_threshold(above, spec) > 0.0
