"""`correlators.SiteLayout` is the one place where site positions and k become phases,
separations, weights and the k check: a guard that no other module reads a layout's
positions, and the translation invariance every use of the layout keeps. Beside it, a guard
that every checked number is the one stored and computed with (`errors` converts it)."""

import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sfwitness
from sfwitness import (SiteLayout, WitnessSpec, bisep_bound, sigma_value, structure_factor,
                       verify_collective_identity)
from conftest import random_mixed, random_pure

SETTINGS = settings(max_examples=25, deadline=None, database=None, derandomize=True)

#: (module, enclosing function or object read) of the reads allowed outside correlators:
#: the witness JSON writes the positions out, and argparse has a --positions option
EXEMPT = {("witness.py", "to_json"), ("cli.py", "args")}


class _Scoped(ast.NodeVisitor):
    """Visits a module knowing the enclosing function's name, and collects `found`."""

    def __init__(self):
        self.scope, self.found = [None], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()


class _PositionsReads(_Scoped):
    """(enclosing function, object name, line) of each `.positions` attribute in a module."""

    def visit_Attribute(self, node):
        if node.attr == "positions":
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            self.found.append((self.scope[-1], owner, node.lineno))
        self.generic_visit(node)


def test_only_correlators_reads_layout_positions():
    offenders, exempt_seen = [], set()
    for path in sorted(pathlib.Path(sfwitness.__file__).parent.glob("*.py")):
        if path.name == "correlators.py":
            continue
        reads = _PositionsReads()
        reads.visit(ast.parse(path.read_text(), filename=str(path)))
        for function, owner, line in reads.found:
            exempt = {(path.name, function), (path.name, owner)} & EXEMPT
            exempt_seen |= exempt
            if not exempt:
                offenders.append(f"{path.name}:{line} in {function}")
    assert offenders == []
    assert exempt_seen == EXEMPT  # the guard sees the reads it allows


class _BareChecks(_Scoped):
    """(enclosing function, line) of each check whose returned number is dropped: check_real
    called as a statement anywhere, check_integer or _check_shots in a __post_init__."""

    def visit_Expr(self, node):
        name = getattr(getattr(node.value, "func", None), "id", None)
        if name == "check_real" or (name in ("check_integer", "_check_shots")
                                    and self.scope[-1] == "__post_init__"):
            self.found.append((self.scope[-1], node.lineno))
        self.generic_visit(node)


def _bare_checks(source: str) -> list:
    checks = _BareChecks()
    checks.visit(ast.parse(source))
    return checks.found


def test_checked_numbers_are_the_ones_kept():
    # a check whose result is dropped leaves the caller's own type in use: each accepted type
    # (numpy float32, int64, Fraction) then runs its own arithmetic
    offenders = [f"{path.name}:{line} in {function}"
                 for path in sorted(pathlib.Path(sfwitness.__file__).parent.glob("*.py"))
                 for function, line in _bare_checks(path.read_text())]
    assert offenders == []


def test_the_bare_check_guard_sees_each_form():
    source = ("def f(x):\n    check_real(x, 'x')\n    y = check_real(x, 'x')\n"
              "    check_integer(x, 'n', 1)\n"
              "class A:\n    def __post_init__(self):\n        check_integer(self.n, 'n', 1)\n"
              "        _check_shots(self.s)\n        z = check_integer(self.n, 'n', 1)\n")
    assert _bare_checks(source) == [("f", 2), ("__post_init__", 7), ("__post_init__", 8)]


@SETTINGS
@given(st.floats(-5.0, 5.0), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_translation_leaves_sigma_and_the_structure_factor(t, seed, mixed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    state = (random_mixed if mixed else random_pure)(rng, n)
    positions = np.cumsum(rng.uniform(0.1, 2.0, n))
    layout, shifted = SiteLayout(positions.tolist()), SiteLayout((positions + t).tolist())
    k, coefficients = float(rng.uniform(-7.0, 7.0)), rng.uniform(-1.0, 1.0, 3).tolist()
    assert sigma_value(state, WitnessSpec(n, k, *coefficients, shifted)) == pytest.approx(
        sigma_value(state, WitnessSpec(n, k, *coefficients, layout)), abs=1e-12)
    for axis in "xyz":
        assert structure_factor(state, k, axis, axis, shifted) == pytest.approx(
            structure_factor(state, k, axis, axis, layout), abs=1e-12)
        for moved, fixed in zip(verify_collective_identity(state, axis, k, shifted),
                                verify_collective_identity(state, axis, k, layout)):
            assert moved == pytest.approx(fixed, abs=1e-12)


@pytest.mark.parametrize("t", [0.5, -3.25, 7.0])
def test_translation_leaves_the_biseparable_bound(t):
    # the see-saw's cut blocks read the site phases k r_j, which the shift changes
    spec = WitnessSpec(4, math.pi, 1, 1, 1)
    shifted = WitnessSpec(4, math.pi, 1, 1, 1, SiteLayout([r + t for r in range(4)]))
    assert bisep_bound(shifted).bound == pytest.approx(bisep_bound(spec).bound, abs=1e-9)
