"""Reference checks: each compares one computed value with its reference.

References come from closed forms and from dense Kronecker-product
operators built here with numpy, independently of the package's kernels.
Tolerances are those of the matching tier-1 tests. Every check is one
operation in the run's ``attempted`` count; a check outside its tolerance
is one ``failed`` operation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

import numpy as np

from workloads import EXPECTED_EXIT, EXPECTED_FAILURES, K_GRID, KRAUS_N

BISEP_BOUND_4, BISEP_BOUND_6 = 1.187, 1.158
BISEP_ATOL = 0.01
PRODUCT_CAP = 1.0 + 1e-6
CLOSED_FORM_ATOL = 1e-12
LINEARITY_ATOL = 1e-13
RECHECK_ATOL = 1e-9
J2_ATOL = 1e-10
SIGMA_FOR_ERRORS = 5.0

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _check(name, value, reference, ok, tol) -> dict:
    return {"name": name, "ok": bool(ok), "value": value, "reference": reference,
            "tol": tol}


def _close(name, value, reference, tol) -> dict:
    value, reference = float(value), float(reference)
    return _check(name, value, reference, abs(value - reference) <= tol, tol)


# --- closed forms -----------------------------------------------------------

def dicke_sigma(n: int, l: int) -> Fraction:
    """<Sigma(0)> on |N,l> with c = (1, 1, -1)."""
    return Fraction(4 * l * (n - l) - (n - 2 * l) ** 2 + n, n * (n - 1))


def phased_sigma_xy(n: int, l: int) -> Fraction:
    """<Sigma(pi)> on the half-filled phased Dicke state with c = (1, 1, 0)."""
    return Fraction(2 * l * (n - l), math.comb(n, 2))


def dicke_j2(n: int, l: int, axis: str) -> float:
    """<J_a^2> on |N,l> with J_a = (1/2) sum_i sigma_i^a."""
    j, m = n / 2.0, n / 2.0 - l
    return m * m if axis == "z" else (j * (j + 1.0) - m * m) / 2.0


# --- dense reference operator ----------------------------------------------

def dense_sigma(spec: tuple) -> np.ndarray:
    """Sigma(k) from Kronecker products, unit site spacing."""
    n, k, *coefficients = spec
    total = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for c, axis in zip(coefficients, "xyz"):
        if c == 0.0:
            continue
        for i in range(n):
            for j in range(i + 1, n):
                ops = [np.eye(2, dtype=complex)] * n
                ops[i] = ops[j] = _PAULI[axis]
                total += c * math.cos(abs(k) * (j - i)) * reduce(np.kron, ops)
    return total / math.comb(n, 2)


def _cut_state(result) -> np.ndarray:
    """Full register amplitudes of the stored best product-across-cut state."""
    cut = result.best_cut
    order = [q - 1 for q in (*cut.part_a, *cut.part_b)]
    amps = np.kron(result.best_state[0].amplitudes, result.best_state[1].amplitudes)
    return amps.reshape((2,) * len(order)).transpose(np.argsort(order)).reshape(-1)


def _bound_checks(label: str, result, operator: np.ndarray) -> list:
    psi = _cut_state(result)
    recheck = float(np.vdot(psi, operator @ psi).real)
    top = float(np.linalg.eigvalsh(operator)[-1])
    return [_close(f"{label}.recheck", result.bound, recheck, RECHECK_ATOL),
            _check(f"{label}.below_top_eigenvalue", result.bound, top,
                   result.bound <= top + RECHECK_ATOL, RECHECK_ATOL)]


# --- per workload -----------------------------------------------------------

def check_reproduce(inputs: dict, values: dict) -> list:
    """One operation per reproduce-paper check, plus the CLI exit code.

    The known-red checks are expected to fail; only a deviation from the
    expected pass/fail table counts as a failed operation.
    """
    code, report = values["reproduce-paper"]
    checks = [_check("exit_code", code, EXPECTED_EXIT, code == EXPECTED_EXIT, None)]
    for entry in report["checks"]:
        expected = entry["name"] not in EXPECTED_FAILURES
        checks.append(_check(entry["name"], entry["passed"], expected,
                             entry["passed"] == expected, None))
    return checks


def _threshold_references(family: str, n: int, sigma: float) -> tuple:
    if family == "dicke":
        return Fraction(2, n + 1), 1.0 - math.sqrt((n - 1) / (n + 1))
    if family == "phased":
        return Fraction(1, n), 1.0 - math.sqrt((n - 1) / n)
    if sigma <= 1.0:
        return 0.0, 0.0
    return 1.0 - 1.0 / sigma, 1.0 - 1.0 / math.sqrt(sigma)


def check_large_n(inputs: dict, values: dict) -> list:
    checks = []
    paper_k_index = {0.0: 0, math.pi: K_GRID[2] - 1}
    for job in inputs["jobs"]:
        family, n = job["family"], job["n"]
        tag = f"{family}{n}"
        sigma = values[f"{tag}.sigma_paper"]
        if family == "dicke":
            checks.append(_close(f"{tag}.closed_form", sigma, dicke_sigma(n, n // 2),
                                 CLOSED_FORM_ATOL))
        elif family == "phased":
            checks.append(_close(f"{tag}.closed_form", sigma, phased_sigma_xy(n, n // 2),
                                 CLOSED_FORM_ATOL))
        components = values[f"{tag}.axis_components"]
        for r, spec in enumerate(job["random_specs"]):
            linear = sum(c * a for c, a in zip(spec[2:], components))
            checks.append(_close(f"{tag}.axis_components_random{r}",
                                 values[f"{tag}.sigma_random{r}"], linear, LINEARITY_ATOL))
        point = values[f"{tag}.scan_k"][paper_k_index[job["paper_spec"][1]]]
        checks.append(_close(f"{tag}.scan_at_paper_k", point.sigma, sigma, CLOSED_FORM_ATOL))
        p_ref, q_ref = _threshold_references(family, n, sigma)
        checks.append(_close(f"{tag}.p_star", values[f"{tag}.p_star"], p_ref, CLOSED_FORM_ATOL))
        checks.append(_close(f"{tag}.q_star", values[f"{tag}.q_star"], q_ref, CLOSED_FORM_ATOL))
        exact_witness = 1.0 - sigma
        estimates = []
        if f"{tag}.estimate" in values:
            estimates.append(("estimate", values[f"{tag}.estimate"]))
        for point in values.get(f"{tag}.curve", []):
            estimates.append((f"curve{point.shots}", (point.estimate, point.std_error)))
        for label, (estimate, error) in estimates:
            tol = SIGMA_FOR_ERRORS * error
            checks.append(_check(f"{tag}.{label}", estimate, exact_witness,
                                 abs(estimate - exact_witness) <= tol, tol))
    for case in inputs["density"]:
        n, p = case["n"], case["p"]
        tag = f"mixed{n}_p{p}"
        checks.append(_close(f"{tag}.factor_law", values[f"{tag}.sigma"],
                             (1 - p) * float(dicke_sigma(n, n // 2)), CLOSED_FORM_ATOL))
        for axis in ("x", "z"):
            reference = (1 - p) * dicke_j2(n, n // 2, axis) + p * n / 4.0
            checks.append(_close(f"{tag}.J{axis}2", values[f"{tag}.J{axis}2"], reference,
                                 J2_ATOL))
    for r, _ in enumerate(inputs["kraus"]):
        observable_side, state_side = values[f"kraus{r}.sides"]
        checks.append(_close(f"kraus{r}.N{KRAUS_N}", observable_side, state_side,
                             CLOSED_FORM_ATOL))
    return checks


def check_seesaw(inputs: dict, values: dict) -> list:
    checks = []
    for label, target in (("paper4", BISEP_BOUND_4), ("paper6", BISEP_BOUND_6)):
        checks.append(_close(f"{label}.reference_bound", values[label].bound, target,
                             BISEP_ATOL))
    cases = (*inputs["bisep"], *inputs["seesaw_max"])
    operators = {case["spec"]: None for case in cases}
    for spec in operators:
        operators[spec] = dense_sigma(spec)
    for case in cases:
        checks.extend(_bound_checks(case["label"], values[case["label"]],
                                    operators[case["spec"]]))
    for case in inputs["product"]:
        value = values[case["label"]]
        checks.append(_check(f"{case['label']}.product_cap", value, PRODUCT_CAP,
                             value <= PRODUCT_CAP, None))
    for case in inputs["gme"]:
        detected = values[f"{case['label']}.gme"]
        checks.append(_check(f"{case['label']}.gme_detected", detected, True,
                             detected is True, None))
    return checks


CHECKS = {"reproduce": check_reproduce, "large-n": check_large_n, "seesaw": check_seesaw}
