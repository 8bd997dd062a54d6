"""Command-line interface.

Commands: eval, scan, robustness, bisep-bound, sample, reproduce-paper.
Angles accept multiples of pi as tokens ("pi", "pi/4", "3pi/2"). All
numbers are produced by library calls; the CLI only parses and formats.

Exit codes: 0 ok, 2 input error, 3 resource error, 4 unsupported case,
5 reference-check failure. ArithmeticError, a broken invariant, is unmapped.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from collections import namedtuple
from fractions import Fraction

import numpy as np

from . import bisep, noise, reports, sampling, states, witness
from .correlators import SiteLayout, two_point
from .errors import InputError, ResourceError, UnsupportedCaseError
from .kernels import AXES

SEED_ENV_VAR = "SFWITNESS_SEED"

# each point is an output row: 10^5 points cost `scan --output` ~1-2 s and 55-65 MB peak RSS
# at N = 4 and N = 16 alike (2-core VM), as scan_k sums in byte-capped k stacks and `_emit`
# writes each row as it formats it
K_GRID_MAX_POINTS = 10 ** 5

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_UNSUPPORTED = 4
EXIT_CHECK_FAILURE = 5

EXIT_CODES = {InputError: EXIT_INPUT, ResourceError: EXIT_RESOURCE,
              UnsupportedCaseError: EXIT_UNSUPPORTED}

BUILTIN_STATES = ("dicke", "phased-dicke", "ghz-superposition",
                  "dicke-ghz-superposition", "basis", "product")

_Correlator = namedtuple("Correlator", "i j alpha beta value")

_PI_TOKEN = re.compile(r"^([+-]?\d*\.?\d*)\s*pi\s*(?:/\s*(\d+\.?\d*))?$")


def parse_angle(token: str) -> float:
    """Parse a float or a pi multiple such as 'pi', '-pi/2', '3pi/4'."""
    token = token.strip().lower()
    match = _PI_TOKEN.match(token)
    try:
        if not match:
            return float(token)
        coef = {"": 1.0, "+": 1.0, "-": -1.0}.get(match.group(1))
        if coef is None:
            coef = float(match.group(1))
        denom = float(match.group(2)) if match.group(2) else 1.0
        return coef * math.pi / denom
    except (ValueError, ZeroDivisionError):  # '.pi', 'pi/0'
        raise InputError(f"cannot parse angle {token!r}") from None


def parse_state(source: str):
    """Build a state from 'name:args' or load one from a JSON file.

    Returns a StateVector, or a DensityMatrix for 'product:...' sources.
    """
    name, _, args = source.partition(":")
    if name in BUILTIN_STATES:
        try:
            return _build_state(name, args)
        except InputError:
            raise
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad arguments for state {source!r}: {exc}") from exc
    if os.path.exists(source):
        try:
            with open(source, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise InputError(f"cannot read state file {source!r}: {exc}") from exc
        return states.from_json(text)
    raise InputError(
        f"unknown state {source!r}: expected one of {BUILTIN_STATES} or a file path")


def _build_state(name: str, args: str):
    if name == "dicke":
        n, l = (int(a) for a in args.split(","))
        return states.make_dicke(n, l)
    if name == "phased-dicke":
        n, l = (int(a) for a in args.split(","))
        return states.make_phased_dicke(n, l)
    if name == "ghz-superposition":
        theta, sign = args.split(",")
        return states.make_ghz_superposition(parse_angle(theta), sign)
    if name == "dicke-ghz-superposition":
        theta, sign = args.split(",")
        return states.make_dicke_ghz_superposition(parse_angle(theta), sign)
    if name == "basis":
        return states.make_basis_state(len(args), args)
    # product: semicolon-separated Bloch triples, e.g. 0,0,1;1,0,0
    return states.make_product_density([[float(x) for x in chunk.split(",")]
                                        for chunk in args.split(";")])


def _parse_coefficients(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise InputError(f"--c expects cx,cy,cz, got {text!r}")
    return tuple(float(p) for p in parts)


def _parse_k_grid(text: str) -> list:
    if ":" in text:
        start, stop, num = text.split(":")
        start, stop, count = parse_angle(start), parse_angle(stop), int(num)
        if count > K_GRID_MAX_POINTS:
            raise ResourceError(f"--k-grid asks for {count} points; "
                                f"the cap is {K_GRID_MAX_POINTS}")
        with np.errstate(over="ignore", invalid="ignore"):  # scan_k rejects non-finite points
            return np.linspace(start, stop, count).tolist()
    return [parse_angle(tok) for tok in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfwitness",
        description="Structure-factor entanglement witnesses for N-qubit states.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, runner, summary, state=True, spec=True, formats=("text", "json", "csv")):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(runner=runner)
        if state:
            p.add_argument("--state", dest="state_source", metavar="STATE", required=True,
                           help="builtin (e.g. dicke:4,2) or path to a state JSON file")
        if spec:
            p.add_argument("--k", default="0", help="wave vector; accepts pi tokens")
            p.add_argument("--c", default="1,1,1", help="coefficients cx,cy,cz")
            p.add_argument("--positions", default=None,
                           help="comma-separated site positions (default 0,1,...)")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", default=None, help="write the artifact to a file")
        p.add_argument("--seed", type=int, default=None)
        return p

    p_eval = add_command("eval", _run_eval, "sigma and witness values for one state")
    p_eval.add_argument("--correlators", action="store_true",
                        help="emit the two-point correlator table instead")

    p_scan = add_command("scan", _run_scan, "sigma/witness over a k grid")
    p_scan.add_argument("--k-grid", required=True,
                        help="comma list of angles, or start:stop:count")

    add_command("robustness", _run_robustness, "depolarizing thresholds p*, q*")

    p_bisep = add_command("bisep-bound", _run_bisep,
                          "see-saw bound on <Sigma> over biseparable states",
                          state=False, formats=("text", "json"))
    p_bisep.add_argument("--n-qubits", type=int, required=True)
    p_bisep.add_argument("--restarts", type=int, default=bisep.DEFAULT_RESTARTS)
    p_bisep.add_argument("--tol", type=float, default=bisep.DEFAULT_TOL)

    p_sample = add_command("sample", _run_sample, "finite-shot witness estimates")
    p_sample.add_argument("--shot-grid", default="100,1000,10000",
                          help="comma list of shot counts")

    p_repro = add_command("reproduce-paper", _run_reproduce,
                          "re-derive all reference values and flag each",
                          state=False, spec=False, formats=("text", "json"))
    p_repro.add_argument("--restarts", type=int, default=bisep.DEFAULT_RESTARTS)
    p_repro.add_argument("--shots", type=int, default=10 ** 6)
    p_repro.add_argument("--product-samples", type=int, default=10 ** 4)
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """argparse's namespace, with `state`, `spec`, `k_grid` and `shot_grid`
    built once where the command has them and `seed` from $SFWITNESS_SEED."""
    args = build_parser().parse_args(argv)
    try:
        if args.seed is None:
            args.seed = int(os.environ.get(SEED_ENV_VAR, "0"))
        source = getattr(args, "state_source", None)
        args.state = parse_state(source) if source is not None else None
        if hasattr(args, "k"):
            n = args.state.n_qubits if args.state is not None else args.n_qubits
            layout = (SiteLayout(tuple(float(x) for x in args.positions.split(",")))
                      if args.positions else None)
            args.spec = witness.WitnessSpec(n, parse_angle(args.k),
                                            *_parse_coefficients(args.c), layout)
        if hasattr(args, "k_grid"):
            args.k_grid = _parse_k_grid(args.k_grid)
        if hasattr(args, "shot_grid"):
            args.shot_grid = [int(s) for s in args.shot_grid.split(",")]
    except InputError:
        raise
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad argument value: {exc}") from exc
    return args


def RunConfig(command: str) -> argparse.Namespace:
    """`command` at its defaults; `bench/workloads.py` reads reproduce-paper's."""
    return parse_args([command])


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _nice_fraction(x: float) -> str:
    # annotate with a small exact fraction when one matches to 1e-12
    frac = Fraction(x).limit_denominator(1000)
    if abs(float(frac) - x) < 1e-12 and frac.denominator > 1:
        return f"{frac.numerator}/{frac.denominator} ({_fmt(x)})"
    return _fmt(x)


def _cell(value) -> str:
    """One CSV cell: numbers at full precision, a nested dict as JSON."""
    if isinstance(value, (bool, str)):
        return str(value)
    if isinstance(value, dict):
        return json.dumps(value)
    return _fmt(value)


def _emit(args: argparse.Namespace, record, text: str | None = None) -> int:
    """Write one record as JSON, as CSV, or as its text rendering, to stdout or `--output`.

    `record` is a dict (one CSV row) or a nonempty list of named tuples (one
    row each). Where a command has no `text` rendering, text is the CSV table.
    Rows are written as they are formatted, so no whole-table text is held.
    """
    if not args.output:
        _write(sys.stdout, args.format, record, text)
        return EXIT_OK
    try:
        with open(args.output, "w", encoding="utf-8") as handle:
            _write(handle, args.format, record, text)
    except OSError as exc:
        raise InputError(f"cannot write --output: {exc}") from exc
    return EXIT_OK


def _write(handle, output_format: str, record, text: str | None) -> None:
    rows = [record] if isinstance(record, dict) else (r._asdict() for r in record)
    if output_format == "json" and isinstance(record, dict):
        handle.write(json.dumps(record) + "\n")
    elif output_format == "json":  # json.dumps of the list of rows, a row at a time
        handle.write("[")
        for index, row in enumerate(rows):
            handle.write((", " if index else "") + json.dumps(row))
        handle.write("]\n")
    elif output_format == "csv" or text is None:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(record if isinstance(record, dict) else record[0]._fields)
        writer.writerows([_cell(v) for v in row.values()] for row in rows)
    else:
        handle.write(text)


def _run_eval(args: argparse.Namespace) -> int:
    state = args.state
    if args.correlators:
        n = state.n_qubits
        return _emit(args, [_Correlator(i, j, a, b, two_point(state, i, j, a, b))
                            for i in range(1, n + 1) for j in range(i + 1, n + 1)
                            for a in AXES for b in AXES])
    sigma = witness.sigma_value(state, args.spec)
    wit, detected = 1.0 - sigma, witness._detected(sigma)  # witness_value and detects on sigma
    return _emit(args, {"sigma": sigma, "witness": wit, "detected": detected},
                 f"sigma   = {_nice_fraction(sigma)}\n"
                 f"witness = {_nice_fraction(wit)}\n"
                 f"entanglement detected: {'yes' if detected else 'no'}\n")


def _run_scan(args: argparse.Namespace) -> int:
    return _emit(args, witness.scan_k(args.state, *args.spec.coefficients, args.k_grid,
                                      args.spec.layout))


def _run_robustness(args: argparse.Namespace) -> int:
    p_star = noise.collective_threshold(args.state, args.spec)
    q_star = noise.individual_threshold(args.state, args.spec)
    return _emit(args, {"state_id": args.state_source,
                        "spec": json.loads(args.spec.to_json()),
                        "p_star": p_star, "q_star": q_star},
                 f"p* (collective) = {_nice_fraction(p_star)}\n"
                 f"q* (individual) = {_nice_fraction(q_star)}\n")


def _run_bisep(args: argparse.Namespace) -> int:
    result = bisep.bisep_bound(args.spec, restarts=args.restarts,
                               tol=args.tol, seed=args.seed)
    cut = result.best_cut
    return _emit(args, {
        "bound": result.bound,
        "best_cut": {"part_a": list(cut.part_a), "part_b": list(cut.part_b)},
        "best_state": [json.loads(states.to_json(s)) for s in result.best_state],
        "restarts_used": result.restarts_used,
        "converged": result.converged,
        "iterations": result.iterations,
        "orbit_size": result.orbit_size,
        "spec": json.loads(args.spec.to_json()),
    }, (f"biseparable bound = {_fmt(result.bound)}\n"
        f"best cut: {set(cut.part_a)} | {set(cut.part_b)}\n"
        f"converged: {result.converged} after {result.iterations} sweeps\n"))


def _run_sample(args: argparse.Namespace) -> int:
    if not isinstance(args.state, states.StateVector):
        raise InputError("sampling simulates projective readout of pure states")
    return _emit(args, sampling.convergence_curve(
        args.state, args.spec, args.shot_grid, args.seed))


def _run_reproduce(args: argparse.Namespace) -> int:
    report = reports.run_reference_checks(seed=args.seed,
                                          restarts=args.restarts,
                                          shots=args.shots,
                                          product_samples=args.product_samples)
    passed = sum(c.passed for c in report.checks)
    _emit(args, report.as_dict(),
          "".join(check.line() + "\n" for check in report.checks)
          + f"{passed}/{len(report.checks)} checks passed\n")
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILURE


def exit_code_for(exc: Exception) -> int:
    for error, code in EXIT_CODES.items():
        if isinstance(exc, error):
            return code
    raise exc


def run(args: argparse.Namespace) -> int:
    """Execute one parsed invocation; returns the exit code."""
    try:
        return args.runner(args)
    except tuple(EXIT_CODES) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exit_code_for(exc)


def main(argv=None) -> None:
    try:
        args = parse_args(argv)
    except tuple(EXIT_CODES) as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.exit(exit_code_for(exc))
    sys.exit(run(args))


if __name__ == "__main__":
    main()
