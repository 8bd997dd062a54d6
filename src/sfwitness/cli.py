"""Command-line interface.

Commands: eval, scan, robustness, bisep-bound, sample, reproduce-paper.
Angles accept multiples of pi as tokens ("pi", "pi/4", "3pi/2"). All
numbers are produced by library calls; the CLI only parses and formats.

Exit codes: 0 ok, 2 input error, 3 resource error, 4 unsupported case,
5 reference-check failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import bisep, noise, reports, sampling, states, witness
from .correlators import SiteLayout, two_point
from .errors import InputError, ResourceError, UnsupportedCaseError

SEED_ENV_VAR = "SFWITNESS_SEED"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_UNSUPPORTED = 4
EXIT_CHECK_FAILURE = 5

BUILTIN_STATES = ("dicke", "phased-dicke", "ghz-superposition",
                  "dicke-ghz-superposition", "basis", "product")

_PI_TOKEN = re.compile(r"^([+-]?\d*\.?\d*)\s*pi\s*(?:/\s*(\d+\.?\d*))?$")


@dataclass
class RunConfig:
    """Everything one CLI invocation needs."""

    command: str
    state_source: str | None = None
    state: states.StateVector | states.DensityMatrix | None = None
    spec: witness.WitnessSpec | None = None
    output_path: str | None = None
    format: str = "text"
    seed: int = 0
    k_grid: list = field(default_factory=list)
    shot_grid: list = field(default_factory=list)
    restarts: int = bisep.DEFAULT_RESTARTS
    tol: float = bisep.DEFAULT_TOL
    shots: int = 10 ** 6
    product_samples: int = 10 ** 4
    correlators: bool = False


def parse_angle(token: str) -> float:
    """Parse a float or a pi multiple such as 'pi', '-pi/2', '3pi/4'."""
    token = token.strip().lower()
    match = _PI_TOKEN.match(token)
    if match:
        coef_text = match.group(1)
        coef = {"": 1.0, "+": 1.0, "-": -1.0}.get(coef_text)
        if coef is None:
            coef = float(coef_text)
        denom = float(match.group(2)) if match.group(2) else 1.0
        return coef * math.pi / denom
    try:
        return float(token)
    except ValueError:
        raise InputError(f"cannot parse angle {token!r}") from None


def _parse_sign(token: str):
    if token in ("+", "+1"):
        return +1
    if token in ("-", "-1"):
        return -1
    raise InputError(f"sign must be '+' or '-', got {token!r}")


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
        with open(source, encoding="utf-8") as handle:
            return states.from_json(handle.read())
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
        return states.make_ghz_superposition(parse_angle(theta), _parse_sign(sign))
    if name == "dicke-ghz-superposition":
        theta, sign = args.split(",")
        return states.make_dicke_ghz_superposition(parse_angle(theta), _parse_sign(sign))
    if name == "basis":
        return states.make_basis_state(len(args), args)
    # product: semicolon-separated Bloch triples, e.g. 0,0,1;1,0,0
    blochs = [states.BlochVector(*(float(x) for x in chunk.split(",")))
              for chunk in args.split(";")]
    return states.make_product_density(blochs)


def _parse_coefficients(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise InputError(f"--c expects cx,cy,cz, got {text!r}")
    return tuple(float(p) for p in parts)


def _parse_k_grid(text: str) -> list:
    if ":" in text:
        start, stop, num = text.split(":")
        return list(np.linspace(parse_angle(start), parse_angle(stop), int(num)))
    return [parse_angle(tok) for tok in text.split(",")]


def _default_seed() -> int:
    return int(os.environ.get(SEED_ENV_VAR, "0"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfwitness",
        description="Structure-factor entanglement witnesses for N-qubit states.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, state=True, spec=True, formats=("text", "json", "csv")):
        if state:
            p.add_argument("--state", required=True,
                           help="builtin (e.g. dicke:4,2) or path to a state JSON file")
        if spec:
            p.add_argument("--k", default="0", help="wave vector; accepts pi tokens")
            p.add_argument("--c", default="1,1,1", help="coefficients cx,cy,cz")
            p.add_argument("--positions", default=None,
                           help="comma-separated site positions (default 0,1,...)")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", default=None, help="write the artifact to a file")
        p.add_argument("--seed", type=int, default=None)

    p_eval = sub.add_parser("eval", help="sigma and witness values for one state")
    add_common(p_eval)
    p_eval.add_argument("--correlators", action="store_true",
                        help="emit the two-point correlator table instead")

    p_scan = sub.add_parser("scan", help="sigma/witness over a k grid")
    add_common(p_scan)
    p_scan.add_argument("--k-grid", required=True,
                        help="comma list of angles, or start:stop:count")

    p_rob = sub.add_parser("robustness", help="depolarizing thresholds p*, q*")
    add_common(p_rob)

    p_bisep = sub.add_parser("bisep-bound",
                             help="see-saw bound on <Sigma> over biseparable states")
    add_common(p_bisep, state=False, formats=("text", "json"))
    p_bisep.add_argument("--n-qubits", type=int, required=True)
    p_bisep.add_argument("--restarts", type=int, default=bisep.DEFAULT_RESTARTS)
    p_bisep.add_argument("--tol", type=float, default=bisep.DEFAULT_TOL)

    p_sample = sub.add_parser("sample", help="finite-shot witness estimates")
    add_common(p_sample)
    p_sample.add_argument("--shot-grid", default="100,1000,10000",
                          help="comma list of shot counts")

    p_repro = sub.add_parser("reproduce-paper",
                             help="re-derive all reference values and flag each")
    add_common(p_repro, state=False, spec=False, formats=("text", "json"))
    p_repro.add_argument("--restarts", type=int, default=bisep.DEFAULT_RESTARTS)
    p_repro.add_argument("--shots", type=int, default=10 ** 6)
    p_repro.add_argument("--product-samples", type=int, default=10 ** 4)
    return parser


def parse_args(argv=None) -> RunConfig:
    ns = build_parser().parse_args(argv)
    try:
        return _config_from(ns)
    except InputError:
        raise
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad argument value: {exc}") from exc


def _config_from(ns: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=ns.command,
                       state_source=getattr(ns, "state", None),
                       output_path=ns.output, format=ns.format,
                       seed=ns.seed if ns.seed is not None else _default_seed())
    if config.state_source:
        config.state = parse_state(config.state_source)
    if hasattr(ns, "k"):
        n = config.state.n_qubits if config.state is not None else ns.n_qubits
        layout = (SiteLayout(tuple(float(x) for x in ns.positions.split(",")))
                  if ns.positions else None)
        config.spec = witness.WitnessSpec(n, parse_angle(ns.k),
                                          *_parse_coefficients(ns.c), layout)
    if hasattr(ns, "k_grid"):
        config.k_grid = _parse_k_grid(ns.k_grid)
    if hasattr(ns, "shot_grid"):
        config.shot_grid = [int(s) for s in ns.shot_grid.split(",")]
    for name in ("restarts", "tol", "shots", "product_samples", "correlators"):
        if hasattr(ns, name):
            setattr(config, name, getattr(ns, name))
    return config


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _nice_fraction(x: float) -> str:
    # annotate with a small exact fraction when one matches to 1e-12
    frac = Fraction(x).limit_denominator(1000)
    if abs(float(frac) - x) < 1e-12 and frac.denominator > 1:
        return f"{frac.numerator}/{frac.denominator} ({_fmt(x)})"
    return _fmt(x)


def _write(config: RunConfig, text: str) -> None:
    if config.output_path:
        try:
            with open(config.output_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError(f"cannot write --output: {exc}") from exc
    else:
        sys.stdout.write(text)


def _csv_text(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _run_eval(config: RunConfig) -> int:
    state = config.state
    if config.correlators:
        rows = [(i, j, a, b, _fmt(two_point(state, i, j, a, b)))
                for i in range(1, state.n_qubits + 1)
                for j in range(i + 1, state.n_qubits + 1)
                for a in ("x", "y", "z") for b in ("x", "y", "z")]
        _write(config, _csv_text(("i", "j", "alpha", "beta", "value"), rows))
        return EXIT_OK
    sigma = witness.sigma_value(state, config.spec)
    wit = witness.witness_value(state, config.spec)
    detected = witness.detects(state, config.spec)
    if config.format == "json":
        _write(config, json.dumps({"sigma": sigma, "witness": wit,
                                   "detected": detected}) + "\n")
    elif config.format == "csv":
        _write(config, _csv_text(("sigma", "witness", "detected"),
                                 [(_fmt(sigma), _fmt(wit), detected)]))
    else:
        _write(config, (f"sigma   = {_nice_fraction(sigma)}\n"
                        f"witness = {_nice_fraction(wit)}\n"
                        f"entanglement detected: {'yes' if detected else 'no'}\n"))
    return EXIT_OK


def _write_points(config: RunConfig, points: list) -> int:
    """Write a nonempty list of named tuples as JSON records or CSV rows."""
    if config.format == "json":
        _write(config, json.dumps([p._asdict() for p in points]) + "\n")
    else:
        _write(config, _csv_text(points[0]._fields,
                                 [[_fmt(v) for v in p] for p in points]))
    return EXIT_OK


def _run_scan(config: RunConfig) -> int:
    spec = config.spec
    return _write_points(config, witness.scan_k(config.state, spec.c_x, spec.c_y,
                                                spec.c_z, config.k_grid, spec.layout))


def _run_robustness(config: RunConfig) -> int:
    p_star = noise.collective_threshold(config.state, config.spec)
    q_star = noise.individual_threshold(config.state, config.spec)
    spec_text = config.spec.to_json()
    if config.format == "json":
        _write(config, json.dumps({"state_id": config.state_source,
                                   "spec": json.loads(spec_text),
                                   "p_star": p_star, "q_star": q_star}) + "\n")
    elif config.format == "csv":
        _write(config, _csv_text(("state_id", "spec", "p_star", "q_star"),
                                 [(config.state_source, spec_text,
                                   _fmt(p_star), _fmt(q_star))]))
    else:
        _write(config, (f"p* (collective) = {_nice_fraction(p_star)}\n"
                        f"q* (individual) = {_nice_fraction(q_star)}\n"))
    return EXIT_OK


def _run_bisep(config: RunConfig) -> int:
    result = bisep.bisep_bound(config.spec, restarts=config.restarts,
                               tol=config.tol, seed=config.seed)
    payload = {
        "bound": result.bound,
        "best_cut": {"part_a": list(result.best_cut.part_a),
                     "part_b": list(result.best_cut.part_b)},
        "best_state": [json.loads(states.to_json(s)) for s in result.best_state],
        "restarts_used": result.restarts_used,
        "converged": result.converged,
        "iterations": result.iterations,
        "spec": json.loads(config.spec.to_json()),
    }
    if config.format == "text":
        cut = result.best_cut
        _write(config, (f"biseparable bound = {_fmt(result.bound)}\n"
                        f"best cut: {set(cut.part_a)} | {set(cut.part_b)}\n"
                        f"converged: {result.converged} "
                        f"after {result.iterations} sweeps\n"))
    else:
        _write(config, json.dumps(payload) + "\n")
    return EXIT_OK


def _run_sample(config: RunConfig) -> int:
    if not isinstance(config.state, states.StateVector):
        raise InputError("sampling simulates projective readout of pure states")
    return _write_points(config, sampling.convergence_curve(
        config.state, config.spec, config.shot_grid, config.seed))


def _run_reproduce(config: RunConfig) -> int:
    report = reports.run_reference_checks(seed=config.seed,
                                          restarts=config.restarts,
                                          shots=config.shots,
                                          product_samples=config.product_samples)
    if config.format == "json":
        _write(config, json.dumps(report.as_dict()) + "\n")
    else:
        lines = [check.line() for check in report.checks]
        passed = sum(c.passed for c in report.checks)
        lines.append(f"{passed}/{len(report.checks)} checks passed")
        _write(config, "\n".join(lines) + "\n")
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILURE


_RUNNERS = {
    "eval": _run_eval,
    "scan": _run_scan,
    "robustness": _run_robustness,
    "bisep-bound": _run_bisep,
    "sample": _run_sample,
    "reproduce-paper": _run_reproduce,
}


def exit_code_for(exc: Exception) -> int:
    if isinstance(exc, InputError):
        return EXIT_INPUT
    if isinstance(exc, ResourceError):
        return EXIT_RESOURCE
    if isinstance(exc, UnsupportedCaseError):
        return EXIT_UNSUPPORTED
    raise exc


def run(config: RunConfig) -> int:
    """Execute one parsed invocation; returns the exit code."""
    try:
        return _RUNNERS[config.command](config)
    except (InputError, ResourceError, UnsupportedCaseError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exit_code_for(exc)


def main(argv=None) -> None:
    try:
        config = parse_args(argv)
    except (InputError, ResourceError, UnsupportedCaseError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.exit(exit_code_for(exc))
    sys.exit(run(config))


if __name__ == "__main__":
    main()
