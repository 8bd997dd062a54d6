"""Span tracer for the benchmark's traced run.

The tracer wraps every public function of each sfwitness layer at every
place the function object is bound: its defining module, the modules that
import it by name (``witness.two_point``, ``reports.make_dicke``, ...) and
the package namespace. It also wraps the validating ``__post_init__`` of
``StateVector`` and ``DensityMatrix``. Nothing inside ``src/`` changes.

A wrapped call records a span (function, start, end, parent span) only when
it crosses a layer boundary, i.e. when the innermost open span belongs to
another layer. Calls inside one layer (``kernels.apply_pauli`` calling
``kernels.check_axis``) run unrecorded, because they cannot change the
layer's self time and would multiply the span count. The two validation
hooks always record, so every ``DensityMatrix`` built is counted.

Spans stay in memory in flat arrays and are written out after the run.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import weakref
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("states", "kernels", "correlators", "witness", "noise", "bisep",
          "sampling", "reports", "cli")

#: Classes whose validating ``__post_init__`` is traced as a states span.
VALIDATED_CLASSES = ("StateVector", "DensityMatrix")

#: Per-layer metrics of the traced run, in the order they are printed:
#: name -> (unit, better).
PER_LAYER = {
    "states.calls": ("count", "lower"),
    "states.self_s": ("s", "lower"),
    "states.density_validations": ("count", "lower"),
    "states.density_validate_s": ("s", "lower"),
    "kernels.calls": ("count", "lower"),
    "kernels.self_s": ("s", "lower"),
    "kernels.bytes_computed": ("bytes", "lower"),
    "kernels.repeat_share": ("fraction", "lower"),
    "correlators.calls": ("count", "lower"),
    "correlators.self_s": ("s", "lower"),
    "witness.calls": ("count", "lower"),
    "witness.self_s": ("s", "lower"),
    "witness.operator_bytes": ("bytes", "lower"),
    "noise.calls": ("count", "lower"),
    "noise.self_s": ("s", "lower"),
    "bisep.calls": ("count", "lower"),
    "bisep.self_s": ("s", "lower"),
    "bisep.restart_attempts": ("count", "lower"),
    "bisep.best_sweeps": ("count", "lower"),
    "bisep.converged_share": ("fraction", "higher"),
    "sampling.calls": ("count", "lower"),
    "sampling.self_s": ("s", "lower"),
    "sampling.shots": ("count", "lower"),
    "sampling.shots_per_s": ("1/s", "higher"),
    "reports.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "process.cpu_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

#: Counts that must repeat exactly between two traced runs with one seed.
EXACT_COUNTS = tuple(name for name in PER_LAYER if name.endswith(".calls")) + (
    "bisep.restart_attempts", "sampling.shots", "kernels.bytes_computed",
    "witness.operator_bytes")

_PAIR_KERNELS = ("kernels.pair_expectation_pure", "kernels.pair_expectation_density")


def self_times(start, end, parent) -> np.ndarray:
    """Span duration minus the time its direct child spans cover.

    Spans come from one thread, so the children of a span never overlap and
    the time they cover is the sum of their durations.
    """
    start = np.asarray(start, dtype=float)
    duration = np.asarray(end, dtype=float) - start
    parent = np.asarray(parent, dtype=np.int64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(start))
    return duration - covered


def layer_self_times(start, end, parent, span_layer, n_layers: int) -> np.ndarray:
    """Self time summed per layer index."""
    return np.bincount(np.asarray(span_layer, dtype=np.int64),
                       weights=self_times(start, end, parent), minlength=n_layers)


def _settings(spec) -> int:
    """Measurement settings of a spec: one per nonzero coefficient."""
    return sum(1 for c in spec.coefficients if c != 0.0)


class Tracer:
    """Installs span-recording wrappers on the sfwitness package.

    Use as a context manager; leaving the block restores every original
    binding, also when the traced code raised.
    """

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []      # function id -> "layer.name"
        self.fn_layer: list[int] = []   # function id -> layer index
        self._fn = array("i")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._open: list[int] = []
        self._open_layer: list[int] = []
        self._patches: list[tuple] = []
        self.counts = dict.fromkeys(
            ("pair_calls", "pair_repeats", "bytes_computed", "operator_bytes",
             "restart_attempts", "best_sweeps", "bisep_results", "converged",
             "shots"), 0)
        self._seen_pairs: set = set()
        self._digests: dict = {}

    # --- installation -------------------------------------------------------

    def _modules(self) -> list:
        prefix = self.package.__name__
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == prefix or name.startswith(prefix + "."))]

    def __enter__(self) -> "Tracer":
        layer_modules = [importlib.import_module(f"{self.package.__name__}.{layer}")
                         for layer in LAYERS]
        modules = self._modules()
        try:
            for layer_index, (layer, module) in enumerate(zip(LAYERS, layer_modules)):
                for name, obj in sorted(vars(module).items()):
                    if (name.startswith("_") or not inspect.isfunction(obj)
                            or obj.__module__ != module.__name__):
                        continue
                    wrapper = self._wrapper(f"{layer}.{name}", layer_index, obj,
                                            always=False)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is obj:
                                self._patch(mod, attr, wrapper)
                if layer == "states":
                    for cls_name in VALIDATED_CLASSES:
                        cls = getattr(module, cls_name)
                        original = cls.__dict__["__post_init__"]
                        self._patch(cls, "__post_init__", self._wrapper(
                            f"states.{cls_name}", layer_index, original, always=True))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- recording ----------------------------------------------------------

    def _wrapper(self, qualname: str, layer: int, original, always: bool):
        fid = len(self.names)
        self.names.append(qualname)
        self.fn_layer.append(layer)
        observe = _OBSERVERS.get(qualname)
        signature = inspect.signature(original) if observe else None
        open_spans, open_layers = self._open, self._open_layer
        fn, parent, starts, ends = self._fn, self._parent, self._start, self._end

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not always and open_layers and open_layers[-1] == layer:
                return original(*args, **kwargs)
            span = len(fn)
            fn.append(fid)
            parent.append(open_spans[-1] if open_spans else -1)
            ends.append(0.0)
            open_spans.append(span)
            open_layers.append(layer)
            starts.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[span] = perf_counter()
                open_spans.pop()
                open_layers.pop()
            if observe is not None:
                observe(self, signature, args, kwargs, result)
            return result

        return traced

    def _digest(self, arr: np.ndarray) -> bytes:
        """Content digest of a state array, cached while the array lives."""
        key = id(arr)
        entry = self._digests.get(key)
        if entry is not None and entry[0]() is arr:
            return entry[1]
        digest = hashlib.blake2b(np.ascontiguousarray(arr).tobytes(),
                                 digest_size=16).digest()
        digest += repr(arr.shape).encode()
        self._digests[key] = (weakref.ref(arr, lambda _, k=key: self._digests.pop(k, None)),
                              digest)
        return digest

    # --- results ------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._fn)

    def span_arrays(self) -> dict:
        return {
            "fn": np.frombuffer(self._fn, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def function_table(self) -> list[dict]:
        """Per wrapped function: spans, inclusive and self seconds."""
        spans = self.span_arrays()
        own = self_times(spans["start"], spans["end"], spans["parent"])
        n_fn = len(self.names)
        calls = np.bincount(spans["fn"], minlength=n_fn)
        inclusive = np.bincount(spans["fn"], weights=spans["end"] - spans["start"],
                                minlength=n_fn)
        own_total = np.bincount(spans["fn"], weights=own, minlength=n_fn)
        return [{"name": name, "calls": int(calls[i]), "inclusive_s": float(inclusive[i]),
                 "self_s": float(own_total[i])}
                for i, name in enumerate(self.names) if calls[i]]

    def layer_metrics(self) -> dict:
        """Per-layer values (without the process.* and trace.* diagnostics)."""
        spans = self.span_arrays()
        fn_layer = np.asarray(self.fn_layer, dtype=np.int64)
        span_layer = fn_layer[spans["fn"]]
        layer_self = layer_self_times(spans["start"], spans["end"], spans["parent"],
                                      span_layer, len(LAYERS))
        layer_calls = np.bincount(span_layer, minlength=len(LAYERS))
        by_name = {row["name"]: row for row in self.function_table()}

        def inclusive(prefix: str, names) -> float:
            return sum(by_name.get(f"{prefix}.{n}", {}).get("inclusive_s", 0.0) for n in names)

        values = {}
        for index, layer in enumerate(LAYERS):
            values[f"{layer}.calls"] = int(layer_calls[index])
            values[f"{layer}.self_s"] = float(layer_self[index])
        c = self.counts
        density = by_name.get("states.DensityMatrix", {})
        values["states.density_validations"] = int(density.get("calls", 0))
        values["states.density_validate_s"] = float(density.get("inclusive_s", 0.0))
        values["kernels.bytes_computed"] = c["bytes_computed"]
        values["kernels.repeat_share"] = (c["pair_repeats"] / c["pair_calls"]
                                          if c["pair_calls"] else 0.0)
        values["witness.operator_bytes"] = c["operator_bytes"]
        values["bisep.restart_attempts"] = c["restart_attempts"]
        values["bisep.best_sweeps"] = c["best_sweeps"]
        values["bisep.converged_share"] = (c["converged"] / c["bisep_results"]
                                           if c["bisep_results"] else 0.0)
        values["sampling.shots"] = c["shots"]
        sampling_s = inclusive("sampling", ("estimate_witness", "convergence_curve"))
        values["sampling.shots_per_s"] = c["shots"] / sampling_s if sampling_s else 0.0
        return values


# --- per-function observers: counts taken from arguments and results --------

def _bind(signature, args, kwargs) -> dict:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _observe_pair_kernel(tracer, signature, args, kwargs, result):
    arr, n_qubits, i, j, a, b = (args if len(args) == 6 and not kwargs
                                 else _bind(signature, args, kwargs).values())
    counts = tracer.counts
    counts["pair_calls"] += 1
    counts["bytes_computed"] += 16 * 2 ** n_qubits
    key = hash((tracer._digest(arr), n_qubits, i, j, a, b))
    if key in tracer._seen_pairs:
        counts["pair_repeats"] += 1
    else:
        tracer._seen_pairs.add(key)


def _observe_operator(tracer, signature, args, kwargs, result):
    tracer.counts["operator_bytes"] += 16 * 4 ** _bind(signature, args, kwargs)["spec"].n_qubits


def _observe_bisep(cuts_of):
    def observe(tracer, signature, args, kwargs, result):
        arguments = _bind(signature, args, kwargs)
        counts = tracer.counts
        counts["restart_attempts"] += cuts_of(arguments["spec"].n_qubits) * arguments["restarts"]
        if hasattr(result, "iterations"):
            counts["best_sweeps"] += result.iterations
            counts["bisep_results"] += 1
            counts["converged"] += bool(result.converged)
    return observe


def _observe_estimate(tracer, signature, args, kwargs, result):
    arguments = _bind(signature, args, kwargs)
    tracer.counts["shots"] += arguments["plan"].shots_per_setting * _settings(arguments["spec"])


def _observe_curve(tracer, signature, args, kwargs, result):
    arguments = _bind(signature, args, kwargs)
    tracer.counts["shots"] += (sum(int(s) for s in arguments["shot_grid"])
                               * _settings(arguments["spec"]))


_OBSERVERS = {
    **dict.fromkeys(_PAIR_KERNELS, _observe_pair_kernel),
    "witness.sigma_operator": _observe_operator,
    "bisep.bisep_bound": _observe_bisep(lambda n: 2 ** (n - 1) - 1),
    "bisep.seesaw_max": _observe_bisep(lambda n: 1),
    "bisep.product_bound": _observe_bisep(lambda n: 1),
    "sampling.estimate_witness": _observe_estimate,
    "sampling.convergence_curve": _observe_curve,
}
