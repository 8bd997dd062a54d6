"""Environment record written into every result file."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")
_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads")


def _size_bytes(text: str) -> int:
    text = text.strip().upper()
    scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def cache_sizes() -> dict:
    """Data and unified cache sizes of cpu0 by level, e.g. {"L2": 2097152}."""
    sizes = {}
    for index in sorted(_CACHE_DIR.glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = _size_bytes((index / "size").read_text())
        except (OSError, ValueError):
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {"name": blas.get("name"), "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
            "threads": _blas_threads()}


def environment(largest_arrays: dict) -> dict:
    """Python, numpy, BLAS, cores, CPU caches and each workload's largest array."""
    caches = cache_sizes()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "caches": caches,
        "largest_array": {
            workload: {**entry, **{f"share_of_{level}": entry["bytes"] / size
                                   for level, size in caches.items() if level in ("L2", "L3")}}
            for workload, entry in largest_arrays.items()
        },
    }
