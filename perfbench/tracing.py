"""Spans around calls into the library's layers, installed from outside.

The library modules import each other with ``from .x import y``, so a
function is looked up under several module names. ``Tracer.install``
replaces the function object under every name that refers to it in any
loaded ``nnscontrol`` module (and ``numpy.linalg.svd`` / ``eigvals``), and
``uninstall`` puts the originals back. Spans stay in memory as tuples
(name, start, end, parent span, system index, pass) and are written out
once, at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (module, function) pairs timed in a traced run. The first part of each
# metric name is the module's short name.
LAYERS = (
    ("nnscontrol.matrixcore", "left_eigensystem"),
    ("nnscontrol.matrixcore", "pbh_rank"),
    ("nnscontrol.matrixcore", "rank"),
    ("nnscontrol.matrixcore", "null_space_basis"),
    ("numpy.linalg", "svd"),
    ("numpy.linalg", "eigvals"),
    ("nnscontrol.conelp", "feasible_nonneg_solution"),
    ("nnscontrol.conelp", "homogeneous_nonzero"),
    ("nnscontrol.oracle", "coverage_probe"),
    ("nnscontrol.oracle", "direction_uncovered"),
    ("nnscontrol.controllability", "check_nonneg_sparse"),
    ("nnscontrol.controllability", "min_sparsity"),
    ("nnscontrol.controllability", "verify_certificate"),
    ("nnscontrol.jordan", "zero_structure"),
    ("nnscontrol.jordan", "build_decomposition"),
    ("nnscontrol.jordan", "verify_decomposition"),
    ("nnscontrol.systemio", "parse_system_file"),
    ("nnscontrol.cli", "run_command"),
    ("nnscontrol.generators", "generate_system"),
)


def layer_name(module: str, function: str) -> str:
    prefix = module if module.startswith("numpy") else module.split(".")[-1]
    return f"{prefix}.{function}"


def svd_flops(a, compute_uv: bool = True, full_matrices: bool = True) -> float:
    """Floating-point operations of one SVD, from its shape alone.

    Golub & Van Loan's counts for an m x n matrix with m >= n (values
    only, thin U, or full U), times 4 for complex input. A model, not a
    measurement.
    """
    shape = getattr(a, "shape", ())
    if len(shape) < 2:
        return 0.0
    m, n = max(shape[-2:]), min(shape[-2:])
    if not compute_uv:
        flops = 4.0 * m * n * n - 4.0 * n**3 / 3.0
    elif full_matrices:
        flops = 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n**3
    else:
        flops = 14.0 * m * n * n + 8.0 * n**3
    batch = 1
    for d in shape[:-2]:
        batch *= d
    if getattr(a, "dtype", None) is not None and a.dtype.kind == "c":
        flops *= 4.0
    return batch * flops


class Tracer:
    """Collects spans and per-layer counters while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.system: int | None = None
        self.pass_label: str = "setup"
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        if self._patched:
            return
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "nnscontrol" or name.startswith("nnscontrol."))
        ]
        for module_name, function in LAYERS:
            original = getattr(importlib.import_module(module_name), function)
            wrapper = self._wrap(layer_name(module_name, function), original)
            owners = [importlib.import_module(module_name)] + modules
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patched.append((owner, attr, original))
                        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.system, self.pass_label)
            _count(counters, name, args, kwargs, result)
            return result

        return wrapper

    # -- aggregation --------------------------------------------------
    def layer_totals(self, pass_label: str) -> dict[str, tuple[int, float]]:
        """{layer: (calls, self seconds)} over the spans of one pass."""
        child_time: dict[int, float] = defaultdict(float)
        chosen = []
        for index, span in enumerate(self.spans):
            if span is None or span[5] != pass_label:
                continue
            chosen.append((index, span))
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for index, (name, start, end, _, _, _) in chosen:
            entry = totals[name]
            entry[0] += 1
            entry[1] += (end - start) - child_time[index]
        return {name: (calls, seconds) for name, (calls, seconds) in totals.items()}

    def snapshot_counters(self) -> dict[str, float]:
        values = dict(self.counters)
        self.counters.clear()
        return values

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tname\tstart_s\tend_s\tparent\tsystem\tpass\n")
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, system, pass_label = span
                system = "" if system is None else system
                out.write(
                    f"{index}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{system}\t{pass_label}\n"
                )


def _count(counters, name: str, args, kwargs, result) -> None:
    """Outcome counters for the ratios in the per-layer table."""
    if name == "numpy.linalg.svd":
        counters["svd_flops"] += svd_flops(
            args[0] if args else kwargs.get("a"),
            kwargs.get("compute_uv", args[2] if len(args) > 2 else True),
            kwargs.get("full_matrices", args[1] if len(args) > 1 else True),
        )
    elif name == "conelp.feasible_nonneg_solution":
        counters["lp_member"] += bool(result.member)
    elif name == "conelp.homogeneous_nonzero":
        counters["witness"] += result is not None
    elif name == "oracle.coverage_probe":
        counters["probe_lp"] += result.lp_count
        counters["probe_covered"] += bool(result.covered)
