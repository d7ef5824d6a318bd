"""Span tracing of the package's layers, installed from outside the package.

Each public function of a layer is wrapped under every name its callers look
it up by: the defining module's attribute and every ``from ... import``
alias in another ``photon_router`` module.  ``linalg.solve`` wraps
``numpy.linalg.solve``, the dense kernel the solver calls.  A function that
no longer exists is skipped, so it reports zero calls.

Spans live in memory as ``[name, parent, start, end, attrs]`` lists (parent
is an index into the same list, or None for the root) and are written out by
the caller, with its run id, when the run ends.
"""

from __future__ import annotations

import functools
import math
import sys
import time

LAYERS = (
    "params.load_config",
    "params.validate",
    "ddi.ddi_matrix",
    "scattering.assemble_system",
    "scattering.solve_transport",
    "scattering.solve_spectrum_point_batch",
    "spectra.scan",
    "spectra.find_peaks",
    "spectra.scale_emitters",
    "spectra.sweep_separation",
    "cli.main",
)

PACKAGE = "photon_router"
SOLVE = "linalg.solve"


def _solve_attrs(args, kwargs, result) -> dict:
    a = args[0] if args else kwargs["a"]
    b = args[1] if len(args) > 1 else kwargs["b"]
    m = a.shape[-1]
    systems = math.prod(a.shape[:-2])
    return {
        "systems": systems,
        "dim": m,
        "flops": systems * 8.0 / 3.0 * m**3,
        "bytes": a.nbytes + b.nbytes + result.nbytes,
    }


def _transport_attrs(args, kwargs, result) -> dict:
    residual = getattr(result, "residual", None)
    return {} if residual is None else {"residual": float(residual)}


def _peaks_attrs(args, kwargs, result) -> dict:
    return {"peaks": len(result)}


_ANNOTATE = {
    SOLVE: _solve_attrs,
    "scattering.solve_transport": _transport_attrs,
    "spectra.find_peaks": _peaks_attrs,
}


class Tracer:
    """Collects spans from wrapped functions of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        annotate = _ANNOTATE.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else None, 0.0, 0.0, {}]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # Count a SolverError once, at the innermost layer it leaves.
                if type(exc).__name__ == "SolverError" and not getattr(exc, "_traced", False):
                    exc._traced = True
                    span[4]["solver_error"] = 1
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if annotate is not None:
                span[4].update(annotate(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer of the imported package, and its numpy kernel."""
        import numpy.linalg

        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for layer in LAYERS:
            module_name, attr = layer.split(".")
            fn = getattr(sys.modules.get(f"{PACKAGE}.{module_name}"), attr, None)
            if fn is not None:
                _rebind(fn, self.wrap(layer, fn), modules)
        _rebind(numpy.linalg.solve, self.wrap(SOLVE, numpy.linalg.solve), modules + [numpy.linalg])


def _rebind(original, replacement, modules) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def root_seconds(spans: list[list]) -> float:
    """Total duration of the root spans."""
    return sum(end - start for _, parent, start, end, _ in spans if parent is None)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and self times of one traced run.

    A span's self time is its duration minus its children's durations, so
    the self times of all spans sum to the root span.  Parents precede their
    children in ``spans``.
    """
    child_time = [0.0] * len(spans)
    in_scan = [False] * len(spans)
    for i, (_, parent, start, end, _) in enumerate(spans):
        if parent is not None:
            child_time[parent] += end - start
            in_scan[i] = in_scan[parent] or spans[parent][0] == "spectra.scan"

    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    systems = max_dim = refine = errors = peaks = 0
    flops = nbytes = residual = 0.0
    for i, (name, _, start, end, attrs) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
        errors += attrs.get("solver_error", 0)
        peaks += attrs.get("peaks", 0)
        residual = max(residual, attrs.get("residual", 0.0))
        if name == SOLVE:
            systems += attrs["systems"]
            max_dim = max(max_dim, attrs["dim"])
            flops += attrs["flops"]
            nbytes += attrs["bytes"]
            if not in_scan[i]:
                refine += attrs["systems"]

    metrics: dict[str, float] = {}
    for layer in (*LAYERS, SOLVE):
        metrics[f"{layer}.calls"] = calls.get(layer, 0)
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    metrics.update(
        {
            "scattering.solver_errors": errors,
            "scattering.residual_max": residual,
            "linalg.solve.systems": systems,
            "linalg.solve.max_dim": max_dim,
            "linalg.solve.flops_computed": flops,
            "linalg.solve.bytes_computed": nbytes,
            "spectra.peaks_found": peaks,
            "spectra.refine_solves": refine,
            "spectra.refine_solves_per_peak": refine / peaks if peaks else 0.0,
        }
    )
    return metrics


def is_exact(name: str) -> bool:
    """Whether a metric is a count that must repeat exactly between runs."""
    return not name.endswith("_s") and name != "scattering.residual_max"

