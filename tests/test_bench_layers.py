"""The benchmark's tracer finds every layer it names in the package, and
its annotation hooks read what those layers return.

``bench/tracer.py`` skips a layer that no longer resolves, and a hook that
finds no field reports nothing, so a rename in ``src/`` or a new result
type would silently zero per-layer metrics; these tests catch it first.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np

from photon_router import ddi_matrix, find_peaks, scan, solve_transport

from conftest import chiral_config

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# The 5N assembly now lives in tests/dense_oracle.py as an oracle.
MOVED_OUT = {"scattering.assemble_system"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_to_a_package_function():
    tracer = load_tracer()
    for layer in tracer.LAYERS:
        if layer in MOVED_OUT:
            continue
        module_name, attr = layer.split(".")
        module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        assert callable(getattr(module, attr, None)), layer


def test_annotation_hooks_read_real_results():
    annotate = load_tracer()._ANNOTATE
    config = chiral_config(2)
    ddi = ddi_matrix(config)
    args = (config, ddi, 3.0)
    attrs = annotate["scattering.solve_transport"](args, {}, solve_transport(*args))
    assert isinstance(attrs["residual"], float)
    assert math.isfinite(attrs["residual"])

    result = scan(config, ddi, np.linspace(-60.0, 60.0, 121))
    peaks = find_peaks(result, "Tt")
    assert len(peaks) == 2
    attrs = annotate["spectra.find_peaks"]((result, "Tt"), {}, peaks)
    assert attrs["peaks"] == 2
