"""The benchmark's tracer finds every layer it names in the package.

``bench/tracer.py`` skips a layer that no longer resolves, so a rename in
``src/`` would silently zero that layer's per-layer metrics; this test
catches it first.
"""

import importlib
import importlib.util
from pathlib import Path

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
