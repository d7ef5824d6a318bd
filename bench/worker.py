"""One measurement in a fresh interpreter; the harness starts one per sample.

    worker.py env RESULT
    worker.py call RESULT CONFIG PROBE_EMITTERS RUN_ID TRACE -- CLI_ARGS...

``env`` records the environment block and compiles the package before any
timed import.  ``call`` first times ``import photon_router`` through the
validated config that ``load_config`` returns (``setup_s``), then times one
``photon_router.cli.main`` call and records its exit code, CPU time and
peak resident memory.  With TRACE=1 it also records the layer spans;
without, it probes the host's speed during the call (``HostSpeed``) and
scales the times by it.  Each mode writes one JSON object to RESULT.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _check_origin(module) -> None:
    if not Path(module.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"photon_router imported from {module.__file__}, not {SRC}")


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it exposes one."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads64_", "openblas_get_num_threads")
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in names:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    import photon_router  # also compiles the package, before any timed import

    _check_origin(photon_router)

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_setting": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


# Host-speed probe.  On a shared virtual machine the same code runs up to
# twice as slow for spells of milliseconds to minutes, so raw wall times of
# one workload spread by 15-60% between calls.  During each untraced call a
# timer interrupts the program every PROBE_EVERY_S and times a fixed piece of
# work: the frozen oracle's solve (oracle.py, nothing from photon_router) of
# the workload's config at PROBE_DETUNINGS, with the workload's
# ``probe_emitters``.  A call's times, less the time spent probing, are
# multiplied by its host speed: the mean of reference time / probe time
# over its probes.  REFERENCE_PROBE_S, by probe size, is about the typical
# probe time on a 2-vCPU virtual machine on an Intel Xeon (Python 3.11.7,
# numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread); it only sets the scale.
PROBE_EVERY_S = 0.05
PROBE_DETUNINGS = (-1.0, 1.0)
REFERENCE_PROBE_S = {2: 0.4e-3, 30: 1.8e-3}


class HostSpeed:
    """Probes the host's speed from a SIGALRM handler while active."""

    def __init__(self, config_path: str, emitters: int):
        import oracle

        self._solve = oracle.intensities
        self._config = json.loads(Path(config_path).read_text()) | {"n_emitters": emitters}
        self._ddi = oracle.ddi_values(self._config)
        self._reference_s = REFERENCE_PROBE_S[emitters]
        self.probes: list[float] = []

    def _probe(self, signum=None, frame=None) -> None:
        started = time.perf_counter()
        for delta in PROBE_DETUNINGS:
            self._solve(self._config, delta, self._ddi)
        self.probes.append(time.perf_counter() - started)

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.probes:  # a call shorter than one period: probe once after it
            self._probe()

    @property
    def probe_s(self) -> float:
        return sum(self.probes)

    @property
    def speed(self) -> float:
        return sum(self._reference_s / p for p in self.probes) / len(self.probes)


def call(config_path: str, probe_emitters: int, run_id: str, trace: bool, argv: list[str]) -> dict:
    started = time.perf_counter()
    import photon_router
    from photon_router.params import load_config

    load_config(config_path)
    setup_s = time.perf_counter() - started
    _check_origin(photon_router)
    import photon_router.cli

    host = HostSpeed(config_path, probe_emitters)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    main = photon_router.cli.main
    with contextlib.nullcontext() if trace else host:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            code = main(argv)
        except Exception:
            traceback.print_exc()
            code = -1
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        probed = host.probe_s
    unscaled = {"setup_s": setup_s, "wall_s": wall - probed, "cpu_s": cpu - probed}
    speed = 1.0 if trace else host.speed
    return {
        "run_id": run_id,
        "exit": code,
        **{name: value * speed for name, value in unscaled.items()},
        "unscaled": unscaled,
        "host_speed": speed,
        "probes": len(host.probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans if tracer else None,
    }


def main(args: list[str]) -> None:
    mode, result_path = args[0], args[1]
    if mode == "env":
        result = environment()
    elif mode == "call":
        config_path, probe_emitters, run_id, trace = args[2], int(args[3]), args[4], args[5] == "1"
        if args[6] != "--":
            raise SystemExit("usage: worker.py call RESULT CONFIG PROBE_EMITTERS RUN_ID TRACE -- CLI_ARGS...")
        result = call(config_path, probe_emitters, run_id, trace, args[7:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    Path(result_path).write_text(json.dumps(result, separators=(",", ":")))


if __name__ == "__main__":
    main(sys.argv[1:])
