#!/usr/bin/env python3
"""Reference-workload benchmark of the photon-router CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the repository root.  Each sample is one ``photon_router.cli.main``
call in a fresh interpreter, run one at a time (a closed loop with one
client) until ``--seconds`` have passed, with one BLAS thread.  Every call's
artifacts pass the correctness gate (``gate.py``) outside the timed region.

``--trace 0`` reports the end-to-end metrics: the medians over the calls of
``wall_s``, ``cpu_s`` and ``setup_s``, each scaled by the host speed
measured during its call (``worker.HostSpeed``), the median
``peak_rss_mb``, and ``pass_frac``, the share of calls that exited 0 and
passed the gate.  ``--trace 1`` alternates untraced and traced calls and
reports the per-layer metrics of ``BENCHMARK.json``: medians over the
traced calls, and ``trace.overhead_s``, the fastest traced minus the
fastest untraced call, unscaled.  Every metric also records its quartiles
and sample count.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out`` also
appends the full record (environment, quartiles, samples) to a result file
that ``compare.py`` reads.  ``selftest.py`` checks the harness itself.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from gate import Gate
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# One BLAS thread: on a shared 2-core machine, spinning OpenBLAS threads that
# lose their core to another process can stretch a call many-fold.
BLAS_THREADS = 1
MIN_CALLS = 3            # timed calls per run, whatever --seconds says
CALL_TIMEOUT_S = 60       # a stuck call is killed and counted as failed, well inside the time limit


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def worker(work: Path, *args: str, timeout: float = CALL_TIMEOUT_S) -> dict:
    """Run bench/worker.py in a fresh interpreter and return its result.

    A ``call`` that hangs, or ends without writing its result, comes back
    as a failed call whose times are all the wall and CPU time this process
    saw.
    """
    result = work / "worker.json"
    result.unlink(missing_ok=True)
    before, started = resource.getrusage(resource.RUSAGE_CHILDREN), time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), args[0], str(result), *args[1:]],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
        problem, stderr = f"worker exited {proc.returncode} without a result", proc.stderr
    except subprocess.TimeoutExpired as err:
        problem, stderr = f"call still running after {timeout} s", err.stderr or ""
        stderr = stderr.decode(errors="replace") if isinstance(stderr, bytes) else stderr
    if result.exists():
        data = json.loads(result.read_text())
    elif args[0] == "call":
        after, elapsed = resource.getrusage(resource.RUSAGE_CHILDREN), time.perf_counter() - started
        data = {
            "exit": None,
            "lost": problem,
            "setup_s": elapsed,
            "wall_s": elapsed,
            "cpu_s": after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime,
            "host_speed": 1.0,
            "peak_rss_mb": after.ru_maxrss / 1024.0,
            "spans": None,
        }
        data["unscaled"] = {k: data[k] for k in ("setup_s", "wall_s", "cpu_s")}
    else:
        raise RuntimeError(f"worker {args[0]}: {problem}: {stderr.strip()[-2000:]}")
    data["stderr"] = stderr[-2000:]
    return data


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def data_bytes(paths) -> int:
    return sum(p.stat().st_size for p in paths if p.exists())


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, *, workloads=None, min_calls: int = MIN_CALLS,
    after_call=None, call_timeout: float = CALL_TIMEOUT_S,
) -> dict:
    """Measure one workload; returns the full result record.

    ``after_call(out_dir, workload)`` runs between a call and its gate check;
    the self-test uses it to corrupt artifacts, and a short ``call_timeout``
    to lose calls.
    """
    workload = (workloads or WORKLOADS)[name]
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    out_dir = work / "out"
    try:
        work.mkdir(parents=True)
        argv = workload.argv(seed, work / "config.json", out_dir)
        env = worker(work, "env")
        gate = Gate(workload, seed)
        gate.prime()

        calls: list[dict] = []
        deadline = time.perf_counter() + seconds
        while True:
            started = time.perf_counter()
            traced = trace and len(calls) % 2 == 1
            shutil.rmtree(out_dir, ignore_errors=True)
            call = worker(
                work, "call", str(work / "config.json"), str(workload.probe_emitters), f"{name}-{seed}-{len(calls)}",
                "1" if traced else "0", "--", *argv,
                timeout=call_timeout,
            )
            call["traced"] = traced
            call["bytes_written"] = data_bytes(workload.outputs(out_dir).values())
            if after_call is not None:
                after_call(out_dir, workload)
            if call["exit"] == 0:
                problems = gate.check(out_dir)
                call["problems"], call["max_abs_err"] = problems.messages, problems.max_abs_err
            else:
                reason = call.get("lost") or f"exit code {call['exit']}"
                call["problems"], call["max_abs_err"] = [f"{reason}: {call['stderr'].strip()[-300:]}"], 0.0
            calls.append(call)
            lap = time.perf_counter() - started
            enough = len(calls) >= (2 * min_calls if trace else min_calls) and len(calls) % (2 if trace else 1) == 0
            if enough and time.perf_counter() + lap > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use, or already gone
            WORK.rmdir()

    failed = sum(1 for c in calls if c["problems"])
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": env,
        "attempted": len(calls),
        "failed": failed,
        "fail_frac": failed / len(calls),
        "correct": failed == 0,
        "problems": sorted({m for c in calls for m in c["problems"]})[:20],
    }
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if not trace:
        record["host_speed"] = [c["host_speed"] for c in calls]
        samples = {name: [c[name] for c in calls] for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
        samples["pass_frac"] = [1.0 - failed / len(calls)]
        wanted = [m["name"] for m in spec["end_to_end"]]
    else:
        plain = [c for c in calls if not c["traced"]]
        traced_calls = [c for c in calls if c["traced"]]
        layers = [tracer.layer_metrics(c["spans"] or []) for c in traced_calls]
        samples = {k: [r[k] for r in layers] for k in layers[0]}
        samples["cli.bytes_written"] = [c["bytes_written"] for c in traced_calls]
        samples["trace.overhead_s"] = [
            min(c["unscaled"]["wall_s"] for c in traced_calls) - min(c["unscaled"]["wall_s"] for c in plain)
        ]
        samples["check.max_abs_err"] = [max(c["max_abs_err"] for c in calls)]
        varied = [k for k, v in samples.items() if tracer.is_exact(k) and len(set(v)) > 1]
        if varied:
            record["correct"] = False
            record["problems"].append(f"counts differ between traced runs: {varied}")
        # Self times partition the root span; the self-test checks the sums.
        record["root_s"] = [tracer.root_seconds(c["spans"] or []) for c in traced_calls]
        record["self_s_total"] = [sum(v for k, v in r.items() if k.endswith(".self_s")) for r in layers]
        wanted = [m["name"] for m in spec["per_layer"]]
    record["metrics"] = {}
    for metric in wanted:
        values = samples[metric]
        q1, median, q3 = quartiles(values)
        record["metrics"][metric] = {
            "value": median,
            "unit": units[metric],
            "q1": q1,
            "q3": q3,
            "n": len(values),
            "samples": values,
        }
    return record


def summary_line(record: dict) -> str:
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in record["metrics"].items()},
        }
    )


def report(record: dict) -> None:
    env = record["env"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['attempted']} calls, {record['failed']} failed")
    print(f"env: python {env['python']}, numpy {env['numpy']}, {env['blas']} {env['blas_version']}, "
          f"blas threads {env['blas_threads']} (setting {env['blas_threads_setting']}), nproc {env['nproc']}, {env['cpu_model']}")
    if "host_speed" in record:
        q1, median, q3 = quartiles(record["host_speed"])
        print(f"host speed per call: median {median:.4g} [q1 {q1:.4g}, q3 {q3:.4g}]; times below are scaled by it (worker.HostSpeed)")
    for problem in record["problems"]:
        print(f"FAILED: {problem}")
    for name, m in record["metrics"].items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']} (median; q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})")


def append_result(path: Path, record: dict) -> None:
    data = json.loads(path.read_text()) if path.exists() else {"runs": []}
    data["runs"].append(record)
    path.write_text(json.dumps(data, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="result file to append the full record to")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps the running worker,
    # and run_workload removes its work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "photon_router" / "cli.py").is_file():
        print(f"error: no photon_router sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.out is not None:
        append_result(args.out, record)
    report(record)
    print(summary_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
