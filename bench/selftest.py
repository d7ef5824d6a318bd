#!/usr/bin/env python3
"""Fast self-test of the benchmark harness on tiny grids.

    python3 bench/selftest.py

Checks that every workload of BENCHMARK.json exists, that untraced and
traced runs emit exactly the metrics BENCHMARK.json names, that the layer
self times of a traced run sum to its root span, that a corrupted artifact
and a call that does not finish are counted as failed runs, and that the
harness refuses to run without the package sources.  Exits 0 when every
check passes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import shutil
import subprocess
import sys

import run
from workloads import WORKLOADS


def _tiny(name: str, n_emitters: int | None = None, **changes):
    workload = WORKLOADS[name]
    if n_emitters is not None:
        changes["config"] = workload.config | {"n_emitters": n_emitters}
    return dataclasses.replace(workload, name=f"tiny-{name}", **changes)


# Same commands on small grids; the "tiny-" names have no committed
# reference, so the gate checks them against the oracle alone.
TINY = {
    "spectrum-refine-n30": _tiny("spectrum-refine-n30", 3, grid=(-30.0, 30.0, 61)),
    "scale-n-1-30": _tiny("scale-n-1-30", n_list=(1, 2, 3), grid=(-30.0, 30.0, 61)),
    "sweep-separation-n2": _tiny("sweep-separation-n2", spacings=(20.0, 40.0, 3), grid=(-20.0, 20.0, 21)),
    "spectrum-n100-sym": _tiny("spectrum-n100-sym", 4, grid=(-20.0, 20.0, 41)),
}

def corrupt(out_dir, workload) -> None:
    """Shift the last column of every data row of the main artifact by 1e-6."""
    path = next(iter(workload.outputs(out_dir).values()))
    lines = path.read_text().splitlines()
    for k, line in enumerate(lines[2:], start=2):
        fields = line.split(",")
        lines[k] = ",".join(fields[:-1] + [repr(float(fields[-1]) + 1e-6)])
    path.write_text("\n".join(lines) + "\n")


def tiny_run(name: str, seed: int, trace: bool, **kwargs) -> dict:
    return run.run_workload(name, seed, 0.0, trace, workloads=TINY, min_calls=1, **kwargs)


def main() -> int:
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    spec = run.load_spec()
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "BENCHMARK.json names the harness's workloads")
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]

    for name in WORKLOADS:
        for seed in (0, 3):
            record = tiny_run(name, seed, trace=False)
            summary = json.loads(run.summary_line(record))
            expect(
                list(summary) == ["correct", "attempted", "failed", "metrics"]
                and list(summary["metrics"]) == end_to_end
                and all(math.isfinite(m["value"]) and m["value"] > 0 for m in summary["metrics"].values()),
                f"{name} seed {seed}: every end-to-end metric emitted, finite and non-zero",
            )
            expect(record["correct"] and record["failed"] == 0, f"{name} seed {seed}: correct {record['problems']}")

        record = tiny_run(name, 0, trace=True)
        expect(list(record["metrics"]) == per_layer, f"{name}: traced run emits every per-layer metric")
        expect(record["correct"], f"{name}: traced run correct {record['problems']}")
        expect(
            record["metrics"]["linalg.solve.systems"]["value"] > 0 and record["metrics"]["cli.bytes_written"]["value"] > 0,
            f"{name}: solves and bytes counted",
        )
        sums = zip(record["root_s"], record["self_s_total"])
        expect(all(abs(root - total) <= 1e-9 * max(1.0, root) for root, total in sums), f"{name}: self times sum to the root span")

    record = tiny_run("spectrum-refine-n30", 0, trace=False, after_call=corrupt)
    expect(
        record["failed"] == record["attempted"] and not record["correct"] and record["metrics"]["pass_frac"]["value"] == 0.0,
        "corrupted artifact counted as a failed run",
    )

    record = tiny_run("sweep-separation-n2", 0, trace=False, call_timeout=0.05)
    expect(
        record["failed"] == record["attempted"] and "still running" in " ".join(record["problems"]),
        "a call that does not finish is counted as a failed run",
    )

    # Without src/, the harness exits non-zero and prints no result.
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__", "reference"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "sweep-separation-n2", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout, "refuses to run without the package sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use, or already gone
            run.WORK.rmdir()

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
