#!/usr/bin/env python3
"""Compare the first ``photon_router.cli.main`` call of two source trees.

    python3 scripts/first_call.py WORKLOAD SRC_A SRC_B [--calls N] [--seed S]

Each sample runs one reference workload, with the arguments
``bench/workloads.py`` gives it, as the only ``cli.main`` call of a fresh
interpreter with one BLAS thread, importing the package from SRC_A or SRC_B;
the trees alternate, N calls each.  The child measures the call alone: its
wall time and its minor page faults (``ru_minflt``), unscaled, with no
host-speed probe running beside it.  Prints each tree's medians and the
change from SRC_A to SRC_B.

Both trees must hold no ``__pycache__``, and the children write none, so
that neither side runs from bytecode the other compiles.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS  # noqa: E402

CHILD = """
import json, resource, sys, time
import photon_router
from photon_router.cli import main
argv = json.loads(sys.argv[1])
faults, started = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
code = main(argv)
wall = time.perf_counter() - started
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
print(json.dumps({"code": code, "wall_s": wall, "minflt": faults,
                  "origin": photon_router.__file__}))
"""


def child_env(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def first_call(workload, seed: int, src: Path) -> dict:
    """One fresh interpreter's ``cli.main`` call of ``workload`` from ``src``."""
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        argv = workload.argv(seed, work / "config.json", work / "out")
        done = subprocess.run(
            [sys.executable, "-c", CHILD, json.dumps(argv)],
            env=child_env(src), capture_output=True, text=True, check=True,
        )
    sample = json.loads(done.stdout.splitlines()[-1])
    if sample["code"] != 0:
        raise SystemExit(f"{src}: exit code {sample['code']}\n{done.stderr}")
    if not Path(sample["origin"]).resolve().is_relative_to(src):
        raise SystemExit(f"{src}: imported photon_router from {sample['origin']}")
    return sample


def main(args: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("trees", nargs=2, type=Path, metavar="SRC")
    parser.add_argument("--calls", type=int, default=10, help="calls per tree (default 10)")
    parser.add_argument("--seed", type=int, default=0)
    opts = parser.parse_args(args)
    trees = [tree.resolve() for tree in opts.trees]
    for tree in trees:
        if not (tree / "photon_router").is_dir():
            parser.error(f"{tree} holds no photon_router package")
        if any(tree.rglob("__pycache__")):
            parser.error(f"{tree} holds __pycache__: remove it to compare clean trees")
    samples = [[], []]  # per tree; a tree given twice measures the noise floor
    for _ in range(opts.calls):
        for tree, kept in zip(trees, samples):
            kept.append(first_call(WORKLOADS[opts.workload], opts.seed, tree))
    medians = []
    for tree, kept in zip(trees, samples):
        wall = statistics.median(s["wall_s"] for s in kept)
        faults = statistics.median(s["minflt"] for s in kept)
        medians.append((wall, faults))
        print(f"{tree}: wall_s {wall:.4f}, minflt {faults:.0f} (median of {opts.calls})")
    (wall_a, faults_a), (wall_b, faults_b) = medians
    print(f"change: wall_s {wall_b / wall_a - 1:+.1%}, minflt {faults_b - faults_a:+.0f}")


if __name__ == "__main__":
    main()
