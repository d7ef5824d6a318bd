#!/usr/bin/env python3
"""Regenerate the seed-0 reference artifacts in ``bench/reference/``.

    python3 bench/make_reference.py

The committed references were made from the commit that introduced the
benchmark, before any solver change; regenerating them from later code
would let the code under test define its own reference.  Only do so when
the reference itself is shown to be wrong.
"""

from __future__ import annotations

import contextlib
import gzip
import shutil
import sys

from gate import REFERENCE_DIR
from run import WORK, worker
from workloads import WORKLOADS


def main() -> int:
    for name, workload in WORKLOADS.items():
        work = WORK / f"reference-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            out_dir = work / "out"
            argv = workload.argv(0, work / "config.json", out_dir)
            call = worker(work, "call", str(work / "config.json"), str(workload.probe_emitters), f"reference-{name}", "0", "--", *argv)
            if call["exit"] != 0:
                print(f"{name}: exit code {call['exit']}\n{call['stderr']}", file=sys.stderr)
                return 1
            folder = REFERENCE_DIR / name
            folder.mkdir(parents=True, exist_ok=True)
            for path in workload.outputs(out_dir).values():
                packed = gzip.compress(path.read_bytes(), compresslevel=9, mtime=0)
                (folder / (path.name + ".gz")).write_bytes(packed)
            print(f"{name}: wrote {folder}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    with contextlib.suppress(OSError):
        WORK.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
