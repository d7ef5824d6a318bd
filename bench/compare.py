#!/usr/bin/env python3
"""Compare two benchmark result files, one row per (workload, metric).

    python3 bench/compare.py BASE.json NEW.json

Result files are written by ``run.py --out`` and hold several runs (at
least two, with different seeds) of each workload; traced runs are
ignored.  The samples of a (workload, metric) row are the values its runs
reported.  Each end-to-end metric of ``BENCHMARK.json`` gets a verdict
under that metric's bound:

- worse:      the new median is worse than the base median by more than the bound;
- better:     it is better by more than the base's own spread (quartile
              distance as a share of the median), and the new run beats
              the base run in nine tenths of the pairs (runs paired in
              file order);
- unresolved: either side's spread exceeds the bound, unless every new
              sample beats (or loses to) every base sample;
- unchanged:  otherwise.

Both files must have been measured with the same BLAS thread setting.
Exits 1 if any row is worse, 2 if the files cannot be compared.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def samples(path: Path) -> tuple[dict[str, dict[str, list[float]]], set]:
    """Each run's reported value by workload and metric, and the BLAS
    thread settings seen.  A workload needs at least two runs."""
    runs = [r for r in json.loads(path.read_text())["runs"] if r["trace"] == 0]
    out: dict[str, dict[str, list[float]]] = {}
    for run in runs:
        for name, metric in run["metrics"].items():
            out.setdefault(run["workload"], {}).setdefault(name, []).append(metric["value"])
    few = sorted(w for w, metrics in out.items() if len(next(iter(metrics.values()))) < 2)
    if few:
        print(f"error: {path} has fewer than 2 untraced runs of {', '.join(few)}", file=sys.stderr)
        raise SystemExit(2)
    return out, {(r["env"]["blas_threads_setting"], r["env"]["nproc"]) for r in runs}


def spread(values: list[float]) -> float:
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def verdict(base: list[float], new: list[float], better: str, bound: float) -> tuple[str, float]:
    sign = -1.0 if better == "lower" else 1.0
    b, n = statistics.median(base), statistics.median(new)
    gain = sign * (n - b) / abs(b) if b else 0.0
    wins = all(sign * (x - y) > 0 for x in new for y in base)
    losses = all(sign * (x - y) < 0 for x in new for y in base)
    if max(spread(base), spread(new)) > bound:
        return ("better" if wins else "worse" if losses else "unresolved"), gain
    if gain < -bound:
        return "worse", gain
    # Runs pair up in file order; a gain must win nine tenths of the pairs.
    pairs_won = sum(sign * (y - x) > 0 for x, y in zip(base, new))
    if gain > spread(base) and gain > 0 and pairs_won >= 0.9 * min(len(base), len(new)):
        return "better", gain
    return "unchanged", gain


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base, base_env = samples(Path(argv[0]))
    new, new_env = samples(Path(argv[1]))
    if len(base_env | new_env) != 1:
        print(f"error: BLAS thread settings differ (threads, nproc): {sorted(base_env | new_env)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    worst = 0
    print(f"{'workload':22s} {'metric':12s} {'base median [q1, q3] n':>34s} {'new median [q1, q3] n':>34s} {'change':>8s} {'bound':>6s}  verdict")
    for workload in sorted(set(base) | set(new)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, n = base.get(workload, {}).get(name), new.get(workload, {}).get(name)
            if not b or not n:
                print(f"{workload:22s} {name:12s} {'missing on one side':>34s}")
                continue
            result, gain = verdict(b, n, metric["better"], metric["bound"])
            worst = max(worst, result == "worse")
            print(f"{workload:22s} {name:12s} {describe(b):>34s} {describe(n):>34s} {gain:+8.1%} {metric['bound']:6.0%}  {result}")
    return worst


def describe(values: list[float]) -> str:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}] {len(values)}"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
