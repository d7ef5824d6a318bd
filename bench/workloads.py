"""The reference workloads and the seeded inputs they are run on.

Every workload uses the reference platform (quantum dots on silver
nanowires).  The seed only shifts the detuning grid by a seeded fraction of
one grid step; point count and span stay fixed and seed 0 is the unshifted
grid.  The program under test receives the generated config file and grid
flags, never the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PLATFORM = {
    "gamma": 6.86,
    "gamma_dr": 11.03,
    "gamma_ur": 11.03,
    "spacing": 32.75,
    "lambda_qd": 655.0,
    "lambda_sp": 211.8,
    "ddi_mode": "auto",
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                  # CLI subcommand
    config: dict                  # SystemConfig fields
    grid: tuple[float, float, int]  # detuning min, max, points at seed 0
    extra: tuple[str, ...] = ()   # further CLI flags
    spacings: tuple[float, float, int] | None = None  # sweep-separation only
    n_list: tuple[int, ...] | None = None  # scale-n only
    # Emitters in the host-speed probe (worker.HostSpeed): of 2 and 30, the
    # size whose slowdowns on a shared host tracked this workload's closest.
    probe_emitters: int = 30

    @property
    def chiral(self) -> bool:
        return not (self.config.get("gamma_dl", 0.0) or self.config.get("gamma_ul", 0.0))

    @property
    def refine(self) -> bool:
        return "--refine-peaks" in self.extra

    def deltas(self, seed: int) -> np.ndarray:
        lo, hi, points = self.grid
        step = (hi - lo) / (points - 1) if points > 1 else 0.0
        shift = 0.0 if seed == 0 else random.Random(seed).random() * step
        return np.linspace(lo + shift, hi + shift, points)

    def outputs(self, out_dir: Path) -> dict[str, Path]:
        """Data artifacts by kind: "spectrum" and "peaks", "sweep" or "scale"."""
        if self.command == "spectrum":
            return {"spectrum": out_dir / "spectrum.csv", "peaks": out_dir / "spectrum.peaks.json"}
        if self.command == "scale-n":
            return {"scale": out_dir / "scale.json"}
        return {"sweep": out_dir / "sweep.csv"}

    def argv(self, seed: int, config_path: Path, out_dir: Path) -> list[str]:
        """Write the config and return the CLI arguments for one run."""
        config_path.write_text(json.dumps(self.config, indent=2))
        grid = self.deltas(seed)
        main_out = next(iter(self.outputs(out_dir).values()))
        argv = [self.command, "--config", str(config_path), "--out", str(main_out)]
        argv += ["--delta-min", repr(float(grid[0])), "--delta-max", repr(float(grid[-1]))]
        argv += ["--delta-points", str(grid.size), *self.extra]
        if self.spacings is not None:
            lo, hi, points = self.spacings
            argv += ["--l-min", repr(lo), "--l-max", repr(hi), "--l-points", str(points)]
        if self.n_list is not None:
            argv += ["--n-list", ",".join(map(str, self.n_list))]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="spectrum-refine-n30",
            command="spectrum",
            config={"n_emitters": 30, **PLATFORM},
            grid=(-300.0, 300.0, 2001),
            extra=("--refine-peaks",),
        ),
        Workload(
            name="scale-n-1-30",
            command="scale-n",
            config={"n_emitters": 30, **PLATFORM},
            grid=(-300.0, 300.0, 2001),
            n_list=(1, 2, 5, 10, 20, 30),
            probe_emitters=2,
        ),
        Workload(
            name="sweep-separation-n2",
            command="sweep-separation",
            config={"n_emitters": 2, **PLATFORM},
            grid=(-40.0, 40.0, 201),
            spacings=(5.0, 100.0, 96),
            probe_emitters=2,
        ),
        Workload(
            name="spectrum-n100-sym",
            command="spectrum",
            config={
                "n_emitters": 100,
                **PLATFORM,
                "gamma_dl": 11.03,
                "gamma_ul": 11.03,
                "delta_dependent_phases": True,
            },
            grid=(-100.0, 100.0, 251),
        ),
    )
}
