#!/usr/bin/env python3
"""Reproduce the paper's experiments through the photon-router CLI.

    python3 scripts/reproduce.py [--outdir results] [EXPERIMENT ...]

Each experiment writes its configs and CLI artifacts (CSV/JSON plus
manifests) under OUTDIR/EXPERIMENT/.  With no names given, all of them run:

  single_emitter  symmetric vs chiral coupling, with and without spontaneous
                  emission (spectra with refined peaks)
  two_emitter     chiral pair: direct dipole-dipole coupling off/auto times
                  spontaneous emission 0 or 6.86 Gamma0
  separation      lossy pair: routed and transmitted intensity over
                  detuning and spacing (5-100 nm), long-format CSV
  scaling         spectra of 5/10/20/30-emitter chains plus the
                  chain-length scaling report
  ablation        the same scaling report with the dipole-dipole
                  interaction switched off
"""

import argparse
import dataclasses
import json
from pathlib import Path

from photon_router import SystemConfig
from photon_router.cli import main as cli

COUPLING = 11.03
EMISSION = 6.86

NARROW = ("--delta-min", "-60", "--delta-max", "60", "--delta-points", "1201")
WIDE = ("--delta-min", "-300", "--delta-max", "300", "--delta-points", "2001")


def chiral(n: int, gamma: float, ddi_mode: str = "auto", **extra) -> SystemConfig:
    return SystemConfig(
        n_emitters=n, gamma=gamma, gamma_dr=COUPLING, gamma_ur=COUPLING,
        ddi_mode=ddi_mode, **extra,
    )


def symmetric(gamma: float) -> SystemConfig:
    return chiral(1, gamma, "off", gamma_dl=COUPLING, gamma_ul=COUPLING)


def refined_spectra(cases: dict[str, SystemConfig]) -> list[tuple]:
    return [
        ("spectrum", name, config, f"{name}.csv", (*NARROW, "--refine-peaks"))
        for name, config in cases.items()
    ]


# Experiment -> CLI runs: (command, config stem, config, artifact, flags).
EXPERIMENTS = {
    "single_emitter": refined_spectra({
        "symmetric_lossless": symmetric(0.0),
        "symmetric_lossy": symmetric(EMISSION),
        "chiral_lossless": chiral(1, 0.0, "off"),
        "chiral_lossy": chiral(1, EMISSION, "off"),
    }),
    "two_emitter": refined_spectra({
        "uncoupled_lossless": chiral(2, 0.0, "off"),
        "coupled_lossless": chiral(2, 0.0),
        "uncoupled_lossy": chiral(2, EMISSION, "off"),
        "coupled_lossy": chiral(2, EMISSION),
    }),
    "separation": [(
        "sweep-separation", "two_emitter_lossy", chiral(2, EMISSION),
        "separation_sweep.csv",
        ("--l-min", "5", "--l-max", "100", "--l-points", "96",
         "--delta-min", "-40", "--delta-max", "40", "--delta-points", "201"),
    )],
    "scaling": [
        ("spectrum", f"chain_{n:02d}", chiral(n, EMISSION), f"chain_{n:02d}.csv", WIDE)
        for n in (5, 10, 20, 30)
    ] + [(
        "scale-n", "chain_02", chiral(2, EMISSION), "scaling.json",
        ("--n-list", "1,2,5,10,20,30", *WIDE),
    )],
    "ablation": [(
        "scale-n", "chain_02_without_ddi", chiral(2, EMISSION, "off"), "scaling.json",
        ("--n-list", "1,2,5,10,20,30", *WIDE),
    )],
}


def run(experiment: str, outdir: Path) -> None:
    folder = outdir / experiment
    folder.mkdir(parents=True, exist_ok=True)
    for command, stem, config, artifact, flags in EXPERIMENTS[experiment]:
        config_path = folder / f"{stem}.json"
        config_path.write_text(json.dumps(dataclasses.asdict(config), indent=2))
        code = cli([
            command, "--config", str(config_path),
            "--out", str(folder / artifact), *flags,
        ])
        if code != 0:
            raise SystemExit(code)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--outdir", type=Path, default=Path("results"))
    parser.add_argument(
        "experiments", nargs="*", metavar="EXPERIMENT",
        help=f"subset to run, from {', '.join(EXPERIMENTS)} (default: all)",
    )
    args = parser.parse_args(argv)
    unknown = [name for name in args.experiments if name not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment {unknown[0]!r}")
    for experiment in args.experiments or EXPERIMENTS:
        run(experiment, args.outdir)


if __name__ == "__main__":
    main()
