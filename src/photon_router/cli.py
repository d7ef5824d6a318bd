"""Command-line front end: parse a config, run the requested computation,
write CSV/JSON artifacts plus a run manifest.

Exit codes: 0 success, 1 config/usage error, 2 solver failure (the offending
detuning is reported), 3 I/O error, 4 internal error (any other exception,
reported in one line instead of a traceback).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .ddi import ddi_matrix
from .params import ConfigError, DetuningGrid, SystemConfig, load_config, validate
from .scattering import INTENSITY_KEYS, SolverError
from .spectra import find_peaks, scale_emitters, scan, sweep_separation

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

PEAK_CHANNELS = ("T", "R", "Tt", "Rt")

_UNITS_HEADER = "# units: detuning and rates in Gamma0, lengths in nm"


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _csv(header: list[str], columns: list[np.ndarray]) -> str:
    """Header lines, then one row per index of the columns, formatted from
    Python floats converted lazily (no column is held as a list)."""
    rows = zip(*(map(float, column) for column in columns))
    lines = header + [",".join(map(_fmt, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _write_artifacts(
    command: str,
    config: SystemConfig,
    grid: dict,
    artifacts: dict[Path, str],
    started: float,
) -> None:
    """Write the data artifacts, then a manifest named after the first one."""
    for path, text in artifacts.items():
        _write_text(path, text)
    first = next(iter(artifacts))
    payload = {
        "command": command,
        "version": __version__,
        "config": dataclasses.asdict(config),
        "derived": {"theta": config.theta, "r_step": config.r_step,
                    "chiral": config.chiral},
        "grid": grid,
        "outputs": [str(p) for p in artifacts],
        "wall_clock_s": time.perf_counter() - started,
    }
    _write_text(first.with_suffix(first.suffix + ".manifest.json"), _json(payload))


def _delta_grid(config: SystemConfig, args: argparse.Namespace) -> DetuningGrid:
    """The config's detuning window, or the command's default, with the
    --delta-* overrides applied and checked like a config file's window."""
    base = config.detuning or DetuningGrid(
        args.default_min, args.default_max, args.default_points
    )
    grid = DetuningGrid(
        min=base.min if args.delta_min is None else args.delta_min,
        max=base.max if args.delta_max is None else args.delta_max,
        points=base.points if args.delta_points is None else args.delta_points,
    )
    return validate(dataclasses.replace(config, detuning=grid)).detuning


def cmd_spectrum(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    config = load_config(args.config)
    grid = _delta_grid(config, args)
    ddi = ddi_matrix(config)
    result = scan(config, ddi, grid.to_array())
    peaks = find_peaks(
        result, *PEAK_CHANNELS, refine=args.refine_peaks, config=config, ddi=ddi
    )

    out = Path(args.out)
    peaks_path = out.with_suffix(".peaks.json")
    columns = [result.delta, *(result.intensities[key] for key in INTENSITY_KEYS)]
    _write_artifacts(
        "spectrum",
        config,
        dataclasses.asdict(grid) | {"refine_peaks": args.refine_peaks},
        {
            out: _csv([_UNITS_HEADER, "delta," + ",".join(INTENSITY_KEYS)], columns),
            peaks_path: _json([dataclasses.asdict(p) for p in peaks]),
        },
        started,
    )
    print(f"wrote {out} ({grid.points} points), {peaks_path}")
    return EXIT_OK


def cmd_sweep_separation(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    config = load_config(args.config)
    grid = _delta_grid(config, args)
    sweep = sweep_separation(
        config, (args.l_min, args.l_max), args.l_points, grid.to_array()
    )

    # Long format: spacing-major rows, one per (spacing, detuning).
    columns = [
        np.tile(sweep.deltas, sweep.spacings.size),
        np.repeat(sweep.spacings, sweep.deltas.size),
        sweep.routed.ravel(),
        sweep.transmitted.ravel(),
    ]
    out = Path(args.out)
    _write_artifacts(
        "sweep-separation",
        config,
        dataclasses.asdict(grid)
        | {"l_min": args.l_min, "l_max": args.l_max, "l_points": args.l_points},
        {out: _csv([_UNITS_HEADER, "delta,L_nm,Tt,T"], columns)},
        started,
    )
    print(f"wrote {out} ({args.l_points} spacings x {grid.points} points)")
    return EXIT_OK


def cmd_scale_n(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    config = load_config(args.config)
    grid = _delta_grid(config, args)
    try:
        n_list = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError([f"--n-list must be comma-separated integers, got {args.n_list!r}"])
    report = scale_emitters(config, n_list, grid.to_array())

    out = Path(args.out)
    payload = {
        "window": dict(zip(("min", "max", "points"), report.window)),
        "records": [dataclasses.asdict(r) for r in report.records],
    }
    _write_artifacts(
        "scale-n",
        config,
        dataclasses.asdict(grid) | {"n_list": n_list},
        {out: _json(payload)},
        started,
    )
    print(f"wrote {out} ({len(n_list)} chain lengths)")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    config = load_config(args.config)
    print(f"n_emitters: {config.n_emitters}")
    print(f"chiral: {'true' if config.chiral else 'false'}")
    print(f"theta: {config.theta:.6f} rad ({config.theta / np.pi:.4f} pi)")
    print(f"r_step: {config.r_step:.6f} rad")
    print(f"ddi_mode: {config.ddi_mode}")
    ddi = ddi_matrix(config)
    if config.n_emitters > 1 and config.ddi_mode != "off":
        print(f"ddi nearest-neighbour: {ddi.values[0, 1]:.4f} Gamma0")
    if args.dump_ddi is not None:
        out = Path(args.dump_ddi)
        text = _csv(["# pairwise coupling rates in Gamma0"], list(ddi.values.T))
        _write_artifacts("validate", config, {}, {out: text}, started)
        print(f"wrote {out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage errors to exit code 1
        raise ConfigError([message])


def _add_delta_flags(sub, default_min, default_max, default_points):
    sub.add_argument("--delta-min", type=float, default=None, help="Gamma0 units")
    sub.add_argument("--delta-max", type=float, default=None, help="Gamma0 units")
    sub.add_argument("--delta-points", type=int, default=None)
    sub.set_defaults(
        default_min=default_min,
        default_max=default_max,
        default_points=default_points,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="photon-router",
        description="Single-photon transport through an emitter chain "
        "coupled to a two-waveguide ladder.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    spectrum = sub.add_parser("spectrum", help="detuning scan -> CSV + peak report")
    spectrum.add_argument("--config", required=True)
    spectrum.add_argument("--out", required=True)
    spectrum.add_argument("--refine-peaks", action="store_true")
    _add_delta_flags(spectrum, -300.0, 300.0, 2001)
    spectrum.set_defaults(run=cmd_spectrum)

    sweep = sub.add_parser(
        "sweep-separation", help="(detuning, spacing) sweep -> long CSV"
    )
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--l-min", type=float, default=5.0, help="nm")
    sweep.add_argument("--l-max", type=float, default=100.0, help="nm")
    sweep.add_argument("--l-points", type=int, default=96)
    _add_delta_flags(sweep, -40.0, 40.0, 201)
    sweep.set_defaults(run=cmd_sweep_separation)

    scale = sub.add_parser("scale-n", help="chain-length scaling -> JSON report")
    scale.add_argument("--config", required=True)
    scale.add_argument("--out", required=True)
    scale.add_argument("--n-list", required=True, help="comma-separated chain lengths")
    _add_delta_flags(scale, -300.0, 300.0, 2001)
    scale.set_defaults(run=cmd_scale_n)

    check = sub.add_parser("validate", help="validate a config, print derived values")
    check.add_argument("--config", required=True)
    check.add_argument("--dump-ddi", default=None, metavar="PATH")
    check.set_defaults(run=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except ConfigError as err:
        for line in err.errors:
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as err:
        print(f"config error: malformed JSON: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as err:
        print(f"solver error: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    except Exception as err:
        where = traceback.extract_tb(err.__traceback__)[-1]
        print(
            f"internal error: {type(err).__name__}: {err}"
            f" (at {Path(where.filename).name}:{where.lineno})",
            file=sys.stderr,
        )
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
