"""Command-line front end: parse a config, run the requested computation,
write CSV/JSON artifacts plus a run manifest.

Exit codes: 0 success, 1 config/usage error, 2 solver failure (the offending
detuning is reported), 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .ddi import ddi_matrix
from .params import ConfigError, DetuningGrid, SystemConfig, load_config
from .scattering import SolverError
from .spectra import (
    Peak,
    SpectrumResult,
    find_peaks,
    scale_emitters,
    scan,
    sweep_separation,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_IO = 3

PEAK_CHANNELS = ("T", "R", "Tt", "Rt")

_UNITS_HEADER = "# units: detuning and rates in Gamma0, lengths in nm"


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _spectrum_csv(result: SpectrumResult) -> str:
    lines = [_UNITS_HEADER, "delta,T,R,Tt,Rt,loss"]
    rows = zip(*(result.intensities[key] for key in ("T", "R", "Tt", "Rt", "loss")))
    for delta, row in zip(result.deltas, rows):
        lines.append(",".join([_fmt(delta)] + [_fmt(v) for v in row]))
    return "\n".join(lines) + "\n"


def _sweep_csv(sweep) -> str:
    lines = [_UNITS_HEADER, "delta,L_nm,Tt,T"]
    for k, spacing in enumerate(sweep.spacings):
        for j, delta in enumerate(sweep.deltas):
            lines.append(
                ",".join(
                    [
                        _fmt(delta),
                        _fmt(spacing),
                        _fmt(sweep.routed[k, j]),
                        _fmt(sweep.transmitted[k, j]),
                    ]
                )
            )
    return "\n".join(lines) + "\n"


def _ddi_csv(values: np.ndarray) -> str:
    lines = ["# pairwise coupling rates in Gamma0"]
    for row in values:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _peaks_json(peaks: list[Peak]) -> str:
    payload = [dataclasses.asdict(p) for p in peaks]
    return json.dumps(payload, indent=2) + "\n"


def _manifest(
    command: str,
    config: SystemConfig,
    grid: dict,
    outputs: list[Path],
    started: float,
) -> str:
    payload = {
        "command": command,
        "version": __version__,
        "config": dataclasses.asdict(config),
        "derived": {"theta": config.theta, "r_step": config.r_step,
                    "chiral": config.chiral},
        "grid": grid,
        "outputs": [str(p) for p in outputs],
        "wall_clock_s": time.perf_counter() - started,
    }
    return json.dumps(payload, indent=2) + "\n"


def _delta_grid(config: SystemConfig, args: argparse.Namespace) -> DetuningGrid:
    base = config.detuning or DetuningGrid(
        args.default_min, args.default_max, args.default_points
    )
    return DetuningGrid(
        min=base.min if args.delta_min is None else args.delta_min,
        max=base.max if args.delta_max is None else args.delta_max,
        points=base.points if args.delta_points is None else args.delta_points,
    )


def _check_scan(result: SpectrumResult) -> None:
    if result.failures:
        raise result.failures[0]


def cmd_spectrum(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    config = load_config(args.config)
    grid = _delta_grid(config, args)
    ddi = ddi_matrix(config)
    result = scan(config, ddi, grid.to_array())
    _check_scan(result)
    for channel in PEAK_CHANNELS:
        result.peaks.extend(
            find_peaks(result, channel, refine=args.refine_peaks, config=config, ddi=ddi)
        )
    result.peaks.sort(key=lambda p: p.location)

    out = Path(args.out)
    peaks_path = out.with_suffix(".peaks.json")
    manifest_path = out.with_suffix(out.suffix + ".manifest.json")
    _write_text(out, _spectrum_csv(result))
    _write_text(peaks_path, _peaks_json(result.peaks))
    _write_text(
        manifest_path,
        _manifest(
            "spectrum",
            config,
            dataclasses.asdict(grid) | {"refine_peaks": args.refine_peaks},
            [out, peaks_path],
            started,
        ),
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

    out = Path(args.out)
    manifest_path = out.with_suffix(out.suffix + ".manifest.json")
    _write_text(out, _sweep_csv(sweep))
    _write_text(
        manifest_path,
        _manifest(
            "sweep-separation",
            config,
            dataclasses.asdict(grid)
            | {"l_min": args.l_min, "l_max": args.l_max, "l_points": args.l_points},
            [out],
            started,
        ),
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
    manifest_path = out.with_suffix(out.suffix + ".manifest.json")
    payload = {
        "window": {
            "min": report.window[0],
            "max": report.window[1],
            "points": report.window[2],
        },
        "records": [dataclasses.asdict(r) for r in report.records],
    }
    _write_text(out, json.dumps(payload, indent=2) + "\n")
    _write_text(
        manifest_path,
        _manifest(
            "scale-n",
            config,
            dataclasses.asdict(grid) | {"n_list": n_list},
            [out],
            started,
        ),
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
        manifest_path = out.with_suffix(out.suffix + ".manifest.json")
        _write_text(out, _ddi_csv(ddi.values))
        _write_text(
            manifest_path,
            _manifest("validate", config, {}, [out], started),
        )
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


if __name__ == "__main__":
    raise SystemExit(main())
