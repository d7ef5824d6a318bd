"""Command-line front end.  ``main`` loads the config, runs the command (which
only computes its grid record and {path: text} artifacts), writes every
artifact, then the manifest named after the first, and prints one ``wrote``
line; point and chain-length counts are in the manifest's grid record only.

Exit codes: 0 success, 1 config/usage error, 2 solver failure (the offending
detuning is reported), 3 I/O error, 4 internal error (any other exception,
reported in one line instead of a traceback).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .cells import WIDTH, cell_rows, lines
from .ddi import ddi_matrix
from .params import ConfigError, DetuningGrid, SystemConfig, load_config, validate
from .scattering import INTENSITY_KEYS, SolverError
from .spectra import SeparationSweep, find_peaks, scale_emitters, scan, sweep_separation

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

PEAK_CHANNELS = ("T", "R", "Tt", "Rt")

_UNITS_HEADER = "# units: detuning and rates in Gamma0, lengths in nm"


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _row_blocks(rows: int, cells_per_row: int):
    """Slices of whole rows, about numpy's ufunc buffer (np.getbufsize()) of
    cells each, so the formatter's temporaries stay small and are reused."""
    step = max(1, np.getbufsize() // cells_per_row)
    return (slice(start, start + step) for start in range(0, rows, step))


def _csv(header: list[str], cells: np.ndarray) -> str:
    """Header lines, then one line per row of a 2-D ``cells``: the same
    bytes as "{:.17g}".format per value and one ",".join per row."""
    blocks = (lines(cell_rows(cells[rows])) for rows in _row_blocks(*cells.shape))
    return "".join(["\n".join(header) + "\n", *blocks])


def _sweep_csv(sweep: SeparationSweep) -> str:
    """Long format: spacing-major rows delta,L_nm,Tt,T.  Each detuning and
    spacing is formatted once and its cell row repeated."""
    deltas, spacings = cell_rows(sweep.deltas[:, None]), cell_rows(sweep.spacings[:, None, None])
    values = np.stack([sweep.routed, sweep.transmitted], axis=-1)
    text = [_UNITS_HEADER + "\ndelta,L_nm,Tt,T\n"]
    for rows in _row_blocks(len(values), values[0].size):
        shape = (*values[rows].shape[:2], 1, WIDTH)
        table = np.concatenate([
            np.broadcast_to(deltas, shape), np.broadcast_to(spacings[rows], shape),
            cell_rows(values[rows]),
        ], axis=2)
        text.append(lines(table.reshape(-1, 4, WIDTH)))
    return "".join(text)


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _with_grid(config: SystemConfig, args: argparse.Namespace) -> SystemConfig:
    """The config with its detuning window, or the command's default, and the
    --delta-* overrides applied, checked like a config file's window."""
    base = config.detuning or args.default_grid
    grid = DetuningGrid(
        min=base.min if args.delta_min is None else args.delta_min,
        max=base.max if args.delta_max is None else args.delta_max,
        points=base.points if args.delta_points is None else args.delta_points,
    )
    return validate(dataclasses.replace(config, detuning=grid))


def cmd_spectrum(args: argparse.Namespace, config: SystemConfig) -> tuple[dict, dict]:
    config = _with_grid(config, args)
    ddi = ddi_matrix(config)
    result = scan(config, ddi, config.detuning.to_array())
    peaks = find_peaks(result, *PEAK_CHANNELS, refine=args.refine_peaks)
    out = Path(args.out)
    header = [_UNITS_HEADER, "delta," + ",".join(INTENSITY_KEYS)]
    return dataclasses.asdict(config.detuning) | {"refine_peaks": args.refine_peaks}, {
        out: _csv(header, result.table()),
        out.with_suffix(".peaks.json"): _json([dataclasses.asdict(p) for p in peaks]),
    }


def cmd_sweep_separation(args: argparse.Namespace, config: SystemConfig) -> tuple[dict, dict]:
    config = _with_grid(config, args)
    sweep = sweep_separation(
        config, (args.l_min, args.l_max), args.l_points, config.detuning.to_array()
    )
    record = {"l_min": args.l_min, "l_max": args.l_max, "l_points": args.l_points}
    return dataclasses.asdict(config.detuning) | record, {Path(args.out): _sweep_csv(sweep)}


def cmd_scale_n(args: argparse.Namespace, config: SystemConfig) -> tuple[dict, dict]:
    config = _with_grid(config, args)
    try:
        n_list = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError([f"--n-list must be comma-separated integers, got {args.n_list!r}"])
    report = scale_emitters(config, n_list, config.detuning.to_array())
    payload = {
        "window": dict(zip(("min", "max", "points"), report.window)),
        "records": [dataclasses.asdict(r) for r in report.records],
    }
    record = dataclasses.asdict(config.detuning) | {"n_list": n_list}
    return record, {Path(args.out): _json(payload)}


def cmd_validate(args: argparse.Namespace, config: SystemConfig) -> tuple[dict, dict]:
    ddi = ddi_matrix(config)  # a config it rejects prints nothing
    print(f"n_emitters: {config.n_emitters}")
    print(f"chiral: {'true' if config.chiral else 'false'}")
    print(f"theta: {config.theta:.6f} rad ({config.theta / np.pi:.4f} pi)")
    print(f"r_step: {config.r_step:.6f} rad")
    print(f"ddi_mode: {config.ddi_mode}")
    if config.n_emitters > 1 and config.ddi_mode != "off":
        print(f"ddi nearest-neighbour: {ddi.values[0, 1]:.4f} Gamma0")
    if args.dump_ddi is None:
        return {}, {}
    text = _csv(["# pairwise coupling rates in Gamma0"], ddi.values)
    return {}, {Path(args.dump_ddi): text}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A negative number in any form float() reads (-1e2, -inf) is a value,
        # as -1 and -.5 are to argparse, not an unknown option.
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)

    def error(self, message):  # route usage errors to exit code 1
        raise ConfigError([message])


def _add_delta_flags(sub, default_grid: DetuningGrid) -> None:
    sub.add_argument("--delta-min", type=float, default=None, help="Gamma0 units")
    sub.add_argument("--delta-max", type=float, default=None, help="Gamma0 units")
    sub.add_argument("--delta-points", type=int, default=None)
    sub.set_defaults(default_grid=default_grid)


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
    _add_delta_flags(spectrum, DetuningGrid(-300.0, 300.0, 2001))
    spectrum.set_defaults(run=cmd_spectrum)

    sweep = sub.add_parser(
        "sweep-separation", help="(detuning, spacing) sweep -> long CSV"
    )
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--l-min", type=float, default=5.0, help="nm")
    sweep.add_argument("--l-max", type=float, default=100.0, help="nm")
    sweep.add_argument("--l-points", type=int, default=96)
    _add_delta_flags(sweep, DetuningGrid(-40.0, 40.0, 201))
    sweep.set_defaults(run=cmd_sweep_separation)

    scale = sub.add_parser("scale-n", help="chain-length scaling -> JSON report")
    scale.add_argument("--config", required=True)
    scale.add_argument("--out", required=True)
    scale.add_argument("--n-list", required=True, help="comma-separated chain lengths")
    _add_delta_flags(scale, DetuningGrid(-300.0, 300.0, 2001))
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
        started = time.perf_counter()
        config = load_config(args.config)
        grid, artifacts = args.run(args, config)
        if artifacts:
            for path, text in artifacts.items():
                _write_text(path, text)
            first = next(iter(artifacts))
            manifest = {
                "command": args.command,
                "version": __version__,
                "config": dataclasses.asdict(config),
                "derived": {"theta": config.theta, "r_step": config.r_step,
                            "chiral": config.chiral},
                "grid": grid,
                "outputs": [str(p) for p in artifacts],
                "wall_clock_s": time.perf_counter() - started,
            }
            _write_text(first.with_suffix(first.suffix + ".manifest.json"), _json(manifest))
            print("wrote " + ", ".join(map(str, artifacts)))
        return EXIT_OK
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
