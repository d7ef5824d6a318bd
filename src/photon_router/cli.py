"""Command-line front end.  ``main`` loads the config, runs the command (which
only computes its grid record and {path: text} artifacts), writes every
artifact, then the manifest named after the first, and prints one ``wrote``
line; point and chain-length counts are in the manifest's grid record only.

``COMMANDS`` is the one table of the commands and their flags, with each
flag's type and default or that it is required; ``parse_args`` reads argv
against it and ``-h``/``--help`` prints usage built from it.  A flag takes
its value as ``--flag value`` or ``--flag=value``, is never abbreviated,
and keeps its last value when repeated.  ``-h``, ``--help`` and
``--version`` print to stdout and exit 0.

Exit codes: 0 success, 1 config/usage error, 2 solver failure (the offending
detuning is reported), 3 I/O error, 4 internal error (any other exception,
reported in one line instead of a traceback).
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

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


def _with_grid(config: SystemConfig, args: SimpleNamespace) -> SystemConfig:
    """The config with its detuning window, or the command's default, and the
    --delta-* overrides applied, checked like a config file's window."""
    base = config.detuning or args.default_grid
    grid = DetuningGrid(
        min=base.min if args.delta_min is None else args.delta_min,
        max=base.max if args.delta_max is None else args.delta_max,
        points=base.points if args.delta_points is None else args.delta_points,
    )
    return validate(dataclasses.replace(config, detuning=grid))


def cmd_spectrum(args: SimpleNamespace, config: SystemConfig) -> tuple[dict, dict]:
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


def cmd_sweep_separation(args: SimpleNamespace, config: SystemConfig) -> tuple[dict, dict]:
    config = _with_grid(config, args)
    sweep = sweep_separation(
        config, (args.l_min, args.l_max), args.l_points, config.detuning.to_array()
    )
    record = {"l_min": args.l_min, "l_max": args.l_max, "l_points": args.l_points}
    return dataclasses.asdict(config.detuning) | record, {Path(args.out): _sweep_csv(sweep)}


def cmd_scale_n(args: SimpleNamespace, config: SystemConfig) -> tuple[dict, dict]:
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


def cmd_validate(args: SimpleNamespace, config: SystemConfig) -> tuple[dict, dict]:
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


_IO_FLAGS = {"--config": (str, ...), "--out": (str, ...)}
_DELTA_FLAGS = {"--delta-min": (float, None), "--delta-max": (float, None),
                "--delta-points": (int, None)}

#: Each command's run, help, default detuning window and {flag: (type,
#: default)}: a default of ... marks a required flag, and type bool a switch.
COMMANDS = {
    "spectrum": (cmd_spectrum, "detuning scan -> CSV + peak report", DetuningGrid(),
                 _IO_FLAGS | {"--refine-peaks": (bool, False)} | _DELTA_FLAGS),
    "sweep-separation": (cmd_sweep_separation, "(detuning, spacing) sweep -> long CSV",
                         DetuningGrid(-40.0, 40.0, 201), _IO_FLAGS | {
                             "--l-min": (float, 5.0), "--l-max": (float, 100.0),
                             "--l-points": (int, 96)} | _DELTA_FLAGS),
    "scale-n": (cmd_scale_n, "chain-length scaling -> JSON report", DetuningGrid(),
                _IO_FLAGS | {"--n-list": (str, ...)} | _DELTA_FLAGS),
    "validate": (cmd_validate, "validate a config, print derived values", None,
                 {"--config": (str, ...), "--dump-ddi": (str, None)}),
}


def _usage(command: str | None = None) -> str:
    """The usage of the program, or of one command, from ``COMMANDS``."""
    if command is None:
        return "\n".join([f"usage: photon-router [-h] [--version] {{{','.join(COMMANDS)}}} ...",
                          *(f"  {name:<22}{about}" for name, (_, about, _, _) in COMMANDS.items())])
    _, about, grid, flags = COMMANDS[command]
    window = f"; default grid {grid.min:g}..{grid.max:g}, {grid.points} points" if grid else ""
    rows = [(f"{flag} {'' if kind is bool else kind.__name__.upper()}",
             "required" if default is ... else f"default {default}" if default else "")
            for flag, (kind, default) in flags.items()]
    return "\n".join([f"usage: photon-router {command} [-h] [flags]", about + window,
                      _UNITS_HEADER[2:], *(f"  {flag:<22}{note}".rstrip() for flag, note in rows)])


def parse_args(argv: list[str]) -> SimpleNamespace | str:
    """The namespace that the command's ``cmd_*`` takes, with its
    ``command``, ``run`` and ``default_grid`` and one attribute per flag, or
    the text that ``-h``/``--help`` or ``--version`` prints.  A flag takes
    its value after a space or an ``=``, and the token after a value flag
    is always its value, so ``-1e2`` is one; a repeated flag keeps its last
    value.  A usage error is a ``ConfigError``."""
    if argv[:1] in (["-h"], ["--help"], ["--version"]):
        return __version__ if argv[0] == "--version" else _usage()
    if not argv or argv[0] not in COMMANDS:
        got = f"invalid choice: {argv[0]!r}" if argv else "required"
        raise ConfigError([f"argument command: {got} (choose from {', '.join(COMMANDS)})"])
    run, _, grid, flags = COMMANDS[argv[0]]
    values, tokens = {flag: default for flag, (_, default) in flags.items()}, iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            return _usage(argv[0])
        flag, joined, value = token.partition("=")
        if flag not in flags:
            raise ConfigError([f"unrecognized arguments: {token}"])
        kind = flags[flag][0]
        if kind is bool and joined:
            raise ConfigError([f"argument {flag}: ignored explicit argument {value!r}"])
        if kind is not bool and not joined and (value := next(tokens, None)) is None:
            raise ConfigError([f"argument {flag}: expected one argument"])
        try:
            values[flag] = True if kind is bool else kind(value)
        except ValueError:
            raise ConfigError([f"argument {flag}: invalid {kind.__name__} value: {value!r}"])
    if missing := [flag for flag, value in values.items() if value is ...]:
        raise ConfigError(["the following arguments are required: " + ", ".join(missing)])
    options = {flag[2:].replace("-", "_"): value for flag, value in values.items()}
    return SimpleNamespace(command=argv[0], run=run, default_grid=grid, **options)


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):  # -h, --help or --version
            print(args)
            return EXIT_OK
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
