"""Physical parameters and unit conventions shared by every module.

All rates are expressed in units of the free-space decay rate Gamma0 and all
lengths in nanometres.  Group velocities are folded into the coupling rates,
so the amplitude-level coupling of an emitter to a directional channel is
recovered as sqrt(rate) wherever the solver needs it.  The absolute value of
Gamma0 (in MHz) is metadata: only the detuning-dependent propagation phases
read it (``SystemConfig.step_phase``).
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

DDI_MODES = ("auto", "manual", "off")

#: Largest detuning magnitude, Gamma0: keeps every grid and refinement step finite.
DETUNING_LIMIT = sys.float_info.max / 4

#: Longest chain ``validate`` accepts: one N x N complex system is then 16 MB.
EMITTER_LIMIT = 1000

#: Most points a detuning window may hold.
POINTS_LIMIT = 10**6

#: Most emitter amplitudes one solve may hold: detuning points x emitters,
#: times the spacings of a separation sweep.  A solve keeps every point's
#: amplitudes A (P, N), 16 bytes an element, while its other arrays grow
#: with P alone or are bounded per stack, so 2**26 elements (1 GiB of A)
#: bound a run's memory on a host of a few GiB, 1,100 times the largest
#: reference run (60,030 elements, 2001 points at N = 30).  Larger grids
#: are rejected before any decomposition, where their allocation would
#: fail or be OOM-killed.
ELEMENT_LIMIT = 2**26

_RATE_FIELDS = ("gamma", "gamma_dr", "gamma_dl", "gamma_ur", "gamma_ul")

_SPEED_OF_LIGHT_NM_S = 2.99792458e17


class ConfigError(ValueError):
    """Carries the complete list of configuration violations."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


Rate = float | tuple[float, ...]


@dataclass(frozen=True)
class DetuningGrid:
    """Inclusive detuning scan window, units of Gamma0."""

    min: float = -300.0
    max: float = 300.0
    points: int = 2001

    def to_array(self) -> np.ndarray:
        return np.linspace(self.min, self.max, self.points)


@dataclass(frozen=True)
class SystemConfig:
    """Full physical description of an N-emitter, two-waveguide router.

    Each rate field accepts either a single number (identical emitters) or a
    sequence of length ``n_emitters`` for per-emitter overrides.  Geometry
    defaults correspond to quantum dots on parallel silver nanowires.
    """

    n_emitters: int = 1
    gamma: Rate = 0.0          # spontaneous emission into non-guided modes
    gamma_dr: Rate = 0.0       # lower waveguide, rightward channel
    gamma_dl: Rate = 0.0       # lower waveguide, leftward channel
    gamma_ur: Rate = 0.0       # upper waveguide, rightward channel
    gamma_ul: Rate = 0.0       # upper waveguide, leftward channel
    spacing: float = 32.75     # inter-emitter separation, nm
    lambda_qd: float = 655.0   # emitter transition wavelength, nm
    lambda_sp: float = 211.8   # guided-mode wavelength, nm
    dipole_angle: float = math.pi / 2   # dipole vs chain axis, radians
    ddi_mode: str = "auto"
    ddi_strength: float | None = None   # nearest-neighbour value, manual mode
    gamma0_mhz: float = 7.5    # metadata only; see module docstring
    delta_dependent_phases: bool = False
    detuning: DetuningGrid | None = None

    def __post_init__(self):
        # Keep the config hashable: per-emitter rates become tuples.
        for name in _RATE_FIELDS:
            value = getattr(self, name)
            if isinstance(value, (list, np.ndarray)):
                value = tuple(float(v) if _is_finite(v) else v for v in value)
                object.__setattr__(self, name, value)

    @property
    def theta(self) -> float:
        """Guided-mode propagation phase accumulated per lattice step, rad."""
        return 2.0 * math.pi * self.spacing / self.lambda_sp

    @property
    def r_step(self) -> float:
        """Dimensionless separation of adjacent emitters at the transition
        wavenumber (enters the dipole-dipole coupling), rad."""
        return 2.0 * math.pi * self.spacing / self.lambda_qd

    @property
    def chiral(self) -> bool:
        """True when both leftward channels are fully blocked."""
        return bool(
            np.all(self.rate_profile("gamma_dl") == 0.0)
            and np.all(self.rate_profile("gamma_ul") == 0.0)
        )

    def rate_profile(self, name: str) -> np.ndarray:
        """Per-emitter array for one of the rate fields."""
        value = getattr(self, name)
        if isinstance(value, tuple):
            return np.asarray(value, dtype=float)
        return np.full(self.n_emitters, float(value))

    def step_phase(self, delta: float) -> float:
        """Propagation phase per lattice step at detuning ``delta``.

        Phases are evaluated at the carrier by default; the detuning
        correction (a part-per-1e8 effect for MHz-scale Gamma0) is applied
        only when ``delta_dependent_phases`` is set.
        """
        if not self.delta_dependent_phases:
            return self.theta
        carrier_hz = _SPEED_OF_LIGHT_NM_S / self.lambda_qd
        return self.theta * (1.0 + delta * self.gamma0_mhz * 1e6 / carrier_hz)


def _is_finite(value) -> bool:
    """A real number, not a bool, within the float range; an integer is
    compared, never converted, so one beyond that range is not finite."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and abs(value) <= sys.float_info.max


def _is_count(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_rate(name: str, value: Rate, n: int, errors: list[str]) -> None:
    values = value if isinstance(value, tuple) else (value,)
    if isinstance(value, tuple) and len(value) != n:
        errors.append(f"{name} has {len(value)} entries for {n} emitters")
    bad = [v for v in values if not (_is_finite(v) and v >= 0.0)]
    if bad:
        errors.append(f"{name} must be non-negative, got {bad[0]!r}")


def memory_errors(points: int, n: int, spacings: int = 1) -> list[str]:
    """The violation, if any, of ``ELEMENT_LIMIT`` by the amplitudes of
    ``spacings`` x ``points`` detunings x ``n`` emitters."""
    elements = spacings * points * n
    if elements <= ELEMENT_LIMIT:
        return []
    sweep = f"{spacings} spacings x " if spacings > 1 else ""
    return [f"{sweep}P = {points} detuning points x N = {n} emitters need {16 * elements}"
            f" bytes of amplitudes, over the budget of {16 * ELEMENT_LIMIT} bytes (ELEMENT_LIMIT)"]


def validate(config: SystemConfig) -> SystemConfig:
    """Check every invariant and return the config unchanged.

    Raises ConfigError listing all violations at once, so a bad config file
    can be fixed in a single pass.  Wrongly typed values (a string rate, a
    fractional or boolean emitter count) are violations like any other.
    Once the fields are valid, theta and r_step over the chain's length, each
    emitter's total rate and, with delta-dependent phases, the step phase
    over the chain and the detuning window must be finite too, and the
    window's amplitudes within ``ELEMENT_LIMIT`` (``memory_errors``).
    """
    errors: list[str] = []
    if not _is_count(config.n_emitters):
        errors.append(f"n_emitters must be an integer, got {config.n_emitters!r}")
    elif config.n_emitters < 1:
        errors.append(f"n_emitters must be >= 1, got {config.n_emitters}")
    elif config.n_emitters > EMITTER_LIMIT:
        errors.append(f"n_emitters must be <= {EMITTER_LIMIT}, got {config.n_emitters}")
    for name in _RATE_FIELDS:
        _check_rate(name, getattr(config, name), config.n_emitters, errors)
    for name in ("spacing", "lambda_qd", "lambda_sp", "gamma0_mhz"):
        value = getattr(config, name)
        if not (_is_finite(value) and value > 0.0):
            errors.append(f"{name} must be positive, got {value!r}")
    if not _is_finite(config.dipole_angle):
        errors.append(f"dipole_angle must be finite, got {config.dipole_angle!r}")
    if config.ddi_mode not in DDI_MODES:
        errors.append(
            f"unknown ddi_mode {config.ddi_mode!r}, expected one of {DDI_MODES}"
        )
    if config.ddi_mode == "manual":
        if config.ddi_strength is None:
            errors.append("ddi_mode 'manual' requires ddi_strength")
        elif not _is_finite(config.ddi_strength):
            errors.append(f"ddi_strength must be finite, got {config.ddi_strength!r}")
    if not isinstance(drifts := config.delta_dependent_phases, bool):
        errors.append(f"delta_dependent_phases must be true or false, got {drifts!r}")
    if config.detuning is not None:
        grid = config.detuning
        if not _is_count(grid.points):
            errors.append(f"detuning points must be an integer, got {grid.points!r}")
        elif grid.points < 1:
            errors.append(f"detuning points must be >= 1, got {grid.points}")
        elif grid.points > POINTS_LIMIT:
            errors.append(f"detuning points must be <= {POINTS_LIMIT}, got {grid.points}")
        if not all(_is_finite(v) and abs(v) <= DETUNING_LIMIT for v in (grid.min, grid.max)):
            errors.append(f"detuning window must be finite, within +-{DETUNING_LIMIT:.3g}")
        elif grid.min > grid.max:
            errors.append(f"detuning min {grid.min} exceeds max {grid.max}")
        elif grid.min == grid.max and _is_count(grid.points) and grid.points > 1:
            errors.append(
                f"detuning window of {grid.points} points needs min < max, "
                f"got {grid.min} for both"
            )
    if errors:
        raise ConfigError(errors)

    span = max(config.n_emitters - 1, 1)  # lattice steps to the last emitter
    for name, wavelength in (("theta", "lambda_sp"), ("r_step", "lambda_qd")):
        if not math.isfinite(span * getattr(config, name)):
            errors.append(f"{name} = 2 pi spacing / {wavelength} is not finite over the chain")
    ends = (config.detuning.min, config.detuning.max) if config.detuning else ()
    if config.delta_dependent_phases and not all(  # linear in delta: check the ends
            math.isfinite(span * config.step_phase(delta)) for delta in ends):
        errors.append("the step phase is not finite over the chain and detuning window")
    if config.detuning is not None:
        errors += memory_errors(config.detuning.points, config.n_emitters)
    rates = [getattr(config, name) for name in _RATE_FIELDS]
    for j in range(max((len(v) for v in rates if isinstance(v, tuple)), default=1)):
        gamma, *channels = (float(v[j] if isinstance(v, tuple) else v) for v in rates)
        if not math.isfinite(gamma + sum(channels)):  # the solver's order
            errors.append(f"emitter {j + 1}: total rate overflows")
            break
    if errors:
        raise ConfigError(errors)
    return config


def load_config(path: str | Path) -> SystemConfig:
    """Parse and validate a JSON config file.

    The object must use the SystemConfig field names; unknown keys are
    rejected.  The optional "detuning" entry is an object with keys
    min/max/points (Gamma0 units).
    """
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ConfigError(["config root must be a JSON object"])
    known = {f.name for f in dataclasses.fields(SystemConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError([f"unknown config key {k!r}" for k in unknown])
    if data.get("detuning") is not None:
        grid = data["detuning"]
        if not isinstance(grid, dict):
            raise ConfigError(["detuning must be an object with min/max/points"])
        extra = sorted(set(grid) - {"min", "max", "points"})
        if extra:
            raise ConfigError([f"unknown detuning key {k!r}" for k in extra])
        data["detuning"] = DetuningGrid(**grid)
    return validate(SystemConfig(**data))
