"""Pairwise coherent dipole-dipole coupling and the all-to-all rate matrix.

The coupling is purely real (coherent exchange); dissipative cross terms are
outside the model.  Separations are dimensionless: R = transition wavenumber
times physical distance, so the free-space coupling law needs no unit
handling beyond the Gamma0 rate scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ConfigError, SystemConfig


@dataclass(frozen=True)
class DdiMatrix:
    """Symmetric N x N matrix of pairwise coupling rates, units of Gamma0."""

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"coupling matrix must be square, got {values.shape}")
        if not np.array_equal(values, values.T):
            raise ValueError("coupling matrix must be symmetric")
        if np.any(np.diag(values) != 0.0):
            raise ValueError("coupling matrix must have a zero diagonal")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def ddi_coupling(separation: float, dipole_angle: float) -> float:
    """Coherent dipole-dipole rate at dimensionless separation R, in Gamma0.

    Sum of a transverse part (3/4)(cosR/R^3 + sinR/R^2 - cosR/R), which is
    the complete result for dipoles perpendicular to the chain, and a
    cos^2(angle)-weighted correction for tilted dipoles.  Diverges as 1/R^3
    at contact and decays as cos(R)/R in the far field.
    """
    if not separation > 0.0:
        raise ValueError(f"separation must be positive, got {separation}")
    r = separation
    c, s = math.cos(r), math.sin(r)
    transverse = c / r**3 + s / r**2 - c / r
    tilt = c / r - 3.0 * c / r**3 - 3.0 * s / r**2
    return 0.75 * (transverse + math.cos(dipole_angle) ** 2 * tilt)


def ddi_matrix(config: SystemConfig) -> DdiMatrix:
    """All-to-all coupling matrix for a validated config.

    auto:   every pair gets the free-space law at its separation.
    manual: nearest neighbours pinned to ``ddi_strength``; longer-range pairs
            follow the same distance law, rescaled accordingly.  Near a node
            of the nearest-neighbour law that rescaling diverges: an
            overflow or a longer-range pair above |ddi_strength| is a ConfigError.
    off:    all zeros.

    A spacing whose law is not finite at some pair's separation is a ConfigError.
    """
    return DdiMatrix(_toeplitz(_by_offset(config)))


def _by_offset(config: SystemConfig) -> np.ndarray:
    """``ddi_matrix``'s coupling (N,) at each offset |j - k| = 0..N-1, 0 at
    offset 0, with its ConfigErrors: J_jk depends on the offset alone."""
    n = config.n_emitters
    by_offset = [0.0] * (n - 1)  # ddi_mode "off"
    if config.ddi_mode != "off" and n > 1:
        for k in range(1, n):
            separation = k * config.r_step
            try:
                coupling = ddi_coupling(separation, config.dipole_angle)
            except (OverflowError, ZeroDivisionError, ValueError):  # R^3 or R out of range
                coupling = math.nan
            if not math.isfinite(coupling):  # R^3 underflowed or overflowed
                size = "small" if separation < 1.0 else "large"
                raise ConfigError([f"spacing {config.spacing} nm is too {size}: at separation"
                                   f" R = {separation:.3g} the dipole-dipole law is not finite"])
            by_offset[k - 1] = coupling
        if config.ddi_mode == "manual":
            nearest = by_offset[0]
            scale = config.ddi_strength / nearest if nearest else math.inf
            by_offset = [scale * j for j in by_offset]
            longest = max(map(abs, by_offset[1:]), default=0.0)
            if not math.isfinite(scale) or longest > abs(config.ddi_strength):
                raise ConfigError([
                    f"ddi_mode 'manual': the free-space nearest-neighbour coupling at"
                    f" spacing {config.spacing} nm is {nearest:.3g} Gamma0, so pinning"
                    f" it to ddi_strength {config.ddi_strength} overflows or makes a"
                    " longer-range pair exceed |ddi_strength|"
                ])
    return np.array([0.0, *by_offset])


def _toeplitz(by_offset: np.ndarray) -> np.ndarray:
    """The symmetric matrices X_jk = by_offset[..., |j - k|] (..., N, N) of
    values by offset (..., N)."""
    idx = np.arange(by_offset.shape[-1])
    return by_offset[..., abs(np.subtract.outer(idx, idx))]
