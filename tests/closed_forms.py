"""Closed-form one- and two-emitter transport amplitudes.

Independent oracles for the batched solver and fast evaluators for resonance
bookkeeping.  Conventions match the solver: the photon enters the lower
waveguide moving right, amplitudes are reported at the four output ports,
rates are in Gamma0 units.  All expressions are written in pole form, i.e.
with removable zero-over-zero points already cancelled, so they evaluate to
the limit value everywhere they are finite.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from photon_router.scattering import port_intensities


class PoleError(ArithmeticError):
    """Raised at an exact real pole of a lossless closed form."""


@dataclass(frozen=True)
class FourPortAmplitudes:
    """Output amplitudes (t, r) of the lower and (tt, rt) of the upper
    waveguide at one detuning."""

    delta: float
    t: complex
    r: complex
    tt: complex
    rt: complex

    def intensities(self) -> dict[str, float]:
        return port_intensities(self.t, self.r, self.tt, self.rt)


def _check_rates(coupling: float, gamma: float) -> None:
    if coupling <= 0.0:
        raise ValueError(f"coupling must be positive, got {coupling}")
    if gamma < 0.0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")


def single_symmetric(
    delta: float, coupling: float, gamma: float = 0.0
) -> FourPortAmplitudes:
    """One emitter coupled with the same rate to all four channels.

    t = (gamma + 2G - 2i d) / (gamma + 4G - 2i d)
    r = tt = rt = -2G / (gamma + 4G - 2i d)

    At resonance without loss every port carries intensity 1/4.
    """
    _check_rates(coupling, gamma)
    den = gamma + 4.0 * coupling - 2j * delta
    t = (gamma + 2.0 * coupling - 2j * delta) / den
    side = -2.0 * coupling / den
    return FourPortAmplitudes(delta=delta, t=t, r=side, tt=side, rt=side)


def single_chiral(
    delta: float, coupling: float, gamma: float = 0.0
) -> FourPortAmplitudes:
    """One emitter coupled only to the rightward channel of each waveguide.

    t  = (gamma - 2i d) / (gamma + 2G - 2i d)
    tt = -2G / (gamma + 2G - 2i d),  r = rt = 0

    Lossless resonance routes the photon completely (tt = -1, a pi phase
    flip); finite gamma caps the routed intensity at (2G/(gamma+2G))^2.
    """
    _check_rates(coupling, gamma)
    den = gamma + 2.0 * coupling - 2j * delta
    t = (gamma - 2j * delta) / den
    tt = -2.0 * coupling / den
    return FourPortAmplitudes(delta=delta, t=t, r=0.0, tt=tt, rt=0.0)


def two_chiral(
    delta: float,
    coupling: float,
    gamma: float = 0.0,
    ddi: float = 0.0,
    phase: float = 0.0,
) -> FourPortAmplitudes:
    """Two chirally coupled emitters with direct exchange coupling ``ddi``
    and propagation phase ``phase`` between them.

    With the shifted pole D = d + i gamma/2 + i G and the two-emitter
    determinant Q = D^2 + 2i J G e^{i phase} - J^2:

        tt = -2i G (d + i gamma/2 + J cos(phase)) / Q,   t = 1 + tt

    so the routed intensity vanishes at d = -J cos(phase) and, for gamma = 0,
    reaches one exactly at d = +-sqrt(J^2 + G^2 + 2 J G sin(phase)).
    """
    _check_rates(coupling, gamma)
    pole = delta + 0.5j * gamma + 1j * coupling
    determinant = (
        pole * pole + 2j * ddi * coupling * cmath.exp(1j * phase) - ddi * ddi
    )
    # Guard relative to the size of the summands: a lossless chain has an
    # isolated real pole when ddi*sin(phase) = -coupling at delta = -ddi*cos(phase).
    scale = abs(pole) ** 2 + 2.0 * abs(ddi * coupling) + ddi * ddi
    if abs(determinant) <= 1e-12 * scale:
        raise PoleError(
            f"two-emitter determinant vanishes at delta={delta:+.6g}"
        )
    tt = (
        -2j
        * coupling
        * (delta + 0.5j * gamma + ddi * math.cos(phase))
        / determinant
    )
    return FourPortAmplitudes(delta=delta, t=1.0 + tt, r=0.0, tt=tt, rt=0.0)
