"""Shared fixtures: the quantum-dot/nanowire reference platform, the
(expensive) chain-length scaling report reused across test modules, and a
hypothesis strategy for random lossy chains."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import strategies as st

from photon_router import DdiMatrix, SystemConfig, ddi_matrix, scale_emitters, validate

# Reference platform: coupling 11.03 Gamma0 per rightward channel,
# spontaneous emission 6.86 Gamma0, 32.75 nm lattice on 655 nm / 211.8 nm
# wavelengths.
COUPLING = 11.03
EMISSION = 6.86


def chiral_config(n: int, gamma: float = EMISSION, **overrides) -> SystemConfig:
    base = dict(
        n_emitters=n,
        gamma=gamma,
        gamma_dr=COUPLING,
        gamma_ur=COUPLING,
        spacing=32.75,
        lambda_qd=655.0,
        lambda_sp=211.8,
        ddi_mode="auto",
    )
    base.update(overrides)
    return validate(SystemConfig(**base))


def symmetric_config(n: int, gamma: float = 0.0, **overrides) -> SystemConfig:
    return chiral_config(
        n, gamma=gamma, gamma_dl=COUPLING, gamma_ul=COUPLING, **overrides
    )


@pytest.fixture(scope="session")
def reference_scaling():
    """Chain-length scaling of the reference platform on the standard
    reproduction grid; shared because the N=30 column dominates runtime."""
    return _scaling("auto")


@pytest.fixture(scope="session")
def reference_scaling_without_ddi():
    """The same scaling with the dipole-dipole interaction switched off."""
    return _scaling("off")


def _scaling(ddi_mode: str):
    config = chiral_config(2, ddi_mode=ddi_mode)
    grid = np.linspace(-300.0, 300.0, 2001)
    return scale_emitters(config, [1, 2, 5, 10, 20, 30], grid)


@pytest.fixture()
def two_emitter_lossless():
    return chiral_config(2, gamma=0.0)


class RecordingSolve:
    """Stands in for ``np.linalg.solve`` and keeps every stacked system it
    was given, with its solution."""

    def __init__(self):
        self.solve, self.systems = np.linalg.solve, []

    def __call__(self, matrices, rhs):
        x = self.solve(matrices, rhs)
        self.systems.append((matrices.copy(), np.array(rhs), x))
        return x


def replace(config: SystemConfig, **changes) -> SystemConfig:
    return validate(dataclasses.replace(config, **changes))


def isolated_pair(config: SystemConfig) -> tuple[SystemConfig, DdiMatrix]:
    """``config``'s N = 30 chain with its last two emitters lossless and
    decoupled from the guides and the other emitters, with J = 1 between
    them: M(delta) is exactly singular at delta = -1 and +1."""
    def rates(value):
        return (value,) * 28 + (0.0, 0.0)

    channels = ("gamma", "gamma_dr", "gamma_dl", "gamma_ur", "gamma_ul")
    config = replace(config, **{name: rates(getattr(config, name)) for name in channels})
    exchange = ddi_matrix(config).values.copy()
    exchange[28:], exchange[:, 28:] = 0.0, 0.0
    exchange[28, 29] = exchange[29, 28] = 1.0
    return config, DdiMatrix(exchange)


def rate_profiles(n: int, low: float):
    return st.lists(
        st.floats(min_value=low, max_value=20.0), min_size=n, max_size=n
    ).map(tuple)


@st.composite
def random_chains(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    dr, ur = draw(rate_profiles(n, 0.0)), draw(rate_profiles(n, 0.0))
    if draw(st.booleans()):
        dl, ul = draw(rate_profiles(n, 0.0)), draw(rate_profiles(n, 0.0))
    else:
        dl = ul = 0.0
    config = validate(
        SystemConfig(
            n_emitters=n,
            gamma=draw(rate_profiles(n, 0.1)),  # lossy: no real poles
            gamma_dr=dr, gamma_dl=dl, gamma_ur=ur, gamma_ul=ul,
            spacing=draw(st.floats(min_value=1.0, max_value=200.0)),
            delta_dependent_phases=draw(st.booleans()),
        )
    )
    exchange = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(
        -30.0, 30.0, (n, n)
    )
    exchange = 0.5 * (exchange + exchange.T)
    np.fill_diagonal(exchange, 0.0)
    return config, DdiMatrix(exchange)
