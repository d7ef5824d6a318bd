"""Steady-state single-photon routing through a chain of two-level emitters
coupled to a two-waveguide ladder (four-port router).

The library solves the scattering problem for arbitrary chain length with
chiral or symmetric couplings, spontaneous emission and all-to-all
dipole-dipole interaction: one N x N system in the emitter amplitudes per
detuning, stacked over a whole detuning grid, with the amplitudes at the
four output ports recovered by cumulative sums.  It also provides spectrum
scans, peak refinement, separation sweeps and chain-length scaling reports,
all built on that one batched solve.  Peak refinement probes every open
peak of every channel in each solver call, several golden-section steps
ahead where one LU stack has room (depth = max(1, LU stack points // open
peaks)), and keeps each peak's steps up to its first mispredicted one, so
its results do not depend on the predictions, bit for bit.
"""

__version__ = "0.1.0"

from .ddi import DdiMatrix, ddi_coupling, ddi_matrix
from .params import (
    ConfigError,
    DetuningGrid,
    SystemConfig,
    load_config,
    validate,
)
from .scattering import (
    SolverError,
    TransportSolution,
    solve_spectrum_point_batch,
    solve_transport,
)
from .spectra import (
    Peak,
    ScalingRecord,
    ScalingReport,
    SeparationSweep,
    find_peaks,
    scale_emitters,
    scan,
    sweep_separation,
)

__all__ = [
    "__version__",
    "ConfigError",
    "DetuningGrid",
    "SystemConfig",
    "load_config",
    "validate",
    "DdiMatrix",
    "ddi_coupling",
    "ddi_matrix",
    "SolverError",
    "TransportSolution",
    "solve_spectrum_point_batch",
    "solve_transport",
    "Peak",
    "ScalingRecord",
    "ScalingReport",
    "SeparationSweep",
    "find_peaks",
    "scale_emitters",
    "scan",
    "sweep_separation",
]
