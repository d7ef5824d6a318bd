"""Steady-state single-photon routing through a chain of two-level emitters
coupled to a two-waveguide ladder (four-port router).

The library solves the scattering problem for arbitrary chain length with
chiral or symmetric couplings, spontaneous emission and all-to-all
dipole-dipole interaction: one N x N system in the emitter amplitudes per
detuning, stacked over a whole detuning grid, with the field amplitudes
recovered by cumulative sums.  It also provides closed-form one- and
two-emitter oracles, spectrum scans, peak refinement, separation sweeps and
chain-length scaling reports, all built on that one batched solve.
"""

__version__ = "0.1.0"

from .analytic import (
    FourPortAmplitudes,
    PoleError,
    single_chiral,
    single_symmetric,
    two_chiral,
)
from .ddi import DdiMatrix, ddi_coupling, ddi_matrix
from .params import (
    ConfigError,
    DetuningGrid,
    SystemConfig,
    load_config,
    to_megahertz,
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
    SpectrumResult,
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
    "to_megahertz",
    "validate",
    "DdiMatrix",
    "ddi_coupling",
    "ddi_matrix",
    "SolverError",
    "TransportSolution",
    "solve_spectrum_point_batch",
    "solve_transport",
    "FourPortAmplitudes",
    "PoleError",
    "single_chiral",
    "single_symmetric",
    "two_chiral",
    "Peak",
    "ScalingRecord",
    "ScalingReport",
    "SeparationSweep",
    "SpectrumResult",
    "find_peaks",
    "scale_emitters",
    "scan",
    "sweep_separation",
]
