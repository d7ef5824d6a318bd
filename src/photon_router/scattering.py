"""Steady-state single-photon transport through the emitter chain.

The photon enters the lower waveguide moving right (t_0 = 1); all other
inputs vanish.  Eliminating the field amplitudes leaves N unknowns, the
emitter amplitudes A_j, in one complex N x N system per detuning delta
(phase phi_j = (j-1)*Theta(delta), amplitude coupling v = sqrt(rate)):

    M_jj = -delta - (i/2)(gamma_j + gamma_dr,j + gamma_dl,j + gamma_ur,j + gamma_ul,j)
    M_jk = -i (v_dr,j v_dr,k + v_ur,j v_ur,k) e^{+i(phi_j - phi_k)}   k < j
    M_jk = -i (v_dl,j v_dl,k + v_ul,j v_ul,k) e^{-i(phi_j - phi_k)}   k > j
    M += J (dipole-dipole coupling),    M A = -v_dr e^{i phi}

Rightward channels couple each emitter to those before it, leftward channels
to those after it.  The field amplitudes in each segment follow by
cumulative sums:

    t_j  = 1 - i sum_{k<=j} v_dr,k e^{-i phi_k} A_k
    tt_j =   - i sum_{k<=j} v_ur,k e^{-i phi_k} A_k
    r_j  =   - i sum_{k>=j} v_dl,k e^{+i phi_k} A_k
    rt_j =   - i sum_{k>=j} v_ul,k e^{+i phi_k} A_k

so a chiral chain (v_dl = v_ul = 0) has exactly zero backflow.  Only the
output ports are returned: t_N, tt_N, r_1 and rt_1.

M splits into its diagonal and the coupling block C (the off-diagonal
waveguide couplings with their phases, plus J; C_jj = 0).  What does not
depend on delta is built once per chain, from its validated config and
couplings, as a ``_Chains`` kept for every solve of it (a scan, each
peak-refinement probe): the rates and, at carrier phases, C and its
absolute row sums; with delta-dependent phases C is built once per stack,
from the step phases each chain's config gives that stack's detunings.
Stacks bound their memory: at most ``STACK_ELEMENTS`` elements of the LU's
(P, N, N) matrices, or a quarter as many per array of the modal solver's
(P, N) ones, about ten of which it holds at once.  Each point's backward
error takes ||M||_inf = max_j (sum_k |C_jk| + |M_jj|), O(N) per point.
One check per stack accepts each point, solved and flux-balanced, or
raises the SolverError of the first that fails, in input order.

Two solvers fill the stacks.  The LU copies C into each point's matrix,
writes its diagonal and factorises it: O(N^3) per point.  The modal solver
uses M(delta) = M0 - delta I at carrier phases, M0 = C - diag(i Gamma/2):
one eigendecomposition M0 = V Lambda V^-1 per chain (the chain's collective
modes), made by its first modal solve and kept, and w = V^-1 b, then
A = V (w / (lambda - delta)) per point, O(N^2), with the backward error
taken from |M0 A - delta A - b|.  ``scan`` and ``sweep_separation`` use the
modes at carrier phases; the LU re-solves

- every point of a chain whose decomposition or V^-1 b raises LinAlgError
  or is not finite (identical emitters without DDI form one Jordan block);
- every point within ``RESIDUAL_LIMIT`` * ||M(delta)||_inf of a mode, where
  the modes would return a finite answer to a singular system;
- every point whose modal result the check rejects,

and the LU's verdict stands.  Delta-dependent phases, where M is no shift
of one matrix, ``solve_spectrum_point_batch``, ``solve_transport`` and the
peak-refinement probes use the LU alone.  Probes solved from the scan's
kept modes differ from the LU in the last bits, which flips golden-section
comparisons and moves refined maxima: the N = 1..30 scaling benchmark's
seed-0 gate then failed (deviation 6.654e-09, bound 1e-10).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .ddi import DdiMatrix
from .params import POLE_REGULARIZATION, SystemConfig

#: Accepted solves must have a backward error below this bound.
RESIDUAL_LIMIT = 1e-10

#: Accepted points must have loss >= -FLUX_TOLERANCE.  The worst loss of
#: lossless chains solved at and near their collective modes was -5.1e-8
#: (N = 100 symmetric); validated up to N = 100 only.
FLUX_TOLERANCE = 1e-5

#: Accepted points must have |loss - sum_j gamma_j |A_j|^2| <= FLUX_IDENTITY_LIMIT * s,
#: s = 1 + sum_j Gamma_j |A_j|^2 with Gamma_j the emitter's total rate.  The
#: worst measured was 1.2e-14 * s (N = 100 symmetric lossless, at its
#: collective modes); validated up to N = 100 only.
FLUX_IDENTITY_LIMIT = 1e-10

#: Complex elements per stacked N x N solve; bounds a batch's memory.
STACK_ELEMENTS = 2**14

INTENSITY_KEYS = ("T", "R", "Tt", "Rt", "loss")

_CHANNELS = ("gamma_dr", "gamma_dl", "gamma_ur", "gamma_ul")


class SolverError(RuntimeError):
    """Raised for a detuning whose transport system is singular
    (condition inf), near-singular (backward error above ``RESIDUAL_LIMIT``;
    condition from ``np.linalg.cond``), solves to non-finite amplitudes or
    intensities, has a matrix norm beyond the float range, or violates the
    flux balance (loss below ``-FLUX_TOLERANCE``, or not the power the
    emitters radiate, sum_j gamma_j |A_j|^2, to ``FLUX_IDENTITY_LIMIT``); no
    condition estimate for the last three.  Carries ``delta`` and
    ``condition``."""

    def __init__(self, message: str, delta: float, condition: float | None = None):
        self.delta = delta
        self.condition = condition
        detail = f"{message} at delta={delta:+.6g}"
        if condition is not None:
            detail += f" (condition estimate {condition:.3e})"
        super().__init__(detail)


def port_intensities(t, r, tt, rt) -> dict:
    """T, R, Tt, Rt = |t|^2, |r|^2, |tt|^2, |rt|^2 at the output ports and
    loss = 1 - T - R - Tt - Rt, the probability leaked to non-guided modes.
    Works element-wise on arrays of amplitudes."""
    power = [abs(amplitude) ** 2 for amplitude in (t, r, tt, rt)]
    loss = 1.0 - power[0] - power[1] - power[2] - power[3]
    return dict(zip(INTENSITY_KEYS, (*power, loss)))


@dataclass(frozen=True)
class TransportSolution:
    """Emitter amplitudes ``a``, the amplitudes at the four output ports
    (``t`` and ``r`` of the lower waveguide, ``tt`` and ``rt`` of the upper),
    port intensities (see ``port_intensities``) and the backward error of
    the reduced solve.

    From ``solve_spectrum_point_batch`` ``a`` has shape (P, N) and every
    other array (P,); ``solve_transport`` returns one point: ``a`` of shape
    (N,), a float ``delta`` and scalars elsewhere.
    """

    delta: np.ndarray
    a: np.ndarray
    t: np.ndarray
    r: np.ndarray
    tt: np.ndarray
    rt: np.ndarray
    intensities: dict[str, np.ndarray]
    residual: np.ndarray


def solve_spectrum_point_batch(
    config: SystemConfig, ddi: DdiMatrix, deltas: Sequence[float] | np.ndarray
) -> TransportSolution:
    """Solve every detuning of a 1-D list, in input order, by LU.

    Detunings are stacked into direct solves of at most ``STACK_ELEMENTS``
    matrix elements each; a singular stack is re-solved point by point.
    Raises the SolverError of the first failing detuning in input order,
    named by the first check it fails: singular, non-finite solution, matrix
    norm beyond the float range, backward error above ``RESIDUAL_LIMIT``,
    non-finite intensities, flux balance (see ``SolverError``).
    """
    return _solve_chains(_chain(config, ddi), deltas, modal=False)


class _Chains:
    """The delta-independent parts of C chains, given by their validated
    ``configs``, which share N and rates, and their couplings J (C, N, N):
    a separation sweep's spacings, or one spectrum's chain.  Built once,
    solved by ``_solve_chains`` over any number of detuning lists.  At
    carrier phases it also holds each chain's phases (from its config's
    theta), C and row sums, and its ``modes`` once a modal solve asks for
    them."""

    @np.errstate(over="ignore", invalid="ignore")  # out-of-range values fail their point
    def __init__(self, configs: Sequence[SystemConfig], couplings: np.ndarray):
        config = configs[0]
        self.configs, self.n, self.couplings = configs, config.n_emitters, couplings
        self.carrier = not config.delta_dependent_phases
        gamma = config.rate_profile("gamma")
        if config.regularize:
            gamma = gamma + POLE_REGULARIZATION
        rates = np.array([config.rate_profile(name) for name in _CHANNELS])
        self.v_dr, self.v_dl, self.v_ur, self.v_ul = v_dr, v_dl, v_ur, v_ul = np.sqrt(rates)
        self.rightward = np.tril(np.outer(v_dr, v_dr) + np.outer(v_ur, v_ur), -1)
        self.leftward = np.triu(np.outer(v_dl, v_dl) + np.outer(v_ul, v_ul), 1)
        self.gamma, self.total = gamma, gamma + rates.sum(axis=0)
        self.width = 0.5j * self.total
        if self.carrier:
            steps = np.array([chain.theta for chain in configs])
            self.phases, self.block, self.row_sums = self.coupling(steps, couplings)

    def coupling(self, steps: np.ndarray, exchange: np.ndarray) -> tuple[np.ndarray, ...]:
        """Phases e^{i phi_j} (K, N) for step phases (K,), the coupling block
        C (K, N, N) with exchange J, and C's absolute row sums (K, N)."""
        phases = np.exp(1j * np.outer(steps, np.arange(self.n)))
        # In place: two (K, N, N) allocations per call, not seven.
        block = phases[:, :, None] * phases.conj()[:, None, :]
        leftward = block.conj()
        block *= self.rightward
        leftward *= self.leftward
        block += leftward
        block *= -1j
        block += exchange
        return phases, block, np.abs(block).sum(axis=2)  # C_jj = 0: the off-diagonal sums

    @cached_property
    def modes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Each chain's lambda, V, w = V^-1 b (see ``_modes``) and M0, kept."""
        m0 = self.block.copy()
        m0[:, np.arange(self.n), np.arange(self.n)] = -self.width
        return (*_modes(m0, -(self.v_dr * self.phases)), m0)


def _chain(config: SystemConfig, ddi: DdiMatrix) -> _Chains:
    """A spectrum's one chain, for all of its solves."""
    if ddi.n != config.n_emitters:
        raise ValueError(f"coupling matrix is {ddi.n}x{ddi.n} for {config.n_emitters} emitters")
    return _Chains([config], ddi.values[None])


def _per_point(values: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """Per-chain ``values`` at each point of a stack, given each point's chain:
    a view of that chain's entry when the stack lies in one chain."""
    return values[chain[0]] if chain[0] == chain[-1] else values.take(chain, axis=0)


def _modes(m0: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each chain's eigenvalues lambda (C, N), eigenvectors V (C, N, N) and
    w = V^-1 b (C, N), for M0 (C, N, N) and b (C, N).  A chain whose
    decomposition raises LinAlgError or is not finite gets NaN, so every one
    of its points fails the modal check and goes to the LU."""
    try:
        lam, vecs = np.linalg.eig(m0)
        w = np.linalg.solve(vecs, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(m0) == 1:
            nan = np.full_like(m0, np.nan)
            return nan[:, 0], nan, nan[:, 0]
        parts = [_modes(m0[c : c + 1], rhs[c : c + 1]) for c in range(len(m0))]
        return tuple(np.concatenate(part) for part in zip(*parts))
    finite = np.isfinite(lam).all(1) & np.isfinite(vecs).all((1, 2)) & np.isfinite(w).all(1)
    lam[~finite], vecs[~finite], w[~finite] = np.nan, np.nan, np.nan
    return lam, vecs, w


@np.errstate(over="ignore", invalid="ignore")  # out-of-range values fail their point
def _solve_chains(
    chains: _Chains, deltas: Sequence[float] | np.ndarray, modal: bool
) -> TransportSolution:
    """The solver core: every chain of ``chains`` over one detuning list (P,).

    Points run chain-major, point c * P + p being chain c at ``deltas[p]``,
    and fail as in ``solve_spectrum_point_batch``, over that order; with
    delta-dependent phases each point takes its chain config's step phase
    at its detuning.  ``modal`` solves carrier-phase points from the chains'
    modes first.
    """
    n, v_dr, v_dl, v_ur, v_ul = chains.n, chains.v_dr, chains.v_dl, chains.v_ur, chains.v_ul
    deltas = np.asarray(deltas, dtype=float)
    flat = np.tile(deltas, len(chains.couplings))
    chain_of = np.arange(len(chains.couplings)).repeat(deltas.size)
    diagonal = np.arange(n)
    if not chains.carrier:  # chain-major, as the points run
        steps = np.concatenate([config.step_phase(deltas) for config in chains.configs])
    if modal := modal and chains.carrier:
        lam, vecs, w, m0 = chains.modes

    a = np.empty((flat.size, n), dtype=complex)
    t, r, tt, rt = np.empty((4, flat.size), dtype=complex)
    residual = np.empty(flat.size)
    power = np.empty((len(INTENSITY_KEYS), flat.size))  # one row per intensity

    def record(points, x, defect, norm, rhs_max, phases):
        """Store the points' amplitudes, output ports, intensities and
        backward error; return which are solved (backward error at most
        ``RESIDUAL_LIMIT``, finite norm) and which flux-balanced."""
        # Normwise backward error; a zero scale means b = 0 and x = 0, so the
        # defect itself is the residual.  An inf norm bounds nothing: it fails.
        scale = norm * np.abs(x).max(axis=1) + rhs_max
        residual[points] = np.divide(defect, scale, out=defect, where=scale > 0.0)
        a[points] = x
        forward = phases.conj() * x
        backward = phases * x
        # cumsum's last column, not np.sum: the same additions, so the same bits.
        t[points] = 1.0 - 1j * np.cumsum(v_dr * forward, axis=1)[:, -1]
        tt[points] = -1j * np.cumsum(v_ur * forward, axis=1)[:, -1]
        r[points] = -1j * np.cumsum((v_dl * backward)[:, ::-1], axis=1)[:, -1]
        rt[points] = -1j * np.cumsum((v_ul * backward)[:, ::-1], axis=1)[:, -1]
        ports = port_intensities(t[points], r[points], tt[points], rt[points])
        power[:, points] = list(ports.values())
        # Flux balance: loss >= -tol (which also fails a NaN or -inf loss),
        # and loss is the power the emitters radiate, to within a finite bound.
        loss = power[-1, points]
        weight = np.abs(x) ** 2
        bound = FLUX_IDENTITY_LIMIT * (1.0 + weight @ chains.total)
        identity = (np.abs(loss - weight @ chains.gamma) <= bound) & np.isfinite(bound)
        balanced = (loss >= -FLUX_TOLERANCE) & identity
        return (residual[points] <= RESIDUAL_LIMIT) & np.isfinite(norm), balanced

    lu_size = max(1, STACK_ELEMENTS // n**2)
    size = max(1, STACK_ELEMENTS // (4 * n)) if modal else lu_size
    for start in range(0, flat.size, size):
        stack = slice(start, start + size)
        chain = chain_of[stack]
        if chains.carrier:
            phases, sums = _per_point(chains.phases, chain), _per_point(chains.row_sums, chain)
        else:
            exchange = _per_point(chains.couplings, chain)
            phases, block, sums = chains.coupling(steps[stack], exchange)
        on_diagonal = -flat[stack, None] - chains.width
        # ||M||_inf = max_j (sum_k |C_jk| + |M_jj|), O(N) per point.
        norm = (sums + np.abs(on_diagonal)).max(axis=1)

        lu = np.arange(len(on_diagonal))  # by place in the stack, the points the LU solves
        if modal:
            # A = V (w / (lambda - delta)), one (N, N) @ (N, 1) product per
            # point, so a point's bits depend on its detuning and chain only.
            detuning = flat[stack, None]
            gap = _per_point(lam, chain) - detuning
            with np.errstate(divide="ignore"):  # at a mode: inf, which fails the point
                y = _per_point(w, chain) / gap
            x = (_per_point(vecs, chain) @ y[..., None])[..., 0]
            rhs = -(v_dr * phases)
            mx = (_per_point(m0, chain) @ x[..., None])[..., 0]
            defect = np.abs(mx - detuning * x - rhs).max(axis=1)
            solved, balanced = record(stack, x, defect, norm, np.abs(rhs).max(axis=-1), phases)
            near = (np.abs(gap) <= RESIDUAL_LIMIT * norm[:, None]).any(axis=1)
            lu = np.flatnonzero(near | ~(solved & balanced))

        for part in range(0, lu.size, lu_size):  # LU stacks of at most lu_size points
            k = lu[part : part + lu_size]
            # Without carrier phases k is the whole stack, and C is its own.
            matrices = chains.block.take(chain[k], axis=0) if chains.carrier else block
            lu_phases = phases if phases.ndim == 1 else phases[k]
            matrices[:, diagonal, diagonal] = on_diagonal[k]
            rhs = np.broadcast_to(-(v_dr * lu_phases)[..., None], (len(matrices), n, 1))
            singular = None
            try:
                x = np.linalg.solve(matrices, rhs)
            except np.linalg.LinAlgError:
                # Re-solve point by point up to the first singular system; the
                # points after it stay NaN and so fail after it.
                x = np.full_like(rhs, np.nan)
                for i in range(len(x)):
                    try:
                        x[i] = np.linalg.solve(matrices[i], rhs[i])
                    except np.linalg.LinAlgError:
                        singular = i
                        break
            defect = np.abs(matrices @ x - rhs).max(axis=(1, 2))
            accepted, balanced = record(
                start + k, x[..., 0], defect, norm[k], np.abs(rhs).max(axis=(1, 2)), lu_phases
            )
            # The one acceptance check: the LU's verdict stands.
            failed = np.flatnonzero(~(accepted & balanced))
            if failed.size:
                i = failed[0]
                delta, loss = float(flat[start + k[i]]), power[-1, start + k[i]]
                if i == singular:
                    raise SolverError("singular transport system", delta, np.inf)
                if not np.isfinite(x[i]).all():
                    raise SolverError("non-finite solution of the transport system", delta)
                if not np.isfinite(norm[k[i]]):
                    raise SolverError("transport system beyond the float range", delta)
                if not accepted[i]:
                    raise SolverError(
                        "near-singular transport system", delta, np.linalg.cond(matrices[i])
                    )
                if not np.isfinite(loss):  # as soon as one intensity is
                    raise SolverError("non-finite solution of the transport system", delta)
                raise SolverError(f"flux balance violated (loss {loss:.3g})", delta)

    intensities = dict(zip(INTENSITY_KEYS, power))
    return TransportSolution(flat, a, t, r, tt, rt, intensities, residual)


def solve_transport(
    config: SystemConfig, ddi: DdiMatrix, delta: float
) -> TransportSolution:
    """Point 0 of a one-point ``solve_spectrum_point_batch``.

    Raises SolverError at (or numerically indistinguishable from) the
    isolated real poles a lossless chain can develop, like every solve;
    scans are expected to step around them or request regularization.
    """
    batch = solve_spectrum_point_batch(config, ddi, [delta])
    return TransportSolution(
        float(batch.delta[0]), batch.a[0], batch.t[0], batch.r[0], batch.tt[0],
        batch.rt[0], {key: float(value[0]) for key, value in batch.intensities.items()},
        float(batch.residual[0]),
    )
