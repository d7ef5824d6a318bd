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

M splits into its diagonal and the coupling block C = D (-i G_r) D* +
D* (-i G_l) D + J, with D = diag(e^{i phi_j}) and G_r, G_l the guided
couplings above (C_jj = 0).  What does not depend on delta is built once
per chain, from its validated config and couplings, as a ``_Chains`` kept
for every solve of it (a scan, each probe of its peak refinement, which
reuses the chain that the scan's result keeps): the rates,
-i G_r, -i G_l and, once a solve needs them, M0 = C - diag(i Gamma/2) and
C's absolute row sums at the carrier step phase theta, and the modes.
Stacks bound their memory: a quarter of ``STACK_ELEMENTS`` elements per
(P, N) array, about ten of which a stack holds at once, and the LU solves
its points in LU stacks of at most ``STACK_ELEMENTS`` matrix elements.
Each point's backward error takes ||M||_inf = max_j (sum_k |C_jk| + |M_jj|):
at carrier phases the max over the G distinct total rates Gamma_g of the
largest row sum among their emitters plus |delta + i Gamma_g / 2|, O(G) per
point and bit for bit the max over j, as correctly rounded addition is
monotone (``_carrier_norm``); at delta-dependent phases O(N).  One check
per stack (the modal points', then the LU's, after all its LU stacks)
accepts each point, solved and flux-balanced, or raises the SolverError
of the first that fails, in input order.

Two solvers fill the stacks.  The LU writes each point's M(delta) into one
buffer that each chain keeps (M0 copied at carrier phases, or C built at
the point's own phases, then the diagonal) and factorises it: O(N^3) per
point.  The modal solver starts from the carrier M0: one eigendecomposition
M0 = V Lambda V^-1 per chain (the chain's collective modes), V^-1 and
w = V^-1 b at the carrier phases from one solve of V against [I | b], made
by its first modal solve and kept.  A chain that is its own mirror image
j -> N-1-j (leftward rates the rightward ones reversed, total rates and J
unchanged by the reversal: every uniform symmetric chain) has an M0 that
commutes with the reversal, whose modes are even or odd under it.  It is
decomposed as two chains of about N/2, one eig and one solve against
[I | b] per parity, b split by parity (Cantoni and Butler, Linear Algebra
Appl. 13 (1976) 275; see ``_parity_modes``): about a third of the full
eig's time at N = 100 to 1000.  The symmetry is read exactly off the
inputs, not off M0, which its rounded phases make centrosymmetric only to
rounding (131 eps max|M0| at N = 300); every modal point is still checked
against M0 itself, or its own M(delta).  At carrier phases
M(delta) = M0 - delta I, so each point is A = V (w / (lambda - delta)),
O(N^2), its backward error taken from |M0 A - delta A - b|.  With
delta-dependent phases each point applies
M(delta) x = D (-i G_r) (D* x) + D* (-i G_l) (D x) + J x + diag(M_jj) x at
its own phases, the LU's matrix unformed.  Its modal steps take the step
phase's drift Delta = s(delta) - theta to first order,
M(delta) ~ V (Lambda - delta + Delta B1) V^-1, with B1 = V^-1 (dM0/dtheta) V
kept per chain (``_Chains.slope``): A starts from one step on b, and
refinement sweeps of the same step correct it (see ``_swept``), O(N^2)
each; every point of the reference N = 100 chain converges after one.
Every modal product by an (N, N) matrix, at either phase model, is a
row-major GEMM, over the stack for -i G_r and -i G_l and over each
chain's points in it for M0, J, V, V^-1 and B1, whose rows keep each
point's bits its own (see ``_rows``); the LU's defect takes one product per
point, as each LU point has its own matrix.  A point's ||M||_inf is taken
from below, so its backward error is bounded from above.  ``scan`` and
``sweep_separation`` use the modes; the LU re-solves

- every point of a chain whose decomposition or V^-1 raises LinAlgError or
  is not finite (identical emitters without DDI form one Jordan block);
- every point within ``RESIDUAL_LIMIT`` * ||M(delta)||_inf of a mode, where
  the modes would return a finite answer to a singular system (tested over
  the modes that lie that close to the real axis only, ``_near``);
- every delta-dependent point whose sweeps stop above N eps;
- every point whose modal result the check rejects,

and the LU's verdict stands.  ``solve_spectrum_point_batch`` uses the LU
alone, and never builds the modes.  The LU solves each point on its own,
so a point's bits do not depend on the other points of its call.
Peak refinement probes carrier-phase chains from the modes too.  Modal
intensities differ from the LU's in the last bits, and unchecked, that
flips golden-section comparisons and moves refined maxima: the N = 1..30
scaling benchmark's seed-0 gate then failed (deviation 6.654e-09, bound
1e-10).  So each modal intensity I carries a bound on |I - I_LU|, from
the adjoint estimate and sensitivity of ``_intensity_errors`` and
``MODAL_ERROR_FLOOR``: refinement takes a comparison from the modes only
where the gap exceeds the two bounds, and has the LU re-solve the points
of every other, and every row it returns.  The estimate takes no product
by M0 of its own: it reads the defect rows M0 A - delta A - b that the
modal check of the same solve formed, which a carrier-phase modal solve
asked for them keeps (``TransportSolution._defect``; at a point the LU
re-solved, the rows of the LU's amplitudes, by one product per LU point),
and c_k^T V, built once per chain (``_Chains.ports``).  Scans and sweeps
do not ask: their checks write the rows into one stack's buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .ddi import DdiMatrix, _toeplitz
from .params import ConfigError, SystemConfig, memory_errors

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

#: |I + e - I_LU| <= MODAL_ERROR_FLOOR * (1 + s) for a modal intensity I, its
#: estimate e and sensitivity s (``_intensity_errors``) and the LU's I_LU,
#: so peak refinement bounds |I - I_LU| by |e| + MODAL_ERROR_FLOOR * (1 + s).
#: The worst measured was 1.4e-16 * (1 + s) (N = 300 symmetric lossless),
#: over every peak-refinement probe, each solved from the modes, of the
#: four benchmark workloads at seeds 0 and 3, scripts/reproduce.py and the
#: reference chiral and symmetric N = 100 and 300 spectra, lossy and
#: lossless; validated up to N = 300 only.  Without s it would have had to
#: cover 6.0e-10, the LU's own error near the narrow modes of lossless chains.
MODAL_ERROR_FLOOR = 2e-15

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
    return dict(zip(INTENSITY_KEYS, _powers(np.array(np.broadcast_arrays(t, r, tt, rt)))))


def _powers(ports: np.ndarray) -> np.ndarray:
    """The intensities (5, ...) of ``port_intensities`` in ``INTENSITY_KEYS``
    order, for port amplitudes (4, ...) stacked as t, r, tt, rt."""
    power = np.empty((len(INTENSITY_KEYS), *ports.shape[1:]))
    np.square(np.abs(ports), out=power[:4])
    power[4] = 1.0 - power[0] - power[1] - power[2] - power[3]
    return power


@dataclass(frozen=True)
class TransportSolution:
    """Emitter amplitudes ``a``, the amplitudes at the four output ports
    (``t`` and ``r`` of the lower waveguide, ``tt`` and ``rt`` of the upper),
    port intensities (see ``port_intensities``) and the backward error of
    the reduced solve: that of the matrix the solver forms from its rounded
    phases e^{i j s}, not of the exact M(delta), which it does not bound at
    the rounding level.

    ``a`` has shape (P, N) and every other array (P,), over the detunings
    ``delta``.  ``source`` is the caller's own (config, ddi) that ``scan`` or
    ``solve_spectrum_point_batch`` solved, for ``find_peaks`` to refine
    from, and None on a result built otherwise; ``_solved`` keeps that
    source with the ``_Chains`` built from it, which the refinement reuses,
    its decomposition too, while ``source`` is still that source.
    ``_defect`` holds each point's defect rows M0 A - delta A - b (P, N) of
    a carrier-phase solve from the modes that asked for them, for
    ``_intensity_errors``, and is None otherwise.
    """

    delta: np.ndarray
    a: np.ndarray
    t: np.ndarray
    r: np.ndarray
    tt: np.ndarray
    rt: np.ndarray
    intensities: dict[str, np.ndarray]
    residual: np.ndarray
    source: tuple[SystemConfig, DdiMatrix] | None = None
    _solved: tuple | None = field(default=None, repr=False, compare=False)
    _defect: np.ndarray | None = field(default=None, repr=False, compare=False)

    def table(self) -> np.ndarray:
        """Rows (P, 6) of the detuning and then the intensities in
        ``INTENSITY_KEYS`` order: the spectrum CSV's columns."""
        return np.column_stack([self.delta, *(self.intensities[key] for key in INTENSITY_KEYS)])


def solve_spectrum_point_batch(
    config: SystemConfig, ddi: DdiMatrix, deltas: Sequence[float] | np.ndarray
) -> TransportSolution:
    """Solve every detuning of a 1-D list, in input order, by LU, recording
    ``config`` and ``ddi`` as the result's ``source``.

    Detunings are stacked into direct solves of at most ``STACK_ELEMENTS``
    matrix elements each; a singular stack is re-solved point by point.
    Raises the SolverError of the first failing detuning in input order,
    named by the first check it fails: singular, non-finite solution, matrix
    norm beyond the float range, backward error above ``RESIDUAL_LIMIT``,
    non-finite intensities, flux balance (see ``SolverError``); a list whose
    amplitudes exceed ``params.ELEMENT_LIMIT`` is a ConfigError, before any.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim > 1:
        raise ValueError(f"detunings must be a 1-D list, got shape {deltas.shape}")
    return _recorded(config, ddi, deltas, modal=False)


class _Chains:
    """The delta-independent parts of C chains, given by their validated
    ``configs``, which share N and rates, and their couplings J (C, N, N):
    a separation sweep's spacings, or one spectrum's chain.  Built once,
    solved by ``_solve_chains`` over any number of detuning lists.  The
    ``carrier`` M0 and its ``rate_sums``, the ``modes``, what only the sweeps
    read (``exchange``, ``spread`` and the ``slope`` B1, (C, N, N) as V is:
    16 MB a chain at N = 1000) and the ``buffer`` that every LU system is
    written into are built when a solve first needs them, so the LU of
    delta-dependent phases builds only the buffer."""

    @np.errstate(over="ignore", invalid="ignore")  # out-of-range values fail their point
    def __init__(self, configs: Sequence[SystemConfig], couplings: np.ndarray):
        config = configs[0]
        self.configs, self.n, self.couplings = configs, config.n_emitters, couplings
        self.drifts = config.delta_dependent_phases
        gamma = config.rate_profile("gamma")
        rates = np.array([config.rate_profile(name) for name in _CHANNELS])
        self.v_dr, self.v_dl, self.v_ur, self.v_ul = v_dr, v_dl, v_ur, v_ul = np.sqrt(rates)
        self.rightward = -1j * np.tril(np.outer(v_dr, v_dr) + np.outer(v_ur, v_ur), -1)
        self.leftward = -1j * np.triu(np.outer(v_dl, v_dl) + np.outer(v_ul, v_ul), 1)
        self.gamma, self.total = gamma, gamma + rates.sum(axis=0)
        self.width = 0.5j * self.total
        self.theta = np.array([chain.theta for chain in configs])

    def phases(self, steps: np.ndarray) -> np.ndarray:
        """Phases e^{i phi_j} (K, N) for step phases (K,)."""
        return np.exp(1j * np.outer(steps, np.arange(self.n)))

    def coupling(
        self, phases: np.ndarray, exchange: np.ndarray, out=None
    ) -> tuple[np.ndarray, ...]:
        """The coupling block C (K, N, N) at phases e^{i phi_j} (K, N) with exchange
        J, written into ``out`` if given, and C's absolute row sums (K, N)."""
        block = np.multiply(phases[:, :, None], phases.conj()[:, None, :], out=out)
        leftward = block.conj()
        block *= self.rightward
        leftward *= self.leftward
        block += leftward
        block += exchange
        return block, np.abs(block).sum(axis=2)  # C_jj = 0: the off-diagonal sums

    @cached_property
    def carrier(self) -> tuple[np.ndarray, ...]:
        """``coupling`` at each chain's carrier theta, with C made M0 in place."""
        m0, sums = self.coupling(phases := self.phases(self.theta), self.couplings)
        m0[:, np.arange(self.n), np.arange(self.n)] = -self.width
        return phases, m0, sums

    @cached_property
    def rate_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct diagonal widths i Gamma_g / 2 (G,) of the emitters'
        total rates, and each chain's largest carrier row sum among the
        emitters of each (C, G), NaN if one of theirs is: what
        ``_carrier_norm`` takes ||M||_inf from."""
        _, first, group = np.unique(self.total, return_index=True, return_inverse=True)
        maxima = np.full((first.size, len(self.couplings)), -np.inf)
        np.maximum.at(maxima, group, self.carrier[2].T)  # maximum propagates NaN
        return self.width[first], np.ascontiguousarray(maxima.T)

    @cached_property
    def modes(self) -> tuple[np.ndarray, ...]:
        """Each chain's lambda, V, V^-1 and w = V^-1 b (C, N) at its carrier
        phases (see ``_modes``) of the carrier M0, split by parity when the
        chains are ``mirrored``."""
        phases, m0, _ = self.carrier
        return _modes(m0, -(self.v_dr * phases), self.mirrored)

    @cached_property
    def ports(self) -> np.ndarray:
        """c_k^T V (5, N) of the one chain, for each port amplitude
        p = p0 + c_k^T A in ``INTENSITY_KEYS`` order, the loss's row NaN."""
        (phases,), (vecs,) = self.carrier[0], self.modes[1]
        forward, backward = -1j * phases.conj(), -1j * phases
        return np.array([self.v_dr * forward, self.v_dl * backward, self.v_ur * forward,
                         self.v_ul * backward, np.full(self.n, np.nan)]) @ vecs

    @property
    def mirrored(self) -> bool:
        """Whether the chains, of more than one emitter, are each their own
        mirror image j -> N-1-j, read exactly off their inputs: leftward
        rates the rightward ones reversed, total rates and each J unchanged
        by the reversal.  M0 then commutes with the reversal but for its
        rounded phases, and ``_parity_modes`` splits it by parity."""
        same = [(self.v_dl, self.v_dr[::-1]), (self.v_ul, self.v_ur[::-1]),
                (self.total, self.total[::-1]), (self.couplings, self.couplings[:, ::-1, ::-1])]
        return self.n > 1 and all(np.array_equal(a, b) for a, b in same)

    @cached_property
    def buffer(self) -> np.ndarray:
        """The matrices of one LU stack, all rewritten by every LU stack before
        it solves, and by a near-singular point's diagnosis before it raises."""
        return np.empty((_lu_points(self.n), self.n, self.n), dtype=complex)

    @cached_property
    def exchange(self) -> np.ndarray:
        """J as complex, for the products of ``_swept``."""
        return self.couplings.astype(complex)

    @cached_property
    def spread(self) -> np.ndarray:
        """sum_k G_jk |j - k| (N,) of the guided couplings G = G_r + G_l."""
        return (abs(self.rightward + self.leftward) * _toeplitz(np.arange(self.n))).sum(axis=1)

    @cached_property
    def slope(self) -> np.ndarray:
        """B1 = V^-1 M1 V (C, N, N), for ``_swept``: M1 = dM0/dtheta, M0's first
        order in the step phase, is i (j - k) (C_r - C_l)_jk with C_r =
        D (-i G_r) D* and C_l = D* (-i G_l) D at the carrier.  NaN wherever
        the modes are."""
        phases, (vecs, inverse) = self.carrier[0], self.modes[1:3]
        turns = phases[:, :, None] * phases.conj()[:, None, :]  # e^{i (phi_j - phi_k)}
        m1 = turns * self.rightward
        m1 -= turns.conj() * self.leftward
        m1 *= 1j * np.subtract.outer(np.arange(self.n), np.arange(self.n))
        return inverse @ m1 @ vecs


def _chain(config: SystemConfig, ddi: DdiMatrix) -> _Chains:
    """A spectrum's one chain, for all of its solves."""
    if ddi.n != config.n_emitters:
        raise ValueError(f"coupling matrix is {ddi.n}x{ddi.n} for {config.n_emitters} emitters")
    return _Chains([config], ddi.values[None])


def _recorded(config: SystemConfig, ddi: DdiMatrix, deltas: np.ndarray, modal: bool):
    """The TransportSolution of ``_solve_chains`` on the spectrum's chain,
    recording its ``source`` and, in ``_solved``, the source with the chain.
    Detunings whose amplitudes exceed ``ELEMENT_LIMIT`` are a ConfigError,
    raised before any solve (``memory_errors``)."""
    if errors := memory_errors(deltas.size, config.n_emitters):
        raise ConfigError(errors)
    source, chains = (config, ddi), _chain(config, ddi)
    result = _solve_chains(chains, deltas, modal)
    return replace(result, source=source, _solved=(source, chains))


def _stack_points(n: int) -> int:
    """Points of one stack: a quarter of ``STACK_ELEMENTS`` elements per (P, N) array."""
    return max(1, STACK_ELEMENTS // (4 * n))


def _lu_points(n: int) -> int:
    """Points of one LU stack: at most ``STACK_ELEMENTS`` matrix elements."""
    return max(1, STACK_ELEMENTS // n**2)


def _per_point(values: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """Per-chain ``values`` at each point of a stack, given each point's chain:
    a view of that chain's entry when the stack lies in one chain."""
    return values[chain[0]] if chain[0] == chain[-1] else values.take(chain, axis=0)


def _decomposed(blocks: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, ...]:
    """lambda, V, V^-1 and w = V^-1 b of each of ``blocks``, for its ``rhs``
    b: one eig, one solve of V against [I | b]."""
    lam, vecs = np.linalg.eig(blocks)
    n = blocks.shape[-1]
    identity = np.broadcast_to(np.eye(n), blocks.shape)
    solved = np.linalg.solve(vecs, np.concatenate([identity, rhs[..., None]], axis=-1))
    return lam, vecs, solved[..., :n], solved[..., n]


def _parity_modes(m0: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, ...]:
    """``_modes`` of mirror-symmetric chains, M0 (C, N, N), from two blocks
    of its first H = N - K rows, K = N // 2, with A its top-left (K, K)
    block and B J its top-right one, columns reversed (J the reversal): the
    even modes [u; m; J u] of the (H, H) block A + B J, bordered at odd N
    by M0's middle column and twice its middle row, and the odd modes
    [u; 0; -J u] of A - B J.  V^-1 is the blocks' own, halved but for the
    even block's middle column, and mirrored.  So w = V^-1 b is each
    block's solve against b's parts: the halved sums b_j + b_{N-1-j}, and
    at odd N the middle b, for the even block; the halved differences for
    the odd one.  Each block takes its own eig and solve
    (``_decomposed``).  M0's last K rows are never read."""
    c, n = m0.shape[:2]
    k, h = n // 2, n - n // 2
    top, across = m0[:, :k, :k], m0[:, :k, ::-1][:, :, :k]
    even = np.empty((c, h, h), dtype=complex)
    even[:, :k, :k] = top + across
    even[:, :, k:], even[:, k:, :k] = m0[:, :h, k:h], 2.0 * m0[:, k:h, :k]  # odd N: the border
    mirror = rhs[:, ::-1][:, :k]
    rhs_e = np.concatenate([0.5 * (rhs[:, :k] + mirror), rhs[:, k:h]], axis=1)
    rhs_o = 0.5 * (rhs[:, :k] - mirror)
    halves = zip(_decomposed(even, rhs_e), _decomposed(top - across, rhs_o))
    (lam_e, lam_o), (u_e, u_o), (inv_e, inv_o), (w_e, w_o) = halves
    vecs, inverse = np.zeros((2, c, n, n), dtype=complex)
    vecs[:, :h, :h], vecs[:, :k, h:] = u_e, u_o
    inverse[:, :h, :h], inverse[:, h:, :k] = inv_e, inv_o
    inverse[:, :, :k] *= 0.5
    parity = np.repeat([1.0, -1.0], [h, k])  # of the even, then the odd modes
    vecs[:, h:] = parity * vecs[:, k - 1 :: -1]  # the last K rows mirror the first K
    inverse[:, :, h:] = parity[:, None] * inverse[:, :, k - 1 :: -1]  # and columns
    return np.concatenate([lam_e, lam_o], axis=1), vecs, inverse, np.concatenate([w_e, w_o], axis=1)


def _modes(m0: np.ndarray, rhs: np.ndarray, mirrored: bool = False) -> tuple[np.ndarray, ...]:
    """Each chain's eigenvalues lambda (C, N), eigenvectors V (C, N, N),
    V^-1 (C, N, N) and w = V^-1 b (C, N), for M0 (C, N, N) and ``rhs`` b
    (C, N): of M0 itself, or by parity for ``mirrored`` chains
    (``_parity_modes``).  A chain whose decomposition raises LinAlgError or
    is not finite gets NaN, so every one of its points fails the modal
    check and goes to the LU."""
    try:
        lam, vecs, inverse, w = (_parity_modes if mirrored else _decomposed)(m0, rhs)
    except np.linalg.LinAlgError:
        if len(m0) == 1:
            nan = np.full_like(m0, np.nan)
            return nan[:, 0], nan, nan.copy(), nan[:, 0].copy()
        parts = [_modes(m0[c : c + 1], rhs[c : c + 1], mirrored) for c in range(len(m0))]
        return tuple(np.concatenate(part) for part in zip(*parts))
    finite = np.isfinite(lam).all(1) & np.isfinite(vecs).all((1, 2))
    finite &= np.isfinite(inverse).all((1, 2)) & np.isfinite(w).all(1)
    lam[~finite], vecs[~finite], inverse[~finite], w[~finite] = np.nan, np.nan, np.nan, np.nan
    return lam, vecs, inverse, w


def _row_max(values: np.ndarray) -> np.ndarray:
    """Maxima over the last axis of a (P, N) or (N,) array.  numpy reduces a
    C-ordered array's rows one at a time, slowly for short rows; an
    F-ordered copy is reduced a column at a time, to the same maxima."""
    return np.asfortranarray(values).max(axis=-1)


def _carrier_norm(deltas: np.ndarray, widths: np.ndarray, maxima: np.ndarray) -> np.ndarray:
    """||M(delta)||_inf (K,) at carrier phases for detunings (K,), the
    distinct widths i Gamma_g / 2 (G,) and each point's largest row sums
    per width (K, G) or (G,) (``_Chains.rate_sums``): the max over g of
    maxima_g + |delta + i Gamma_g / 2|.  Correctly rounded addition is
    monotone, so max_j fl(s_j + h) = fl(max_j s_j + h), and this is bit for
    bit max_j (sum_k |C_jk| + |M_jj|) over the emitters, NaN as soon as one
    row sum is."""
    return _row_max(maxima + np.abs(-deltas[:, None] - widths))


def _near(gap: np.ndarray, norm: np.ndarray, damping: np.ndarray) -> np.ndarray:
    """Whether each point lies within ``RESIDUAL_LIMIT`` * ||M(delta)||_inf
    (``norm``, (P,)) of a mode, for lambda - delta (``gap``, (P, N)) and
    |Im lambda| (``damping``, (N,)), the least over the stack's chains.

    Only the modes with |Im lambda| <= ``RESIDUAL_LIMIT`` times the stack's
    largest norm are tested: for real delta |lambda - delta| >= |Im lambda|,
    also in floating point, as hypot never rounds below its larger argument,
    so no other mode is near any point.  NaN modes and norms are never near."""
    dark = np.flatnonzero(damping <= RESIDUAL_LIMIT * np.fmax.reduce(norm))
    if not dark.size:  # the usual case, at half the cost of testing no modes
        return np.zeros(len(norm), dtype=bool)
    return (np.abs(gap[:, dark]) <= RESIDUAL_LIMIT * norm[:, None]).any(axis=1)


def _backward_error(defect, norm, x_max, rhs_max) -> np.ndarray:
    """Normwise backward error |M x - b|_inf / (||M||_inf |x|_inf + |b|_inf)
    per point, given |x|_inf; a zero scale means b = 0 and x = 0, so the
    defect itself is the residual."""
    scale = norm * x_max + rhs_max
    return np.divide(defect, scale, out=defect.copy(), where=scale > 0.0)


def _port_sum(rates: np.ndarray, waves: np.ndarray | None):
    """sum_k rates_k waves_k per point (P,) of ``waves`` (P, N), exactly 0
    (``waves`` unread) for a channel without rates.

    The terms are formed F-ordered, and numpy then adds their columns one
    after another: the additions of ``np.cumsum(...)[:, -1]``, so its bits,
    in two thirds of its time at (136, 30).  numpy sums a contiguous row pairwise, in
    another order, and one row is contiguous in either order, so a
    one-point stack is padded to two rows, as ``_rows`` pads its GEMMs."""
    if not rates.any():
        return 0.0
    rows = waves if len(waves) > 1 else waves[[0, 0]]
    return np.multiply(rates, rows, order="F").sum(axis=1)[: len(waves)]


def _rows(
    matrices: np.ndarray, vectors: np.ndarray, chain: np.ndarray | None = None, out=None
) -> np.ndarray:
    """M x per point of a stack, as rows (P, N), for ``vectors`` x (P, N) and
    M the shared ``matrices`` (N, N), or each point's ``chain`` entry of
    ``matrices`` (C, N, N), written into ``out`` (P, N), C-contiguous and
    apart from ``vectors``, if given: the same BLAS calls, the same bits.

    Row-major GEMMs x @ M.T: one over the stack for a shared M or a stack in
    one chain, else one stacked matmul over the chains from its first to its
    last (stacks run chain-major), each chain's run of rows placed in a
    zero-padded block as deep as the longest run, a chain the stack skips
    an empty run.  A row's bits then depend on its vector and matrix only,
    not on how many rows share the GEMM or where it sits among them,
    wherever the BLAS sums every row count in one order (README's CLI
    section says where OpenBLAS does); ``M @ x.T`` does not.  numpy sends a
    one-row product to GEMV, whose bits differ, so every GEMM has at least
    two rows: a lone row is padded to two, and copied into ``out``."""
    if chain is None or chain[0] == chain[-1]:
        matrix = matrices if chain is None else matrices[chain[0]]
        if len(vectors) > 1:
            return np.matmul(vectors, matrix.T, out=out)
        row = (vectors[[0, 0]] @ matrix.T)[:1]
        if out is None:
            return row
        out[...] = row
        return out
    run = chain - chain[0]
    row = np.arange(len(chain)) - np.searchsorted(chain, chain)  # within its run
    depth = max(row.max() + 1, 2)
    block = np.zeros((run[-1] + 1, depth, vectors.shape[1]), vectors.dtype)
    block[run, row] = vectors
    products = block @ matrices[chain[0] : chain[-1] + 1].swapaxes(-1, -2)
    # take: over 10x faster than products[run, row] on short rows (2048 at N = 2);
    # "clip", as "raise" would buffer a given ``out``
    return products.reshape(-1, vectors.shape[1]).take(run * depth + row, 0, out, "clip")


def _swept(
    chains: _Chains, chain: np.ndarray, phases: np.ndarray, rhs: np.ndarray, gap: np.ndarray,
    norm: np.ndarray, on_diagonal: np.ndarray, conjugates: np.ndarray, rhs_max: np.ndarray,
    drift: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Amplitudes x (P, N), defects |M(delta) x - b|_inf (P,) and which
    converged, for the delta-dependent points of a stack (``chain`` of each),
    from their chains' carrier-phase modes, given e^{i phi_j} (``phases``),
    b (``rhs``) and the step-phase drift Delta = s(delta) - theta
    (``drift``) at each point and their ``conjugates`` and |b|_inf.

    M(delta) x is the LU's matrix applied as the module docstring writes it,
    D at each point's own ``phases``, plus ``on_diagonal`` x.  A step S r
    inverts V (Lambda - delta + Delta B1) V^-1 to first order in Delta:
    y = (V^-1 r) / (lambda - delta) (``gap``), y -= Delta (B1 y) / (lambda - delta),
    S r = V y, with B1 = ``_Chains.slope``.  x starts at S b, then sweeps
    x <- x + S (b - M(delta) x), each shrinking the error by about the square
    of what a step without the drift term would: six products by (N, N)
    matrices a sweep, -i G_r and -i G_l one GEMM each over the stack, J,
    V^-1, B1 and V each point by its chain's (see ``_rows``), nothing (P, N, N).
    A point's sweeps end once its backward error (``norm`` as the check
    takes it) is at most eps, or a sweep fails to halve it: from a backward
    error of 1, after at most log2(1 / eps) = 52.  A sweep that does not
    lower it is dropped.  Each point sweeps on its own, so its bits do
    not depend on the other points.  It has converged if it ends at most
    N eps, the rounding level of its N-term products; a 1e-10 backward error
    would not give 1e-10 intensities.  While every point of the stack still
    sweeps, a sweep reads its arrays whole, not gathered."""
    (_, vecs, inverse, _), slope = chains.modes, chains.slope

    def image(points, x):  # M(delta) x
        d, d_conj, c = phases[points], conjugates[points], chain[points]
        right, left = _rows(chains.rightward, d_conj * x), _rows(chains.leftward, d * x)
        return d * right + d_conj * left + _rows(chains.exchange, x, c) + on_diagonal[points] * x

    def step(points, residual):  # S r
        c, g = chain[points], gap[points]
        y = _rows(inverse, residual, c) / g
        y -= drift[points, None] * _rows(slope, y, c) / g
        return _rows(vecs, y, c)

    def backward(points, x, mx):
        defect = _row_max(np.abs(mx - rhs[points]))
        return defect, _backward_error(defect, norm[points], _row_max(np.abs(x)), rhs_max[points])

    eps, every = np.finfo(float).eps, slice(None)
    x = step(every, rhs)
    mx = image(every, x)
    defect, error = backward(every, x, mx)
    points = np.arange(len(chain))
    while (points := points[error[points] > eps]).size:
        at = every if points.size == len(chain) else points  # a view, not a gather
        trial = x[at] + step(at, rhs[at] - mx[at])
        trial_mx = image(at, trial)
        trial_defect, trial_error = backward(at, trial, trial_mx)
        better = trial_error < error[at]
        halved = trial_error <= 0.5 * error[at]
        if at is every and better.all():
            x, mx, defect, error = trial, trial_mx, trial_defect, trial_error
        else:
            kept = points[better]
            x[kept], mx[kept] = trial[better], trial_mx[better]
            defect[kept], error[kept] = trial_defect[better], trial_error[better]
        points = points[better & halved]
    return x, defect, error <= chains.n * eps


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # not finite: no estimate
def _intensity_errors(
    chains: _Chains, result: TransportSolution, channel: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Estimates e (P,) of I_LU - I, and sensitivities s (P,), for each
    point's intensity I in ``channel`` (P,), an index into
    ``INTENSITY_KEYS``, of a carrier-phase solve ``result`` of one chain
    from its modes.

    Both come from the adjoint-weighted residual (Pierce and Giles, SIAM
    Review 42 (2000) 247).  A port amplitude is p = p0 + c_k^T A, so an
    amplitude A with residual r = b - (M0 - delta) A is off by g^T r, with
    g = M(delta)^-T c_k = V^-T ((V^T c_k) / (lambda - delta)) from the modes
    (c_k^T V: ``_Chains.ports``).  r is the negated defect row that the
    solve's check formed (``TransportSolution._defect``), the LU's own at
    points it re-solved: no second product by M0.
    e = |p + g^T r|^2 - |p|^2, and s = 2 |p| ||g||_1 (||M||_inf |A|_inf +
    |b|_inf), what I changes by per unit of backward error: that bounds the
    LU's own error and the rounding of r alike.  ||M||_inf is taken from
    above, as max_j sum_k |C_jk| + |delta| + max_j Gamma_j / 2.  The loss
    has no estimate, nor has a point where the modes are not finite (a
    defective chain) or delta is a mode: e and s are not finite there."""
    (sums,) = chains.carrier[2]
    lam, _, inverse, _ = (part[0] for part in chains.modes)
    a, delta = result.a, result.delta[:, None]
    adjoint = _rows(inverse.T, chains.ports[channel] / (lam - delta))  # g^T (P, N)
    amplitudes = np.array([result.t, result.r, result.tt, result.rt, result.t])  # loss: any
    port = amplitudes[channel, np.arange(len(a))]
    change = abs(port - (adjoint * result._defect).sum(axis=1)) ** 2 - abs(port) ** 2
    norm = sums.max() + abs(delta[:, 0]) + abs(chains.width).max()
    scale = norm * _row_max(abs(a)) + chains.v_dr.max()
    return change, 2.0 * abs(port) * abs(adjoint).sum(axis=1) * scale


@np.errstate(over="ignore", invalid="ignore")  # out-of-range values fail their point
def _solve_chains(
    chains: _Chains, deltas: Sequence[float] | np.ndarray, modal: bool, keep_defect: bool = False
) -> TransportSolution:
    """The solver core: every chain of ``chains`` over one detuning list (P,).

    Points run chain-major, point c * P + p being chain c at ``deltas[p]``,
    and fail as in ``solve_spectrum_point_batch``, over that order; with
    delta-dependent phases each point takes its chain config's step phase
    at its detuning.  ``modal`` solves points from the chains' modes first;
    ``keep_defect`` keeps a carrier-phase modal solve's defect rows as the
    result's ``_defect``.
    """
    n, v_dr, v_dl, v_ur, v_ul = chains.n, chains.v_dr, chains.v_dl, chains.v_ur, chains.v_ul
    backflow = v_dl.any() or v_ul.any()  # any leftward rates
    deltas = np.asarray(deltas, dtype=float)
    flat = np.tile(deltas, len(chains.couplings))
    chain_of = np.arange(len(chains.couplings)).repeat(deltas.size)
    if chains.drifts:  # chain-major, as the points run
        steps = np.concatenate([config.step_phase(deltas) for config in chains.configs])
    else:
        phases, m0, _ = chains.carrier
        widths, maxima = chains.rate_sums
    if modal:
        lam, vecs, _, w = chains.modes
        damping = np.abs(lam.imag)
    size, lu_size = _stack_points(n), _lu_points(n)

    a = np.empty((flat.size, n), dtype=complex)
    fields = np.empty((4, flat.size), dtype=complex)  # t, r, tt, rt
    residual = np.empty(flat.size)
    power = np.empty((len(INTENSITY_KEYS), flat.size))  # one row per intensity
    carrier_modal = modal and not chains.drifts
    defects = np.empty_like(a) if carrier_modal and keep_defect else None
    if carrier_modal and not keep_defect:  # one stack's defect rows, for its check
        scratch = np.empty((min(size, flat.size), n), dtype=complex)

    def record(points, x, defect, norm, phases, conjugates, rhs_max):
        """Store the points' output ports, intensities and backward error (the
        amplitudes ``x`` are the caller's to store), given e^{i phi_j}, its
        conjugate and |b|_inf; return which are solved (backward error at
        most ``RESIDUAL_LIMIT``, finite norm) and which flux-balanced.  The
        ports fill the rows of one block, and the intensities follow from it
        in one pass."""
        magnitude = np.abs(x)
        residual[points] = _backward_error(defect, norm, _row_max(magnitude), rhs_max)
        weight = np.square(magnitude, out=magnitude)
        forward = conjugates * x
        backward = (phases * x)[:, ::-1] if backflow else None  # from the last emitter
        ports = np.empty((4, len(x)), dtype=complex)
        ports[0] = 1.0 - 1j * _port_sum(v_dr, forward)
        ports[1] = -1j * _port_sum(v_dl[::-1], backward)
        ports[2] = -1j * _port_sum(v_ur, forward)
        ports[3] = -1j * _port_sum(v_ul[::-1], backward)
        intensities = _powers(ports)
        fields[:, points], power[:, points] = ports, intensities
        # Flux balance: loss >= -tol (which also fails a NaN or -inf loss),
        # and loss is the power the emitters radiate, to within a finite bound.
        loss = intensities[-1]
        bound = FLUX_IDENTITY_LIMIT * (1.0 + weight @ chains.total)
        identity = (np.abs(loss - weight @ chains.gamma) <= bound) & np.isfinite(bound)
        balanced = (loss >= -FLUX_TOLERANCE) & identity
        # An inf norm bounds nothing: it fails.
        return (residual[points] <= RESIDUAL_LIMIT) & np.isfinite(norm), balanced

    def point_phases(points):
        """e^{i phi_j} (K, N) at ``points``, or (N,) if all share their chain's carrier phases."""
        if chains.drifts:
            return chains.phases(steps[points])
        return _per_point(phases, chain_of[points])

    def diagonal_norm(points, sums):
        """M_jj (K, N) at ``points`` and ||M||_inf = max_j (sum_k |C_jk| + |M_jj|) (K,)."""
        on_diagonal = -flat[points, None] - chains.width
        return on_diagonal, _row_max(sums + np.abs(on_diagonal))

    def carrier_norm(points, chain):
        """||M||_inf (K,) at carrier phases, from the per-rate row sums."""
        return _carrier_norm(flat[points], widths, _per_point(maxima, chain))

    def lu_systems(points, d):
        """M(delta) (K, N, N) at ``points`` in the chains' LU buffer, from C at
        their phases ``d`` (K, N) or the carrier M0, and ||M||_inf (K,)."""
        chain, out = chain_of[points], chains.buffer[: points.size]
        if chains.drifts:
            matrices, sums = chains.coupling(d, _per_point(chains.couplings, chain), out)
            on_diagonal, norm = diagonal_norm(points, sums)
        else:
            matrices = m0.take(chain, axis=0, out=out, mode="clip")  # "raise" would buffer
            on_diagonal, norm = -flat[points, None] - chains.width, carrier_norm(points, chain)
        matrices[:, np.arange(n), np.arange(n)] = on_diagonal
        return matrices, norm

    for start in range(0, flat.size, size):
        stack = slice(start, start + size)
        chain = chain_of[stack]

        points = np.arange(start, start + len(chain))  # the points the LU solves
        if modal:
            detuning = flat[stack, None]
            gap = _per_point(lam, chain) - detuning
            stack_phases = point_phases(points)
            rhs = -(v_dr * stack_phases)
            conjugates, rhs_max = stack_phases.conj(), _row_max(np.abs(rhs))
            with np.errstate(divide="ignore"):  # at a mode: inf, which fails the point
                if chains.drifts:
                    drift = steps[stack] - chains.theta[chain]  # Delta, per step
                    # |C_jk(delta)| >= |C_jk| - G_jk |j - k| |Delta| bounds ||M||_inf
                    # from below, and so the backward error from above.
                    sums = _per_point(chains.carrier[2], chain)
                    sums = np.maximum(sums - np.abs(drift)[:, None] * chains.spread, 0.0)
                    on_diagonal, norm = diagonal_norm(stack, sums)
                    x, defect, converged = _swept(chains, chain, stack_phases, rhs, gap, norm,
                                                  on_diagonal, conjugates, rhs_max, drift)
                    a[stack] = x
                else:
                    # A = V (w / (lambda - delta)): a point's bits depend on its
                    # detuning and chain only.  A and its defect rows
                    # M0 A - delta A - b are written in place.
                    norm = carrier_norm(stack, chain)
                    x = _rows(vecs, _per_point(w, chain) / gap, chain, out=a[stack])
                    rows = defects[stack] if keep_defect else scratch[: len(chain)]
                    _rows(m0, x, chain, out=rows)
                    rows -= detuning * x
                    rows -= rhs
                    defect, converged = _row_max(np.abs(rows)), True
            solved, balanced = record(stack, x, defect, norm, stack_phases, conjugates, rhs_max)
            near = _near(gap, norm, np.fmin.reduce(damping[chain[0] : chain[-1] + 1]))
            points = start + np.flatnonzero(near | ~(solved & balanced & converged))
            if not points.size:
                continue

        lu_phases = np.broadcast_to(point_phases(points), (points.size, n))
        rhs = -(v_dr * lu_phases)
        conjugates, rhs_max = lu_phases.conj(), _row_max(np.abs(rhs))
        x = np.empty((points.size, n), dtype=complex)
        defect, norm = np.empty((2, points.size))
        singular = np.zeros(points.size, dtype=bool)
        for part in range(0, points.size, lu_size):  # LU stacks: solve and take the defect
            k = slice(part, part + lu_size)
            matrices, norm[k] = lu_systems(points[k], lu_phases[k])
            try:
                solution = np.linalg.solve(matrices, rhs[k, :, None])[..., 0]
            except np.linalg.LinAlgError:
                # Re-solve point by point up to the first singular system; the
                # points after it stay NaN and so fail after it.
                solution = np.full_like(rhs[k], np.nan)
                for i in range(len(solution)):
                    try:
                        solution[i] = np.linalg.solve(matrices[i], rhs[part + i])
                    except np.linalg.LinAlgError:
                        singular[part + i] = True
                        break
            x[k] = solution
            defect[k] = _row_max(np.abs((matrices @ solution[..., None])[..., 0] - rhs[k]))
        a[points] = x
        accepted, balanced = record(points, x, defect, norm, lu_phases, conjugates, rhs_max)
        # The one acceptance check: the LU's verdict stands.
        failed = np.flatnonzero(~(accepted & balanced))
        if failed.size:
            i = failed[0]
            delta, loss = float(flat[points[i]]), power[-1, points[i]]
            if singular[i]:
                raise SolverError("singular transport system", delta, np.inf)
            if not np.isfinite(x[i]).all():
                raise SolverError("non-finite solution of the transport system", delta)
            if not np.isfinite(norm[i]):
                raise SolverError("transport system beyond the float range", delta)
            if not accepted[i]:
                matrix = lu_systems(points[i : i + 1], lu_phases[i : i + 1])[0][0]  # rebuilt
                raise SolverError("near-singular transport system", delta, np.linalg.cond(matrix))
            if not np.isfinite(loss):  # as soon as one intensity is
                raise SolverError("non-finite solution of the transport system", delta)
            raise SolverError(f"flux balance violated (loss {loss:.3g})", delta)
        if defects is not None:  # the LU's own, for ``_intensity_errors``
            defects[points] = _rows(m0, x, chain_of[points]) - flat[points, None] * x - rhs

    intensities = dict(zip(INTENSITY_KEYS, power))
    return TransportSolution(flat, a, *fields, intensities, residual, _defect=defects)

