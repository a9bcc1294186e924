"""Engineered drive/dissipation channels, their fixed points, and the
single-photon-ancilla preparation protocol.

Drive channel.  One site couples to a fresh coherent-state ancilla through
a weak beamsplitter, the ancilla is traced out, and a linear phase
e^{i Phi n_site} rotates the site.  The circuit parameters (K, alpha, Phi)
simulate a drive/loss generator with conj(alpha) K = F, gamma dt = (K dt)^2
and Phi = Omega dt.  The dissipative part is realized as Kraus operators
K_m = <m| U_bs |alpha~>: the beamsplitter conserves n_site + n_ancilla and
acts trivially on everything else, so the restricted joint unitary splits
into tiny two-mode orbits and each Kraus operator is sparse with at most
ancilla_cut entries per column.  Only the phase depends on the drive
frequency, and it commutes with every other site's Kraus map and with the
number-conserving Trotter step, so a full circulation factors as
E_Omega = P_Omega o E_0 with P_Omega one diagonal on rho.  Every iterate
is Hermitian, so a circulation carries only rho's upper triangle.

Fixed points are found by plain power iteration; the returned report
always states the exact trace-norm residual of one more channel
application.

Single-photon-ancilla protocol.  Each site couples to a persistent ancilla,
refreshed to one photon with probability p_ref per circulation.  The exact
joint state of system plus sixteen ancillas is out of reach, so the
protocol is integrated as its weak-coupling collision limit: one population
per degenerate manifold of the step unitary (the degeneracy rule of
``spectral``), one occupancy distribution per orbit of ancillas (below),
and per-circulation transfer rates between manifolds I and F

    rate = sin^2(chi dt) q W_j[F, I] S(Delta),
    W_j[F, I] = sum_{f in F, i in I} |<f| b_j^(dag) |i>|^2 = Tr(P_F b_j^dag P_I b_j),
    S(Delta) = (1 - s^2) / (1 - 2 s cos Delta + s^2),      s = 1 - p_ref

where Delta is the per-circulation phase mismatch between the two branches
of a transfer (system eigenphase difference plus the ancilla phase-gate
difference) and S is the renewal-reward sum of the coherent amplitude
accumulated between refresh events.  The phase-gate offsets make the
vacuum -> ground ladder and the three-photon -> two-photon recovery exactly
resonant, which is what funnels population into the two-photon ground
space.  Each manifold's state is taken proportional to its projector, the
secular approximation over manifolds, so W_j and the answer do not depend
on which eigenvectors span a manifold.  Which manifold holds a sector's
ground is the ground rule of ``spectral``.  A lattice shift T that commutes
with every sector's step maps each manifold onto itself and b_j onto
b_{Tj}, so W_{Tj} = W_j, and ancillas that start equal stay equal: the
sites of one orbit of T share one W_j and one ancilla distribution (on the
4x4 torus 4 orbits of 4 sites).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .fock import DensityMatrix, FockBasis, enumerate_basis, ladder_operator
from .gates import orbit_unitary
from .lattice import LatticeModel, step_operator
from .spectral import sector_spectra

__all__ = [
    "DriveDissParams",
    "IncoherentParams",
    "SteadyStateReport",
    "DriveDissChannel",
    "CirculationChannel",
    "fixed_point",
    "steady_state_observables",
    "IncoherentProtocol",
    "ProtocolError",
    "INITS",
    "check_refresh",
    "check_ancilla_cut",
    "MAX_CHANNEL_STATES",
]

# largest basis CirculationChannel takes: at 969 states its folded pair
# superoperators hold 14.3M nonzeros and the build peaks near 600 MB
MAX_CHANNEL_STATES = 1024


@dataclass
class DriveDissParams:
    """Drive/loss circuit: beamsplitter rate K, ancilla amplitude alpha and
    drive frequency Omega_drive at circulation time delta_t.  The simulated
    drive F = conj(alpha) K, loss rate gamma_loss = (K dt)^2 / dt and phase
    Phi = Omega_drive dt follow from them."""

    K: float
    alpha: complex
    Omega_drive: float
    delta_t: float

    @property
    def F(self) -> complex:
        return np.conj(self.alpha) * self.K

    @property
    def gamma_loss(self) -> float:
        return (self.K * self.delta_t) ** 2 / self.delta_t

    @property
    def Phi(self) -> float:
        return self.Omega_drive * self.delta_t

    @classmethod
    def from_circuit(cls, K_dt: float, alpha: complex, Omega_drive: float,
                     delta_t: float) -> "DriveDissParams":
        return cls(K_dt / delta_t, complex(alpha), Omega_drive, delta_t)

    @classmethod
    def from_physical(cls, F: complex, Omega_drive: float, gamma_loss: float,
                      delta_t: float) -> "DriveDissParams":
        if gamma_loss < 0:
            raise ValueError("loss rate must be nonnegative")
        if gamma_loss == 0 and F != 0:
            raise ValueError("a drive needs a loss rate: K = 0 carries no F")
        K = math.sqrt(gamma_loss / delta_t) if gamma_loss > 0 else 0.0
        alpha = np.conj(F / K) if K > 0 else 0.0
        return cls(K, complex(alpha), Omega_drive, delta_t)


@dataclass
class SteadyStateReport:
    """What fixed_point measured: the fixed point, the iterations taken, the
    trace-norm residual of one more channel application, and whether the
    last step met tol and that residual 2 tol."""

    rho_fix: DensityMatrix
    iterations: int
    residual: float
    converged: bool


def check_ancilla_cut(alpha: complex, ancilla_cut: int) -> np.ndarray:
    """Raise ValueError unless ancilla_cut >= 2 levels hold the coherent
    state |alpha> up to a truncation deficit of 1e-10; return its
    amplitudes on those levels, renormalized."""
    if ancilla_cut < 2:
        raise ValueError("ancilla needs at least two levels")
    q = np.arange(ancilla_cut)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(q[1:]))))
    with np.errstate(all="ignore"):     # a huge alpha gives a NaN deficit
        amps = np.exp(-np.abs(alpha) ** 2 / 2) * alpha**q / np.exp(0.5 * log_fact)
        deficit = 1.0 - np.sum(np.abs(amps) ** 2)
    if not deficit <= 1e-10:
        raise ValueError(
            f"coherent-state truncation deficit {deficit:.2e} > 1e-10; "
            "raise ancilla_cut"
        )
    return amps / np.linalg.norm(amps)


def _two_mode_orbits(theta: float, n_max: int, cut: int) -> np.ndarray:
    """exp(-i theta (b+ c + b c+)) restricted to n_b <= cap, n_c < cut, for
    every cap = 0..n_max, blocked by the conserved total s = n_b + n_c:
    orbit[cap, s, a_out, a] = <a_out, s - a_out| U |a, s - a>, zero where
    a or a_out is off the restricted orbit.  Each (cap, s) block is the
    orbit unitary on its own window of admitted n_b.
    """
    size = n_max + cut
    orbit = np.zeros((n_max + 1, size, size, n_max + 1), dtype=complex)
    for cap in range(n_max + 1):
        for s in range(cap + cut):
            lo, hi = max(0, s - cut + 1), min(s, cap)    # admitted n_b
            block = slice(lo, hi + 1)
            orbit[cap, s, block, block] = orbit_unitary(theta, 0.0, s, lo, hi)
    return orbit


class DriveDissChannel:
    """Per-site drive/dissipation Kraus map on a multi-sector basis.

    The map leaves out the site's linear phase e^{i Phi n_site}, so nothing
    built here depends on Omega_drive: CirculationChannel applies every
    site's phase at once as one diagonal.

    The Kraus operators are sparse: a photon can only move between the site
    and the ancilla, so each basis column couples to at most ancilla_cut
    rows.  A site with other-mode occupation r lives on the orbit family
    capped at n_max - r (the sector truncation), so one orbit table per cap
    is precomputed.
    """

    def __init__(self, basis: FockBasis, site: int, params: DriveDissParams,
                 ancilla_cut: int = 3):
        amps = check_ancilla_cut(params.alpha, ancilla_cut)
        if not 0 <= site < basis.n_modes:
            raise ValueError("site out of range")
        if basis.sectors != tuple(range(max(basis.sectors) + 1)):
            raise ValueError("drive channel needs contiguous sectors 0..N_max")
        self.basis = basis
        self.site = site
        self.params = params
        self.ancilla_cut = ancilla_cut

        n_max = max(basis.sectors)
        orbit = _two_mode_orbits(params.K * params.delta_t, n_max, ancilla_cut)
        occ = basis.occupations()
        a = occ[:, site, None]
        cap = n_max - (basis.totals()[:, None] - a)
        q = np.arange(ancilla_cut)
        # K_m[row, col] = sum_q amps[q] <a_out, m| U2 |a, q>, a_out = a+q-m;
        # an a_out above the cap reads the orbit's zero padding
        self.kraus = []
        for m in range(ancilla_cut):
            a_out = a + q - m
            val = np.where(a_out >= 0, orbit[cap, a + q, a_out, a], 0)
            cols, qs = np.nonzero(val)
            target = occ[cols]
            target[:, site] = a_out[cols, qs]
            self.kraus.append(
                basis.transfer(cols, target, amps[qs] * val[cols, qs])
            )

    def as_superoperator(self) -> sp.csr_matrix:
        """Sparse matrix acting on the row-major vec of rho:
        vec(K rho K+) = (K kron conj(K)) vec(rho)."""
        d = self.basis.dim
        s = sp.csr_matrix((d * d, d * d), dtype=complex)
        for k in self.kraus:
            s = s + sp.kron(k, k.conj(), format="csr")
        return s

    def kraus_defect(self) -> float:
        """max |sum_m K_m^dag K_m - I|, zero for a trace-preserving channel."""
        acc = sum(k.conj().T @ k for k in self.kraus)
        return abs(acc - sp.identity(self.basis.dim)).max()


class CirculationChannel:
    """One full circulation: a Trotter Hamiltonian step as rho -> U rho U+,
    then the drive/dissipation channel on every site.

    The input must be Hermitian, as every density matrix and every iterate
    of the channel is: the call reads only its sector blocks on and above
    the diagonal, and returns a bitwise-Hermitian result (real diagonal,
    each lower entry the conjugate of its mirror).  params.delta_t must be
    the circulation time delta_t, which sets both the step and K dt.

    The step conserves photon number, so the upper triangle of U rho U+
    is formed per sector slice: first sector k's rows of U rho
    from its own start (U_k rho[k, k:]), then the columns (x[:, k] U_k+),
    in two panels split at the sector's middle column, each down to the
    panel's last row on or above the diagonal.

    The drive frequency enters only through the sites' phases e^{i Phi n_j},
    Phi = Omega_drive dt.  Each commutes with the other sites' Kraus maps,
    so they act last, as one diagonal that multiplies rho_ab by
    e^{i Phi (N_a - N_b)}.  The step, the per-site maps and the pair
    superoperators are built without it, and ``at_omega`` returns the
    channel at another drive frequency that shares all of them.

    The per-site channels are fused into sparse superoperators, one per
    pair of sites (an odd site count leaves one single last), folded onto
    the upper triangle.  With v the n_u = dim (dim + 1) / 2 upper entries
    of the row-major vec(rho), a 0/1 lift L with one entry per row gives
    vec(rho) = L [v | conj(v)] (a lower entry reads its mirror's
    conjugate, a diagonal one v), so each pair acts as S_half = S[upper] L,
    an n_u x 2 n_u matrix with half the nonzeros of S.  The call writes
    conj(v) into the second half of one buffer before each S_half, applies
    the phase to v, and expands v back to rho with one gather.  The
    superoperators grow as dim^2, so bases above ``MAX_CHANNEL_STATES``
    raise ValueError.  Measured with BLAS on one thread, best of three
    runs, with the process's peak RSS after the build:

        dim   lattice, sectors   call      build    peak RSS
         45   2x4, 0..2          0.13 ms   0.02 s     63 MB
        153   4x4, 0..2           1.5 ms   0.08 s     72 MB
        455   3x4, 0..3            25 ms   0.38 s    185 MB
        969   4x4, 0..3           195 ms    2.2 s    601 MB
    """

    def __init__(self, model: LatticeModel, delta_t: float,
                 params: DriveDissParams, n_max: int = 3,
                 ancilla_cut: int = 3, basis: FockBasis = None):
        if params.delta_t != delta_t:
            raise ValueError(f"params.delta_t {params.delta_t} is not the "
                             f"circulation time {delta_t}")
        self.model = model
        self.delta_t = delta_t
        self.basis = basis or enumerate_basis(model.n_sites, range(n_max + 1))
        want = (model.n_sites, tuple(range(n_max + 1)))
        if (self.basis.n_modes, self.basis.sectors) != want:
            raise ValueError(f"need (n_modes, sectors) {want}, got {self.basis}")
        d = self.basis.dim
        if d > MAX_CHANNEL_STATES:
            raise ValueError(f"basis of {d} states exceeds MAX_CHANNEL_STATES "
                             f"= {MAX_CHANNEL_STATES}")
        self.step = step_operator(model, delta_t, self.basis)
        # the step conserves photon number: (slice, U_k) per sector, and
        # U_k^dag cut at the sector's middle column into (slice, columns,
        # U_k^dag[:, columns]) panels
        self._blocks, self._panels = [], []
        for k in self.basis.sectors:
            sl = self.basis.sector_slice(k)
            self._blocks.append((sl, np.ascontiguousarray(self.step[sl, sl])))
            mid = (sl.start + sl.stop) // 2
            for cols in (slice(sl.start, mid), slice(mid, sl.stop)):
                if cols.start < cols.stop:
                    self._panels.append((sl, cols, np.ascontiguousarray(
                        self.step[cols, sl].conj().T)))
        self.sites = [
            DriveDissChannel(self.basis, j, params, ancilla_cut)
            for j in range(model.n_sites)
        ]
        rows, cols = np.triu_indices(d)
        n_u = len(rows)
        # vec(rho) = [v | conj(v)][lift], v = vec(rho)[upper]: a lower
        # entry reads the conjugate of its mirror, a diagonal one v
        self._upper = rows * d + cols
        self._diag = np.flatnonzero(rows == cols)
        n = self.basis.totals()
        self._dn = n[rows] - n[cols]
        lift = np.empty((d, d), dtype=np.intp)
        lift[cols, rows] = n_u + np.arange(n_u)
        lift[rows, cols] = np.arange(n_u)
        self._lift = lift.ravel()
        self._supers = []
        for j in range(0, len(self.sites), 2):
            # S_half = S[upper] @ L, the 0/1 lift L one entry per row
            s = self.sites[j].as_superoperator()
            if j + 1 < len(self.sites):
                s = self.sites[j + 1].as_superoperator()[self._upper] @ s
            else:
                s = s[self._upper]
            self._supers.append(sp.csr_matrix(
                (s.data, self._lift[s.indices], s.indptr),
                shape=(n_u, 2 * n_u)))
        self._tune(params)

    def _tune(self, params: DriveDissParams):
        self.params = params
        # the phase e^{i Phi (N_a - N_b)} of each upper entry
        self._phase = np.exp(1j * params.Phi * self._dn)

    def at_omega(self, Omega_drive: float) -> "CirculationChannel":
        """The channel at another drive frequency; it shares this one's
        step, per-site maps and pair superoperators."""
        ch = copy.copy(self)
        ch._tune(replace(self.params, Omega_drive=Omega_drive))
        return ch

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        half = np.empty(rho.shape, dtype=complex)
        out = np.empty(rho.shape, dtype=complex)
        # only the upper triangle of U rho U^dag: a sector's rows of U rho
        # from its own start, then a panel's columns down to its last one
        for sl, u in self._blocks:
            np.matmul(u, rho[sl, sl.start:], out=half[sl, sl.start:])
        for sl, cols, u_h in self._panels:
            np.matmul(half[:cols.stop, sl], u_h, out=out[:cols.stop, cols])
        n_u = len(self._upper)
        buf = np.empty(2 * n_u, dtype=complex)
        v = out.ravel()[self._upper]
        for s in self._supers:
            buf[:n_u] = v
            np.conjugate(v, out=buf[n_u:])
            v = s @ buf
        v *= self._phase
        v.imag[self._diag] = 0.0
        buf[:n_u] = v
        np.conjugate(v, out=buf[n_u:])
        return buf[self._lift].reshape(rho.shape)


def fixed_point(channel, initial_rho: DensityMatrix, tol: float = 1e-9,
                max_iter: int = 200_000) -> SteadyStateReport:
    """Iterate a trace-preserving channel to its fixed point by plain power
    iteration.

    Convergence is declared once sqrt(dim) * ||delta||_F < tol, which
    bounds the trace-norm criterion ||delta||_1 < tol; the report carries
    the exact trace-norm residual of one extra channel application.

    initial_rho must be Hermitian to 1e-12, or ValueError is raised before
    any channel call: CirculationChannel reads only the sector blocks of
    its input on and above the diagonal and carries only the upper
    triangle, so it would iterate another start than the one given.
    """
    defect = initial_rho.hermiticity_defect()
    if defect > 1e-12:
        raise ValueError(f"initial_rho is not Hermitian (defect {defect:.2e})")
    basis = initial_rho.basis
    rho = initial_rho.matrix.astype(complex).copy()
    sq_dim = math.sqrt(basis.dim)
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        nxt = channel(rho)
        res = np.linalg.norm(nxt - rho)
        rho = nxt
        if sq_dim * res < tol:
            converged = True
            break

    final = channel(rho)
    residual = float(np.linalg.norm(final - rho, "nuc"))
    return SteadyStateReport(
        rho_fix=DensityMatrix(basis, rho),
        iterations=iterations,
        residual=residual,
        converged=converged and residual < 2 * tol,
    )


def steady_state_observables(rho: DensityMatrix,
                             ground_states: np.ndarray = None) -> dict:
    """The scalar observables of a steady state, keyed by their CSV names:
    n_photon, P1, P2, P2_over_P1 and overlap.

    ground_states: (dim_sector2, 2) orthonormal columns spanning the target
    ground space; the postselected overlap is tr(Pi_g  Pi_2 rho Pi_2 / P2).
    P2_over_P1 is nan where P1 = 0, and overlap is nan without ground
    states or where P2 < 1e-14.
    """
    basis = rho.basis
    diag = np.real(np.diag(rho.matrix))
    p1 = rho.sector_population(1) if 1 in basis.sectors else 0.0
    p2 = rho.sector_population(2) if 2 in basis.sectors else 0.0
    overlap = float("nan")
    if ground_states is not None and p2 >= 1e-14:
        sl = basis.sector_slice(2)
        block = rho.matrix[sl, sl] / p2
        g = np.asarray(ground_states)
        overlap = float(np.real(np.trace(g.conj().T @ block @ g)))
    return {
        "n_photon": float(np.sum(basis.totals() * diag)),
        "P1": p1,
        "P2": p2,
        "P2_over_P1": p2 / p1 if p1 > 0 else float("nan"),
        "overlap": overlap,
    }


# ---------------------------------------------------------------------------
# single-photon-ancilla protocol (collision-limit integration)
# ---------------------------------------------------------------------------


# the initial states IncoherentProtocol.reset accepts
INITS = ("vacuum", "ground")


def check_refresh(chi: float, p_ref: float):
    """Raise ValueError unless p_ref is a probability the collision-limit
    integrator can take at ancilla coupling chi."""
    if not 0.0 <= p_ref <= 1.0:
        raise ValueError("p_ref must be a probability")
    if chi != 0.0 and p_ref == 0.0:
        raise ValueError(
            "the collision-limit integrator needs p_ref > 0 when the "
            "ancilla coupling is nonzero"
        )


class ProtocolError(ValueError):
    """A protocol that only the integrator's build can reject."""


@dataclass
class IncoherentParams:
    """Coupling, refresh probability, and the ancilla phase-gate offsets."""

    chi: float
    p_ref: float
    phi_1: float
    phi_2: float


class IncoherentProtocol:
    """Collision-limit integrator for the single-photon-ancilla protocol.

    ``sectors[k]`` is the ``spectral.sector_spectra`` result of sector k on
    the basis of sectors 0..n_max, and ``populations[k][m]`` the population
    per state of its manifold ``sectors[k].manifolds[m]``, of ``sizes[k][m]``
    states.  Manifolds are in ground-rule order, so manifold 0 holds sector
    k's ground, and ``doublet`` indexes the lowest sector-2 manifolds that
    together hold the two states of the two-photon ground doublet.  The
    phase offsets, ``reset("ground")`` and ``observables()`` all read them.
    A doublet that no run of lowest manifolds fills exactly, an aliased
    doublet, and a coupling under which the explicit step could drive
    populations negative (and diverge) raise ProtocolError.

    The shift by the lcm of every sector's ``shift`` commutes with each
    sector's step, so the sites of one of its orbits share their manifold
    weights W_j (module docstring) and, as ``reset`` starts every ancilla
    equal, their ancilla.  ``ancilla`` holds one row per orbit, for sites
    0..n_orbits-1, and each pair's weight stack one row W_o = |o| W_j, the
    orbit's summed weight.  An open lattice has orbits of one site.
    """

    def __init__(self, model: LatticeModel, delta_t: float, chi: float,
                 p_ref: float, n_max: int = 3):
        check_refresh(chi, p_ref)
        if n_max < 2:
            raise ValueError("the protocol needs n_max >= 2: its ground "
                             "doublet lives in sector 2")
        self.model = model
        self.delta_t = delta_t
        self.n_max = n_max
        basis = enumerate_basis(model.n_sites, range(n_max + 1))
        self.sectors = list(sector_spectra(model, delta_t, basis).values())
        self.sizes = [np.array([len(m) for m in s.manifolds])
                      for s in self.sectors]
        held = np.cumsum(self.sizes[2])
        self.doublet = np.arange(np.searchsorted(held, 2) + 1)
        if held[self.doublet[-1]] != 2:
            raise ProtocolError(
                f"the lowest sector-2 manifolds hold "
                f"{self.sizes[2][self.doublet].tolist()} states; no run of "
                "them is a two-state ground doublet")
        labels = np.concatenate(
            [self.sectors[2].manifolds[m] for m in self.doublet])
        if self.sectors[2].aliased[labels].any():
            raise ProtocolError("the ground doublet lies on the branch cut of "
                                "the effective energies; lower delta_t")
        th_g = [-s.energies[s.order[0]] * delta_t for s in self.sectors]
        phi_1 = th_g[2] - th_g[1]
        phi_2 = phi_1 + (th_g[3] - th_g[2] if n_max >= 3 else 0.0)
        self.params = IncoherentParams(chi=chi, p_ref=p_ref,
                                       phi_1=phi_1, phi_2=phi_2)
        self._build_rates(basis)
        self.reset("vacuum")

    # -- rate machinery ----------------------------------------------------

    def _build_rates(self, basis: FockBasis):
        s = 1.0 - self.params.p_ref
        eps2 = math.sin(self.params.chi * self.delta_t) ** 2
        # ancilla phase-gate differences of the channels 1 -> 0 and 2 -> 1
        gate_10 = self.params.phi_1
        gate_21 = self.params.phi_2 - self.params.phi_1

        def kernel(delta):      # eps2 S(Delta)
            if eps2 == 0.0:
                return np.zeros_like(delta)
            den = 1.0 - 2.0 * s * np.cos(delta) + s * s
            return eps2 * (1.0 - s * s) / den

        # each manifold's phase is its first label's; its labels are taken
        # in one block, so a sum over a manifold is one reduceat segment
        thetas, vecs, starts = [], [], []
        for sec, size in zip(self.sectors, self.sizes):
            thetas.append(np.array([-sec.energies[m[0]] * self.delta_t
                                    for m in sec.manifolds]))
            vecs.append(sec.eigenvectors[:, np.concatenate(sec.manifolds)])
            starts.append(np.cumsum(size) - size)
        # the shift of lcm(shifts) rows commutes with every sector's step and
        # moves site j to j + stride: sites 0..stride-1 stand for their orbits
        n_sites, n_last = self.model.n_sites, self.model.shape[-1]
        stride = (math.lcm(*(sec.shift for sec in self.sectors))
                  * n_sites // n_last)
        self._orbit_size = n_sites // stride
        bdag = [ladder_operator(basis, j, "create").entries
                for j in range(stride)]
        # per sector pair k -> k+1: the stack (n_orbits, M_hi * M_lo) of the
        # orbits' summed manifold weights W_o = |o| W_j, the kernels k10,
        # k21 (M_hi, M_lo), and the per-orbit column sums (2, n_orbits, M_lo)
        # and row sums (2, n_orbits, M_hi) of k10 W_o and k21 W_o
        self._pairs = []
        for k in range(self.n_max):
            lo, hi = basis.sector_slice(k), basis.sector_slice(k + 1)
            v_hi_h = vecs[k + 1].conj().T
            dth = thetas[k + 1][:, None] - thetas[k]
            k10, k21 = kernel(dth - gate_10), 2.0 * kernel(dth - gate_21)
            # each site's label-level |<f| b_j^dag |i>|^2 is summed into
            # manifold weights at once; no label-level stack is kept
            w = self._orbit_size * np.stack([
                np.add.reduceat(np.add.reduceat(
                    np.abs(v_hi_h @ (b[hi, lo] @ vecs[k])) ** 2,
                    starts[k + 1], axis=0), starts[k], axis=1)
                for b in bdag])
            self._pairs.append((
                w.reshape(len(w), -1), k10, k21,
                np.stack([np.einsum("FI,jFI->jI", kk, w) for kk in (k10, k21)]),
                np.stack([np.einsum("FI,jFI->jF", kk, w) for kk in (k10, k21)]),
            ))
        # a sector-k manifold leaves up by pair k's column sums (ancilla
        # level 1 or 2) and down by pair k-1's row sums (level 0 or 1); per
        # state that is its size's share, and a step is a convex update
        # while these sum to at most 1 for every state
        none = np.zeros((2, 1, 1))
        for k in range(self.n_max + 1):
            up = self._pairs[k][3] if k < self.n_max else none
            dn = self._pairs[k - 1][4] if k > 0 else none
            leave = (np.maximum(np.maximum(dn[0], up[0] + dn[1]), up[1]).sum(0)
                     / self.sizes[k])
            if leave.max() > 1.0:
                raise ProtocolError(
                    f"a state's transfer probability per circulation reaches "
                    f"{leave.max():.3g} > 1; lower chi * delta_t or raise p_ref")

    # -- state handling ------------------------------------------------------

    def reset(self, init: str = "vacuum"):
        """init, one of INITS: "vacuum" (empty lattice) or "ground" (the
        two-photon ground doublet, 1/2 per state); every orbit's ancilla
        starts in one photon."""
        if init not in INITS:
            raise ValueError(f"unknown initialization {init!r}; pick one "
                             f"of {INITS}")
        self.populations = [np.zeros(len(size)) for size in self.sizes]
        if init == "vacuum":
            self.populations[0][0] = 1.0
        else:
            self.populations[2][self.doublet] = 0.5
        self.ancilla = np.tile(np.array([0.0, 1.0, 0.0]),
                               (self.model.n_sites // self._orbit_size, 1))

    def step(self):
        """One circulation: collision transfer flows, then ancilla refresh.

        For each site j and sector pair k -> k+1, with rate matrices r1_j
        (ancilla 1 <-> 0), r2_j (ancilla 2 <-> 1) between manifolds,
        populations per state x and ancilla occupancies q_j = (q0_j, q1_j,
        q2_j), the manifold populations P = |I| x change by

            upward   flux[F] = q_src * sum_I r[F, I] x_k[I]
            downward flux[I] = q_src * sum_F r[F, I] x_{k+1}[F]

        and the same scalar flux moves the ancilla occupancy distribution.

        The rates factor as r1_j = k10 * W_j, r2_j = k21 * W_j, with
        site-independent kernels k10, k21 and the manifold weights W_j.
        The sites of one orbit o share W_j and, from equal starts, their
        ancilla q_o, so the site sum is one product over the stacked orbit
        weights W_o = |o| W_j, Wn = sum_o qn_o W_o, and the summed rates
        A_up = k10 W1 + k21 W2 (k -> k+1) and A_dn = k10 W0 + k21 W1
        (k+1 -> k) give the in-flows A_up @ x_k and A_dn^T @ x_{k+1}.  The
        build precomputes the kernels, the W stack and the per-orbit column
        and row sums of k10 W_o and k21 W_o; weighted by q_o, these give the
        out-flows and the orbit's ancilla flux, which each of its |o| sites
        shares: q_o += flux / |o|.  Each manifold's change is spread over
        its states: x += dP / |F|.
        """
        p = self.populations
        dp = [np.zeros_like(x) for x in p]
        q0, q1, q2 = self.ancilla.T
        danc = np.zeros_like(self.ancilla)
        for k, (w, k10, k21, cols, rows) in enumerate(self._pairs):
            lo, hi = p[k], p[k + 1]
            w0, w1, w2 = (self.ancilla.T @ w).reshape(3, *k10.shape)
            a_up = k10 * w1 + k21 * w2
            a_dn = k10 * w0 + k21 * w1
            dp[k + 1] += a_up @ lo - (q0 @ rows[0] + q1 @ rows[1]) * hi
            dp[k] += a_dn.T @ hi - (q1 @ cols[0] + q2 @ cols[1]) * lo
            # ancilla fluxes 1 -> 0, 2 -> 1 (up) and 0 -> 1, 1 -> 2 (down)
            f_up1, f_up2 = q1 * (cols[0] @ lo), q2 * (cols[1] @ lo)
            f_dn1, f_dn2 = q0 * (rows[0] @ hi), q1 * (rows[1] @ hi)
            danc[:, 0] += f_up1 - f_dn1
            danc[:, 1] += f_dn1 - f_up1 + f_up2 - f_dn2
            danc[:, 2] += f_dn2 - f_up2
        for k in range(self.n_max + 1):
            self.populations[k] += dp[k] / self.sizes[k]
        self.ancilla += danc / self._orbit_size
        # probabilistic refresh as the exact convex mixture
        p_ref = self.params.p_ref
        self.ancilla = (1 - p_ref) * self.ancilla
        self.ancilla[:, 1] += p_ref

    def observables(self) -> dict:
        """P_k per sector, ground-doublet population, mean and variance of N."""
        pk = np.array([x @ size for x, size in zip(self.populations, self.sizes)])
        ks = np.arange(self.n_max + 1)
        n_mean = float(np.sum(ks * pk))
        return {
            **{f"P{k}": float(p) for k, p in enumerate(pk)},
            "ground_population": float(self.populations[2][self.doublet]
                                       @ self.sizes[2][self.doublet]),
            "N_mean": n_mean,
            "N_var": float(np.sum(ks**2 * pk)) - n_mean**2,
        }

    def run(self, n_steps: int, record_every: int = 10) -> list:
        trace = [dict(step=0, **self.observables())]
        for n in range(1, n_steps + 1):
            self.step()
            if n % record_every == 0 or n == n_steps:
                trace.append(dict(step=n, **self.observables()))
        return trace
