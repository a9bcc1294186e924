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
E_Omega = P_Omega o E_0 with P_Omega one diagonal on rho.

Fixed points are found by plain power iteration; the returned report
always states the exact trace-norm residual of one more channel
application.

Single-photon-ancilla protocol.  Each site owns a persistent ancilla,
refreshed to one photon with probability p_ref per circulation.  The exact
joint state of system plus sixteen ancillas is out of reach, so the
protocol is integrated as its weak-coupling collision limit: populations
over step-unitary eigenstates, one occupancy distribution per ancilla, and
per-circulation transfer rates

    rate = sin^2(chi dt) q |<f| b_j^(dag) |i>|^2 S(Delta),
    S(Delta) = (1 - s^2) / (1 - 2 s cos Delta + s^2),      s = 1 - p_ref

where Delta is the per-circulation phase mismatch between the two branches
of a transfer (system eigenphase difference plus the ancilla phase-gate
difference) and S is the renewal-reward sum of the coherent amplitude
accumulated between refresh events.  The phase-gate offsets make the
vacuum -> ground ladder and the three-photon -> two-photon recovery exactly
resonant, which is what funnels population into the two-photon ground
space.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .fock import DensityMatrix, FockBasis, enumerate_basis
from .gates import gate_matrix
from .lattice import LatticeModel, exact_hamiltonian, trotter_step_sequence
from .spectral import effective_energies

__all__ = [
    "DriveDissParams",
    "IncoherentParams",
    "SteadyStateReport",
    "DriveDissChannel",
    "CirculationChannel",
    "drive_diss_channel",
    "full_circulation_channel",
    "fixed_point",
    "steady_state_observables",
    "IncoherentProtocol",
    "incoherent_protocol_step",
]


@dataclass
class DriveDissParams:
    """Drive/loss parameters and their circuit realization.

    Consistency: conj(alpha) * K = F, gamma_loss * dt = (K dt)^2,
    Phi = Omega_drive * dt.
    """

    F: complex
    Omega_drive: float
    gamma_loss: float
    delta_t: float
    alpha: complex
    K: float
    Phi: float

    @classmethod
    def from_circuit(cls, K_dt: float, alpha: complex, Omega_drive: float,
                     delta_t: float) -> "DriveDissParams":
        K = K_dt / delta_t
        return cls(
            F=np.conj(alpha) * K,
            Omega_drive=Omega_drive,
            gamma_loss=K_dt**2 / delta_t,
            delta_t=delta_t,
            alpha=complex(alpha),
            K=K,
            Phi=Omega_drive * delta_t,
        )

    @classmethod
    def from_physical(cls, F: complex, Omega_drive: float, gamma_loss: float,
                      delta_t: float) -> "DriveDissParams":
        if gamma_loss < 0:
            raise ValueError("loss rate must be nonnegative")
        K = math.sqrt(gamma_loss / delta_t) if gamma_loss > 0 else 0.0
        alpha = np.conj(F / K) if K > 0 else 0.0
        return cls(
            F=complex(F), Omega_drive=Omega_drive, gamma_loss=gamma_loss,
            delta_t=delta_t, alpha=complex(alpha), K=K,
            Phi=Omega_drive * delta_t,
        )

    def consistency_defect(self) -> float:
        return max(
            abs(np.conj(self.alpha) * self.K - self.F),
            abs(self.gamma_loss * self.delta_t - (self.K * self.delta_t) ** 2),
            abs(self.Phi - self.Omega_drive * self.delta_t),
        )


@dataclass
class SteadyStateReport:
    """Fixed point of the circulation channel plus its scalar observables."""

    rho_fix: DensityMatrix
    n_photon: float = 0.0
    P1: float = 0.0
    P2: float = 0.0
    p2_over_p1: float = float("nan")
    postselected_overlap: float = None
    iterations: int = 0
    residual: float = 0.0
    converged: bool = True


def _coherent_amplitudes(alpha: complex, cut: int):
    """Truncated, renormalized coherent-state amplitudes on 0..cut-1."""
    q = np.arange(cut)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, cut)))))
    amps = np.exp(-abs(alpha) ** 2 / 2) * alpha**q / np.exp(0.5 * log_fact)
    deficit = 1.0 - np.sum(np.abs(amps) ** 2)
    return amps / np.linalg.norm(amps), deficit


def _two_mode_orbit_unitaries(theta: float, a_cap: int, cut: int) -> dict:
    """exp(-i theta (b+ c + b c+)) restricted to n_b <= a_cap, n_c < cut,
    blocked by the conserved total s = n_b + n_c.  Returns
    {s: (levels, matrix)} with levels listing the admitted n_b values.

    Truncation note: capping either mode removes generator rows, so each
    (a_cap, cut) pair gets its own exactly-unitary exponential; slicing a
    larger orbit would not be unitary.
    """
    out = {}
    for s in range(a_cap + cut):
        levels = [a for a in range(min(s, a_cap) + 1) if s - a < cut]
        d = len(levels)
        g = np.zeros((d, d), dtype=complex)
        for idx, a in enumerate(levels):
            if idx + 1 < d and levels[idx + 1] == a + 1:
                # <a+1, q-1| b+ c |a, q> = sqrt((a+1) q),  q = s - a
                amp = theta * math.sqrt((a + 1) * (s - a))
                g[idx + 1, idx] = amp
                g[idx, idx + 1] = amp
        w, v = np.linalg.eigh(g)
        out[s] = (levels, (v * np.exp(-1j * w)) @ v.conj().T)
    return out


class DriveDissChannel:
    """Per-site drive/dissipation Kraus map on a multi-sector basis.

    The map leaves out the site's linear phase e^{i Phi n_site}, so nothing
    built here depends on Omega_drive: CirculationChannel applies every
    site's phase at once as one diagonal, and drive_diss_channel applies
    this site's.

    The Kraus operators are sparse: a photon can only move between the site
    and the ancilla, so each basis column couples to at most ancilla_cut
    rows.  A site with other-mode occupation r lives on the orbit family
    capped at n_max - r (the sector truncation), so one orbit table per cap
    is precomputed.
    """

    def __init__(self, basis: FockBasis, site: int, params: DriveDissParams,
                 ancilla_cut: int = 3):
        if ancilla_cut < 2:
            raise ValueError("ancilla needs at least two levels")
        if not 0 <= site < basis.n_modes:
            raise ValueError("site out of range")
        if basis.sectors != tuple(range(max(basis.sectors) + 1)):
            raise ValueError("drive channel needs contiguous sectors 0..N_max")
        self.basis = basis
        self.site = site
        self.params = params
        self.ancilla_cut = ancilla_cut

        amps, deficit = _coherent_amplitudes(params.alpha, ancilla_cut)
        if deficit > 1e-10:
            raise ValueError(
                f"coherent-state truncation deficit {deficit:.2e} > 1e-10; "
                "raise ancilla_cut"
            )
        n_max = max(basis.sectors)
        theta = params.K * params.delta_t
        orbit_by_cap = [
            _two_mode_orbit_unitaries(theta, cap, ancilla_cut)
            for cap in range(n_max + 1)
        ]

        occ = basis.occupations()
        n_site = occ[:, site]
        rest = basis.totals() - n_site
        # K_m[row, col] = sum_q amps[q] <a_out, m| U2 |a, q>, a_out = a+q-m
        self.kraus = []
        for m in range(ancilla_cut):
            rows, cols, vals = [], [], []
            for col in range(basis.dim):
                a = int(n_site[col])
                cap = n_max - int(rest[col])
                for q in range(ancilla_cut):
                    a_out = a + q - m
                    if not 0 <= a_out <= cap:
                        continue
                    levels, u2 = orbit_by_cap[cap][a + q]
                    val = u2[levels.index(a_out), levels.index(a)]
                    if val == 0.0:
                        continue
                    target = list(basis.states[col])
                    target[site] = a_out
                    rows.append(basis.index[tuple(target)])
                    cols.append(col)
                    vals.append(amps[q] * val)
            self.kraus.append(
                sp.csr_matrix(
                    (vals, (rows, cols)), shape=(basis.dim, basis.dim),
                    dtype=complex,
                )
            )

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros(rho.shape, dtype=complex)
        for k in self.kraus:
            tmp = k @ rho
            # (K rho) K+ computed as (K (K rho)+)+ to keep both products
            # in the fast sparse-times-dense path
            out += (k @ tmp.conj().T).conj().T
        return out

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


def drive_diss_channel(rho: DensityMatrix, site: int, params: DriveDissParams,
                       ancilla_cut: int = 3) -> DensityMatrix:
    """One application of the per-site drive/dissipation channel: the
    site's Kraus map, then its phase e^{i Phi n_site}."""
    ch = DriveDissChannel(rho.basis, site, params, ancilla_cut)
    phase = np.exp(1j * params.Phi * rho.basis.occupations()[:, site])
    out = ch.apply(rho.matrix)
    return DensityMatrix(rho.basis, (phase[:, None] * out) * phase.conj())


class CirculationChannel:
    """One full circulation: a Trotter Hamiltonian step as rho -> U rho U+,
    then the drive/dissipation channel on every site.

    The drive frequency enters only through the sites' phases e^{i Phi n_j},
    Phi = Omega_drive dt.  Each commutes with the other sites' Kraus maps,
    so ``__call__`` applies them all last, as one diagonal that multiplies
    rho_ab by e^{i Phi (N_a - N_b)}.  The step and the per-site maps are
    built without it, and ``at_omega`` returns the channel at another drive
    frequency that shares them.

    Below ``super_dim_limit`` the per-site channels are fused into sparse
    superoperators on vec(rho) (one matvec per site instead of dozens of
    small products); larger bases fall back to per-Kraus application.
    """

    def __init__(self, model: LatticeModel, delta_t: float,
                 params: DriveDissParams, n_max: int = 3,
                 ancilla_cut: int = 3, basis: FockBasis = None,
                 super_dim_limit: int = 256):
        self.model = model
        self.delta_t = delta_t
        self.basis = basis or enumerate_basis(model.n_sites, range(n_max + 1))
        u = sp.identity(self.basis.dim, dtype=complex, format="csr")
        for desc in trotter_step_sequence(model, delta_t,
                                          n_max=max(self.basis.sectors)):
            u = gate_matrix(desc, self.basis).entries @ u
        self.step = np.asarray(u.todense())
        self.sites = [
            DriveDissChannel(self.basis, j, params, ancilla_cut)
            for j in range(model.n_sites)
        ]
        self._supers = None
        if self.basis.dim <= super_dim_limit:
            self._supers = [site.as_superoperator() for site in self.sites]
        self._tune(params)

    def _tune(self, params: DriveDissParams):
        self.params = params
        n = self.basis.totals()
        self._phase = np.exp(1j * params.Phi * (n[:, None] - n[None, :]))

    def at_omega(self, Omega_drive: float) -> "CirculationChannel":
        """The channel at another drive frequency; it shares this one's
        step and per-site maps."""
        ch = copy.copy(self)
        ch._tune(replace(
            self.params, Omega_drive=Omega_drive,
            Phi=Omega_drive * self.params.delta_t,
        ))
        return ch

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        out = self.step @ rho @ self.step.conj().T
        if self._supers is not None:
            v = out.ravel()
            for s in self._supers:
                v = s @ v
            out = v.reshape(out.shape)
        else:
            for site in self.sites:
                out = site.apply(out)
        return self._phase * out


def full_circulation_channel(rho: DensityMatrix, model: LatticeModel,
                             delta_t: float, params: DriveDissParams,
                             ancilla_cut: int = 3) -> DensityMatrix:
    """Single application of the full circulation channel.  Build a
    CirculationChannel directly when iterating (it caches the step unitary
    and the per-site Kraus sets)."""
    ch = CirculationChannel(
        model, delta_t, params, n_max=max(rho.basis.sectors),
        ancilla_cut=ancilla_cut, basis=rho.basis,
    )
    return DensityMatrix(rho.basis, ch(rho.matrix))


def _trace_norm(mat: np.ndarray) -> float:
    return float(np.sum(np.linalg.svd(mat, compute_uv=False)))


def fixed_point(channel, initial_rho: DensityMatrix, tol: float = 1e-9,
                max_iter: int = 200_000) -> SteadyStateReport:
    """Iterate a trace-preserving channel to its fixed point by plain power
    iteration.

    Convergence is declared once sqrt(dim) * ||delta||_F < tol, which
    bounds the trace-norm criterion ||delta||_1 < tol; the report carries
    the exact trace-norm residual of one extra channel application.
    """
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
    residual = _trace_norm(final - rho)
    return SteadyStateReport(
        rho_fix=DensityMatrix(basis, rho),
        iterations=iterations,
        residual=residual,
        converged=converged and residual < 2 * tol,
    )


def steady_state_observables(report: SteadyStateReport,
                             ground_states: np.ndarray = None) -> SteadyStateReport:
    """Fill the scalar observables of a steady-state report in place.

    ground_states: (dim_sector2, 2) orthonormal columns spanning the target
    ground space; the postselected overlap is tr(Pi_g  Pi_2 rho Pi_2 / P2).
    """
    rho = report.rho_fix
    basis = rho.basis
    n_tot = basis.totals()
    diag = np.real(np.diag(rho.matrix))
    report.n_photon = float(np.sum(n_tot * diag))
    report.P1 = rho.sector_population(1) if 1 in basis.sectors else 0.0
    report.P2 = rho.sector_population(2) if 2 in basis.sectors else 0.0
    report.p2_over_p1 = report.P2 / report.P1 if report.P1 > 0 else float("nan")
    if ground_states is not None:
        if report.P2 < 1e-14:
            report.postselected_overlap = None
        else:
            sl = basis.sector_slice(2)
            block = rho.matrix[sl, sl] / report.P2
            g = np.asarray(ground_states)
            report.postselected_overlap = float(
                np.real(np.trace(g.conj().T @ block @ g))
            )
    return report


# ---------------------------------------------------------------------------
# single-photon-ancilla protocol (collision-limit integration)
# ---------------------------------------------------------------------------


@dataclass
class IncoherentParams:
    """Coupling, refresh probability, and the ancilla phase-gate offsets."""

    chi: float
    p_ref: float
    phi_1: float
    phi_2: float


@dataclass
class _SectorEig:
    energies: np.ndarray
    thetas: np.ndarray          # eigenphase angles, theta = -eps * dt
    vectors: np.ndarray


class IncoherentProtocol:
    """Collision-limit integrator for the single-photon-ancilla protocol."""

    def __init__(self, model: LatticeModel, delta_t: float, chi: float,
                 p_ref: float, n_max: int = 3):
        if not 0.0 <= p_ref <= 1.0:
            raise ValueError("p_ref must be a probability")
        if chi != 0.0 and p_ref == 0.0:
            raise ValueError(
                "the collision-limit integrator needs p_ref > 0 when the "
                "ancilla coupling is nonzero"
            )
        self.model = model
        self.delta_t = delta_t
        self.n_max = n_max
        self.sectors = []
        self.bases = []
        self._ground_idx = []
        for k in range(n_max + 1):
            basis = enumerate_basis(model.n_sites, {k})
            u = sp.identity(basis.dim, dtype=complex, format="csr")
            for desc in trotter_step_sequence(model, delta_t, n_max=max(k, 1)):
                u = gate_matrix(desc, basis).entries @ u
            res = effective_energies(np.asarray(u.todense()), delta_t, sector=k)
            self.bases.append(basis)
            self.sectors.append(
                _SectorEig(
                    energies=res.energies,
                    thetas=-res.energies * delta_t,
                    vectors=res.eigenvectors,
                )
            )
            # the effective energies wrap for high sectors at strong U (the
            # interaction tops exceed pi/dt), so the lowest-energy LABEL can
            # be an aliased state; anchor the physical ground through the
            # exact Hamiltonian's ground eigenvector instead
            if k == 0 or basis.dim == 1:
                self._ground_idx.append(0)
            else:
                h = exact_hamiltonian(model, basis).to_dense()
                w, v = np.linalg.eigh(h)
                overlaps = np.abs(res.eigenvectors.conj().T @ v[:, 0]) ** 2
                self._ground_idx.append(int(np.argmax(overlaps)))
        th_g = [
            s.thetas[g] for s, g in zip(self.sectors, self._ground_idx)
        ]
        phi_1 = th_g[2] - th_g[1]
        phi_2 = phi_1 + (th_g[3] - th_g[2] if n_max >= 3 else 0.0)
        self.params = IncoherentParams(chi=chi, p_ref=p_ref,
                                       phi_1=phi_1, phi_2=phi_2)
        self._build_rates()
        self.reset("vacuum")

    # -- rate machinery ----------------------------------------------------

    def _build_rates(self):
        chi, p_ref = self.params.chi, self.params.p_ref
        s = 1.0 - p_ref
        eps2 = math.sin(chi * self.delta_t) ** 2
        # ancilla phase-gate offsets for occupancies 0, 1, 2
        phi_anc = np.array([0.0, self.params.phi_1, self.params.phi_2])

        def kernel(delta):
            if eps2 == 0.0:
                return np.zeros_like(delta)
            den = 1.0 - 2.0 * s * np.cos(delta) + s * s
            return (1.0 - s * s) / den

        # per site and sector pair k -> k+1: rate matrices for the ancilla
        # channels 1 -> 0 (factor 1) and 2 -> 1 (factor 2)
        self._rates = []
        for j in range(self.model.n_sites):
            per_pair = []
            for k in range(self.n_max):
                lo, hi = self.sectors[k], self.sectors[k + 1]
                melem = self._bdag_eigen(j, k)      # (d_hi, d_lo)
                m2 = np.abs(melem) ** 2
                dth = hi.thetas[:, None] - lo.thetas[None, :]
                d10 = dth - (phi_anc[1] - phi_anc[0])
                d21 = dth - (phi_anc[2] - phi_anc[1])
                r1 = eps2 * 1.0 * m2 * kernel(d10)
                r2 = eps2 * 2.0 * m2 * kernel(d21)
                per_pair.append((r1, r2))
            self._rates.append(per_pair)

    def _bdag_eigen(self, site: int, k: int) -> np.ndarray:
        """<f, k+1| b_site^dag |i, k> in the step-unitary eigenbases."""
        lo_b, hi_b = self.bases[k], self.bases[k + 1]
        rows, cols, vals = [], [], []
        for col, occ in enumerate(lo_b.states):
            target = list(occ)
            target[site] += 1
            row = hi_b.index.get(tuple(target))
            if row is not None:
                rows.append(row)
                cols.append(col)
                vals.append(math.sqrt(occ[site] + 1))
        bdag = sp.csr_matrix(
            (vals, (rows, cols)), shape=(hi_b.dim, lo_b.dim), dtype=complex
        )
        lo, hi = self.sectors[k], self.sectors[k + 1]
        return hi.vectors.conj().T @ (bdag @ lo.vectors)

    # -- state handling ------------------------------------------------------

    def reset(self, init: str = "vacuum"):
        """init = "vacuum" (empty lattice) or "ground" (a two-photon ground
        state); ancillas start in one photon each."""
        self.populations = [np.zeros(b.dim) for b in self.bases]
        if init == "vacuum":
            self.populations[0][0] = 1.0
        elif init == "ground":
            self.populations[2][0] = 0.5
            self.populations[2][1] = 0.5
        else:
            raise ValueError(f"unknown initialization {init!r}")
        self.ancilla = np.tile(np.array([0.0, 1.0, 0.0]),
                               (self.model.n_sites, 1))

    def step(self):
        """One circulation: collision transfer flows, then ancilla refresh.

        For each site and sector pair k -> k+1, with rate matrices r1
        (ancilla 1 <-> 0) and r2 (ancilla 2 <-> 1):

            upward   flux[f] = q_src * sum_i r[f, i] p_k[i]
            downward flux[i] = q_src * sum_f r[f, i] p_{k+1}[f]

        and the same scalar flux moves the ancilla occupancy distribution.
        """
        p = self.populations
        dp = [np.zeros_like(x) for x in p]
        danc = np.zeros_like(self.ancilla)
        for j in range(self.model.n_sites):
            q0, q1, q2 = self.ancilla[j]
            for k in range(self.n_max):
                r1, r2 = self._rates[j][k]
                up1_in = q1 * (r1 @ p[k])           # anc 1->0, sys k->k+1
                dn1_in = q0 * (r1.T @ p[k + 1])     # anc 0->1, sys k+1->k
                up2_in = q2 * (r2 @ p[k])           # anc 2->1, sys k->k+1
                dn2_in = q1 * (r2.T @ p[k + 1])     # anc 1->2, sys k+1->k
                up1_out = q1 * r1.sum(axis=0) * p[k]
                dn1_out = q0 * r1.sum(axis=1) * p[k + 1]
                up2_out = q2 * r2.sum(axis=0) * p[k]
                dn2_out = q1 * r2.sum(axis=1) * p[k + 1]
                dp[k + 1] += up1_in + up2_in - dn1_out - dn2_out
                dp[k] += dn1_in + dn2_in - up1_out - up2_out
                f_up1, f_dn1 = float(up1_in.sum()), float(dn1_in.sum())
                f_up2, f_dn2 = float(up2_in.sum()), float(dn2_in.sum())
                danc[j, 0] += f_up1 - f_dn1
                danc[j, 1] += f_dn1 - f_up1 + f_up2 - f_dn2
                danc[j, 2] += f_dn2 - f_up2
        for k in range(self.n_max + 1):
            self.populations[k] += dp[k]
        self.ancilla += danc
        # probabilistic refresh as the exact convex mixture
        p_ref = self.params.p_ref
        self.ancilla = (1 - p_ref) * self.ancilla
        self.ancilla[:, 1] += p_ref

    def observables(self) -> dict:
        pk = np.array([x.sum() for x in self.populations])
        ground = float(self.populations[2][0] + self.populations[2][1])
        ks = np.arange(self.n_max + 1)
        n_mean = float(np.sum(ks * pk))
        n2_mean = float(np.sum(ks**2 * pk))
        return {
            "P0": float(pk[0]), "P1": float(pk[1]), "P2": float(pk[2]),
            "P3": float(pk[3]) if self.n_max >= 3 else 0.0,
            "ground_population": ground,
            "N_mean": n_mean,
            "N_var": n2_mean - n_mean**2,
        }

    def run(self, n_steps: int, record_every: int = 10) -> list:
        trace = [dict(step=0, **self.observables())]
        for n in range(1, n_steps + 1):
            self.step()
            if n % record_every == 0 or n == n_steps:
                trace.append(dict(step=n, **self.observables()))
        return trace


def incoherent_protocol_step(rho: DensityMatrix, model: LatticeModel,
                             delta_t: float, params: IncoherentParams,
                             protocol: IncoherentProtocol = None) -> DensityMatrix:
    """One circulation of the protocol applied to a system density matrix.

    The collision-limit map rotates coherences with the step unitary's
    eigenphases and moves populations along the transfer channels; pass a
    prebuilt protocol to amortize the sector diagonalizations.
    """
    if protocol is None:
        protocol = IncoherentProtocol(
            model, delta_t, params.chi, params.p_ref,
            n_max=max(rho.basis.sectors),
        )
    basis = rho.basis
    if basis.sectors != tuple(range(protocol.n_max + 1)):
        raise ValueError("density matrix must cover sectors 0..n_max")
    # eigenbasis blocks of the full multi-sector state
    blocks = []
    offset = 0
    v_all = np.zeros((basis.dim, basis.dim), dtype=complex)
    theta_all = np.zeros(basis.dim)
    for k in range(protocol.n_max + 1):
        d = protocol.bases[k].dim
        v_all[offset:offset + d, offset:offset + d] = protocol.sectors[k].vectors
        theta_all[offset:offset + d] = protocol.sectors[k].thetas
        blocks.append(slice(offset, offset + d))
        offset += d
    rho_eig = v_all.conj().T @ rho.matrix @ v_all
    # unitary part on coherences, collision flows on populations
    phase = np.exp(1j * theta_all)
    rho_eig = (phase[:, None] * rho_eig) * phase.conj()[None, :]
    diag = np.real(np.diag(rho_eig)).copy()
    protocol.populations = [diag[b].copy() for b in blocks]
    protocol.step()
    for k, b in enumerate(blocks):
        view = rho_eig[b, b]
        np.fill_diagonal(view, protocol.populations[k])
    out = v_all @ rho_eig @ v_all.conj().T
    return DensityMatrix(basis, out)
