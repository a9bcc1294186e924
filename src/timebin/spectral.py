"""Step-unitary spectra, effective energies, and the torus two-photon
ground-state benchmark.

Effective-energy convention, pinned package-wide: a step unitary eigenvalue
u = e^{-i eps dt} defines eps = -arg(u) / dt, arg on (-pi, pi], so eps lies
on the principal branch [-pi/dt, pi/dt) and agrees with Hamiltonian
eigenvalues whenever U = exp(-i H dt) and |E| < pi/dt.  Eigenphases within
1e-6 of the branch cut are flagged as aliased.

Eigensolver, one path for every caller: ``_unitary_eig`` diagonalizes a
step unitary through its Hermitian Cayley transform.  For V = e^{-i alpha} U
the matrix C = i(2 (I + V)^{-1} - I) is Hermitian, has U's eigenvectors, and
maps V's eigenvalue e^{i theta} to tan(theta / 2).  One LU inverse and one
Hermitian eigensolve (``eigh``, driver evr) cost about half of a complex
Schur decomposition.  The result is kept only when U = Q diag(u) Q^dag holds
to UNITARY_TOL (see ``_unitary_eig``).

Momentum blocks: ``sector_spectra`` feeds ``_spectrum`` the blocks
of a lattice translation that commutes with the sector's step.  The
candidates shift the sites by s rows of the model's last axis (y on the
square lattice, x on a chain), i -> (i + s n_sites / N_last) mod n_sites,
for each s dividing N_last in ascending order; the first whose state
permutation T commutes with the step block to UNITARY_TOL, entry by entry,
is used.  Its N_last / s momentum blocks B_k^dag U B_k (sparse orbit
isometries B_k) are diagonalized one by one, each under the contract above,
and Q is the direct sum of the B_k Q_k.  The blocks are exact: the B_k
together are a unitary, U leaks out of a block only by its commutator with
T, and each block's residual is checked.  A model that no shorter shift
fits, an open lattice or a broken translation, reaches s = N_last, the
identity: one block, the sector's step itself, through the same code.  On
the 4x4 quarter-flux torus the unit shift commutes with every sector, and
the 816-state sector 3 splits into four blocks of 204 states, solved in
0.08 s against 0.69-0.72 s in one block; ``sector_spectra`` of sectors
0..3 takes 0.24 s, of which the dim-969 step build (``step_operator``)
is 0.06-0.07 s (2-core x86 host, BLAS on one thread, best of five).

Ground rule, pinned package-wide: at strong U a sector's interaction tops
wrap below its ground on the principal branch, so ``sector_spectra`` sorts
the labels by effective energy unwrapped, in steps of 2 pi/dt, onto the
branch of the eigenvector's mean exact energy <v|H|v>.  ``order[0]`` is the
sector's ground and ``order[:2]`` of sector 2 the two-photon ground doublet.
The rule only picks labels; energies and eigenvectors keep their order.

Degeneracy rule, pinned package-wide: two labels of a sector share a
manifold when their eigenphases lie within DEGENERACY_TOL of each other on
the unit circle, chained, so a cluster that straddles +-pi/dt is one
manifold.  ``sector_spectra`` lists each sector's manifolds in ground-rule
order, each manifold's labels too; the single-photon-ancilla protocol keeps
one population per manifold.  On the 2x4 and 4x4 tori the splittings
inside a manifold are <= 7e-15 and the gaps between manifolds >= 5e-4, so
any tolerance from 1e-12 to 1e-5 gives the same manifolds.

The analytic two-photon torus ground states combine a center-of-mass theta
factor, a Gaussian in the y coordinates, and the squared odd theta function
of the relative coordinate; a diagonal gauge map transfers them from the
holomorphic (x-hops carry the phase) gauge into this package's lattice gauge
(y-hops carry the phase).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .fock import FockBasis, enumerate_basis
from .lattice import LatticeModel, exact_hamiltonian, step_operator

__all__ = [
    "SpectralResult",
    "GroundSpace",
    "AnalyticGroundState",
    "step_unitary",
    "effective_energies",
    "sector_spectra",
    "ground_space",
    "jacobi_theta",
    "analytic_ground_state",
    "even_total_flux",
    "overlap_optimize",
]

BRANCH_CUT_TOL = 1e-6
DEGENERACY_TOL = 1e-9       # eigenphase distance within a manifold, radians
UNITARY_TOL = 1e-11         # max |U Q - Q diag(u)| and max ||u| - 1|
# alpha, tried in turn; alpha's pole -e^{i alpha} first sits on the branch
# cut, where a delta_t that resolves the spectrum leaves it thinnest
CAYLEY_SHIFTS = (0.0, 2.0, 4.0, 1.0)


@dataclass
class SpectralResult:
    """Eigenphases and effective energies of one sector's step unitary."""

    sector: int
    delta_t: float
    eigenphases: np.ndarray     # unit-circle eigenvalues, sorted by energy
    energies: np.ndarray        # eps = -arg(u)/dt, ascending
    eigenvectors: np.ndarray    # columns, orthonormal
    aliased: np.ndarray         # True where |eps| is within 1e-6 of pi/dt


@dataclass
class SectorSpectrum(SpectralResult):
    """A sector's spectrum with its labels and manifolds in ground-rule
    order."""

    order: np.ndarray           # labels by unwrapped energy, ground first
    manifolds: list             # label arrays of the degenerate manifolds
    shift: int                  # rows of the commuting shift the solve used


@dataclass
class GroundSpace:
    """A sector's ground doublet by the ground rule and the gap above it."""

    states: np.ndarray          # (dim, 2) orthonormal columns, ground first
    energies: np.ndarray        # (2,) their effective energies
    ground_energy: float        # eps_1
    gap: float                  # eps_3 - eps_2
    degeneracy_split: float     # eps_2 - eps_1


@dataclass
class AnalyticGroundState:
    """Torus two-photon wavefunction sampled on the lattice, normalized."""

    l: int
    amplitudes: np.ndarray
    basis: FockBasis


def step_unitary(model: LatticeModel, delta_t: float, sector: int) -> np.ndarray:
    """Dense product of all gates of one Trotter step, restricted to the
    given photon sector."""
    return step_operator(model, delta_t, enumerate_basis(model.n_sites, {sector}))


def effective_energies(
    u_matrix: np.ndarray, delta_t: float, sector: int = -1
) -> SpectralResult:
    """Diagonalize a unitary and convert eigenphases to effective energies:
    the spectrum of one block, the identity, under ``_unitary_eig``'s
    contract."""
    u_matrix = np.asarray(u_matrix, dtype=complex)
    eye = sp.identity(len(u_matrix), dtype=complex, format="csr")
    return _spectrum([eye], [u_matrix], delta_t, sector)


def _unitary_eig(u_matrix: np.ndarray):
    """Orthonormal eigenvectors Q and eigenphases u of a unitary.

    Q holds the eigenvectors of the Hermitian Cayley matrix of e^{-i alpha} U
    (module docstring), orthonormal also through degenerate clusters, and
    the eigenphases are the Rayleigh quotients u_i = q_i^dag U q_i.
    Contract: the result is kept only when max |U Q - Q diag(u)| and
    max ||u| - 1| are at most UNITARY_TOL, that is when U = Q diag(u) Q^dag
    is unitary to that tolerance.  An eigenvalue near a shift's pole spoils
    C, so the next of CAYLEY_SHIFTS is tried; when none holds, the input is
    not unitary: ValueError.
    """
    for alpha in CAYLEY_SHIFTS:
        try:
            q, u, defect = _cayley_eig(u_matrix, alpha)
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgWarning):
            continue        # an eigenvalue on (or at round-off from) the pole
        if defect <= UNITARY_TOL:
            return q, u
    raise ValueError("input is not unitary (no orthonormal eigenbasis "
                     "with unit-modulus eigenvalues)")


def _spectrum(blocks: list, mats, delta_t: float,
              sector: int) -> SpectralResult:
    """SpectralResult of a unitary U from its blocks B_k^dag U B_k (``mats``,
    taken one at a time) and their isometries B_k (``blocks``, together a
    unitary): each block's eigenpairs by ``_unitary_eig``, all labels in
    one stable sort by energy, and Q the direct sum of the B_k Q_k in that
    order.  Tied energies keep block order, then eigh order."""
    eigs = [_unitary_eig(m) for m in mats]
    u = np.concatenate([e[1] for e in eigs])
    energies = -np.angle(u) / delta_t
    order = np.argsort(energies, kind="stable")
    dest = np.argsort(order)        # each block column's place in Q
    q = np.empty((blocks[0].shape[0], len(u)), dtype=complex)
    start = 0
    for b, (q_k, _) in zip(blocks, eigs):
        q[:, dest[start:start + b.shape[1]]] = b @ q_k
        start += b.shape[1]
    energies = energies[order]
    return SpectralResult(
        sector=sector, delta_t=delta_t, eigenphases=u[order],
        energies=energies, eigenvectors=q,
        aliased=(np.pi / delta_t - np.abs(energies)) < BRANCH_CUT_TOL,
    )


def _cayley_eig(u_matrix: np.ndarray, alpha: float):
    """Eigenvectors Q of the Cayley matrix of e^{-i alpha} U, U's Rayleigh
    eigenphases on them, and the defect max(|U Q - Q diag(u)|, ||u| - 1|).

    Works in two n x n buffers besides U: C is built, inverted and
    diagonalized in place, and its spent buffer then holds U Q and the
    residual.  A singular or ill-conditioned I + V raises LinAlgError or
    LinAlgWarning."""
    n = len(u_matrix)
    diag = np.diag_indices(n)
    c = np.multiply(u_matrix, np.exp(-1j * alpha), order="F")
    c[diag] += 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
        # "general" skips scipy's structure probe, which (scipy 1.17)
        # crashes on a singular matrix it may overwrite
        c = scipy.linalg.inv(c, overwrite_a=True, assume_a="general")
    c *= 2j
    c[diag] -= 1j
    # eigh reads the lower triangle only, so C needs no symmetrizing copy
    q = scipy.linalg.eigh(c, overwrite_a=True, check_finite=False,
                          driver="evr")[1]
    resid = np.matmul(u_matrix, q, out=c)
    u = np.vecdot(q, resid, axis=0)
    resid -= q * u
    return q, u, max(np.max(np.abs(resid)), np.max(np.abs(np.abs(u) - 1.0)))


def sector_spectra(model: LatticeModel, delta_t: float,
                   basis: FockBasis) -> dict:
    """SectorSpectrum of each sector block of one Trotter step on the basis,
    by sector: its labels and manifolds in ground-rule order, solved in the
    momentum blocks of the smallest commuting shift, ``shift`` rows (module
    docstring)."""
    step = step_operator(model, delta_t, basis)
    h = exact_hamiltonian(model, basis).entries
    period = 2 * np.pi / delta_t
    spectra = {}
    for k in basis.sectors:
        sl = basis.sector_slice(k)
        u = np.ascontiguousarray(step[sl, sl])
        shift, perm = _commuting_shift(model, basis, k, u)
        blocks = _orbit_isometries(perm, model.shape[-1] // shift)
        res = _spectrum(blocks, ((b.conj().T @ u) @ b for b in blocks),
                        delta_t, k)
        del u
        v = res.eigenvectors
        mean_h = np.vecdot(v, h[sl, sl] @ v, axis=0).real
        unwrap = np.round((mean_h - res.energies) / period)
        order = np.argsort(res.energies + period * unwrap, kind="stable")
        spectra[k] = SectorSpectrum(**vars(res), order=order,
                                    manifolds=_manifolds(res.energies, order,
                                                         delta_t),
                                    shift=shift)
    return spectra


def _commuting_shift(model: LatticeModel, basis: FockBasis, sector: int,
                     u: np.ndarray):
    """The smallest s dividing N_last whose shift of the sites by s rows of
    the last axis, i -> (i + s n_sites / N_last) mod n_sites, commutes with
    the sector's step block u to UNITARY_TOL, and its permutation of the
    sector's states; s = N_last is the identity."""
    n_sites, n_last = model.n_sites, model.shape[-1]
    occ = basis.occupations()[basis.sector_slice(sector)]
    start = basis.sector_slice(sector).start
    moved = np.empty_like(occ)
    for s in (s for s in range(1, n_last + 1) if n_last % s == 0):
        moved[:, (np.arange(n_sites) + s * n_sites // n_last) % n_sites] = occ
        perm = basis.rank(moved) - start
        # T u T^-1 = u is u[perm[a], perm[b]] = u[a, b], checked 64 rows at
        # a time so that no second n x n array is made
        if s == n_last or all(
                np.max(np.abs(u[np.ix_(perm[a:a + 64], perm)] - u[a:a + 64]))
                <= UNITARY_TOL for a in range(0, len(u), 64)):
            return s, perm


def _orbit_isometries(perm: np.ndarray, m: int) -> list:
    """Sparse orbit isometries B_k, k = 0..m-1, of a state permutation T
    with T^m = 1, empty blocks left out.  An orbit r, T r, ..., T^{L-1} r
    (r its smallest state) carries the momentum state
    sum_j w^{-jk} |T^j r> / sqrt(L), w = e^{2 pi i / m}, for each k with
    m | L k; T multiplies it by w^k.  B_k's columns are these states in the
    order of r, so the B_k together are a unitary and B_k^dag U B_k holds U
    on momentum k whenever T commutes with U."""
    n = len(perm)
    powers = [np.arange(n)]
    for _ in range(m):
        powers.append(perm[powers[-1]])
    powers = np.array(powers)                   # powers[j, i] = T^j i
    length = 1 + np.argmax(powers[1:] == powers[0], axis=0)
    reps = np.flatnonzero(powers.min(axis=0) == powers[0])
    j = np.arange(m)[:, None]
    blocks = []
    for k in range(m):
        r = reps[(length[reps] * k) % m == 0]
        if not len(r):
            continue
        held = j < length[r]                    # (m, d_k): T^j r in the orbit
        cols = np.broadcast_to(np.arange(len(r)), held.shape)[held]
        vals = (np.exp(2j * np.pi * ((-j * k) % m) / m)
                / np.sqrt(length[r]))[held]
        blocks.append(sp.csr_matrix((vals, (powers[:m, r][held], cols)),
                                    shape=(n, len(r))))
    return blocks


def _manifolds(energies: np.ndarray, order: np.ndarray, delta_t: float) -> list:
    """Labels of ascending principal-branch energies grouped by the
    degeneracy rule, manifolds and their labels in the order of ``order``."""
    cuts = np.flatnonzero(np.diff(energies) * delta_t > DEGENERACY_TOL) + 1
    groups = np.split(np.arange(len(energies)), cuts)
    # the last cluster meets the first across the branch cut
    if len(groups) > 1 and (
            2 * np.pi + (energies[0] - energies[-1]) * delta_t <= DEGENERACY_TOL):
        groups[0] = np.concatenate([groups.pop(), groups[0]])
    rank = np.argsort(order)
    groups = [g[np.argsort(rank[g], kind="stable")] for g in groups]
    return sorted(groups, key=lambda g: rank[g[0]])


def ground_space(spec: SectorSpectrum) -> GroundSpace:
    """Ground doublet of a sector by the ground rule, with its gap."""
    e = spec.energies[spec.order[:3]]
    return GroundSpace(
        states=np.ascontiguousarray(spec.eigenvectors[:, spec.order[:2]]),
        energies=e[:2],
        ground_energy=float(e[0]),
        gap=float(e[2] - e[1]),
        degeneracy_split=float(e[1] - e[0]),
    )


def jacobi_theta(a: float, b: float, z: complex, tau: complex) -> complex:
    """Theta function with characteristics:
    sum_n exp(i pi tau (n+a)^2 + 2 pi i (n+a)(z+b)).

    The series is truncated once |n+a| is large enough that the Gaussian
    envelope falls below 1e-16 of the largest term kept.
    """
    tau = complex(tau)
    if tau.imag <= 0:
        raise ValueError("tau must have positive imaginary part")
    # envelope exp(-pi Im(tau) (n+a)^2 + 2 pi |Im(z)| |n+a|); solve for the
    # cutoff where it is 16 decades below the peak
    peak = abs(z.imag if isinstance(z, complex) else 0.0) / tau.imag
    width = np.sqrt(16.0 / (np.pi * tau.imag) * np.log(10.0))
    n_max = int(np.ceil(abs(a) + abs(peak) + width)) + 2
    n = np.arange(-n_max, n_max + 1, dtype=float)
    exponent = 1j * np.pi * tau * (n + a) ** 2 + 2j * np.pi * (n + a) * (
        complex(z) + b
    )
    return complex(np.sum(np.exp(exponent)))


def even_total_flux(model: LatticeModel) -> bool:
    """Whether the torus holds the even flux two analytic photons need."""
    nx, ny = model.shape
    half = model.phi_plaq * nx * ny / 2
    return abs(half - round(half)) <= 1e-12


def analytic_ground_state(model: LatticeModel, l: int) -> AnalyticGroundState:
    """Torus two-photon ground-state wavefunction on the sector-2 basis.

    psi(r1, r2) = F_cm(r1 + r2) * exp(-pi phi sum y_i^2)
                  * theta[1/2,1/2]((r1 - r2)/N_x | i N_y/N_x)^2

    with the center-of-mass factor
    F_cm(R) = theta[l/2, 0](2 R phi N_y/N_x | 2 i N_y/N_x).
    The result is multiplied by exp(i 2 pi phi x y) per particle to
    move from the holomorphic gauge (x-hops carry the phase, states are
    f(z) exp(-y^2 / 2 l_B^2)) into the lattice gauge, then normalized.

    The half-integer characteristics a_l = l/2 are the ones that leave the
    sampled product strictly periodic under lattice translations by
    (N_x, 0); on the 4x4 quarter-flux torus they reproduce the 94.5%
    ground-space overlap benchmark.
    """
    if model.geometry != "square":
        raise ValueError("analytic ground state requires a square torus")
    if not even_total_flux(model):
        raise ValueError("total flux must be even for a two-photon ground state")
    nx, ny = model.shape
    phi = model.phi_plaq
    if l not in (1, 2):
        raise ValueError("l must be 1 or 2")
    basis = enumerate_basis(model.n_sites, {2})
    tau_rel = 1j * ny / nx

    def first_quantized(i, j):
        x1, y1 = model.site_xy(i)
        x2, y2 = model.site_xy(j)
        r1 = x1 + 1j * y1
        r2 = x2 + 1j * y2
        rel = jacobi_theta(0.5, 0.5, (r1 - r2) / nx, tau_rel) ** 2
        cm = jacobi_theta(
            l / 2.0, 0.0, 2 * (r1 + r2) * phi * ny / nx, 2j * ny / nx
        )
        gauss = np.exp(-np.pi * phi * (y1**2 + y2**2))
        gauge = np.exp(1j * 2 * np.pi * phi * (x1 * y1 + x2 * y2))
        return cm * gauss * rel * gauge

    amps = np.zeros(basis.dim, dtype=complex)
    for k, occ in enumerate(basis.occupations().tolist()):
        i, j = [m for m, n in enumerate(occ) for _ in range(n)]
        value = first_quantized(i, j)
        # two-photon Fock amplitude: sqrt(2) psi(r_i, r_j) off the diagonal,
        # psi(r, r) on it (zero anyway for the hard-core zero)
        amps[k] = value * (np.sqrt(2.0) if i != j else 1.0)
    norm = np.linalg.norm(amps)
    if norm == 0:
        raise ValueError("analytic wavefunction vanished on the lattice")
    return AnalyticGroundState(l=l, amplitudes=amps / norm, basis=basis)


def overlap_optimize(psi_ana, psi_act_1, psi_act_2):
    """Best overlap of one analytic state with the actual ground doublet.

    With c_i = <act_i | ana>, the optimum of |<ana | (alpha act_2 + beta
    act_1)>|^2 over |alpha|^2 + |beta|^2 = 1 is |c_1|^2 + |c_2|^2, attained
    at (alpha, beta) = (c_2, c_1) / sqrt(value)  (Cauchy-Schwarz).

    The value depends only on the span of the pair.  For an exactly
    degenerate doublet (4x4 torus: split ~4e-15) the eigensolver's basis of
    that span is arbitrary, so alpha and beta are coefficients in that
    basis: a rotation of the pair moves them and leaves the value.
    """
    ana = np.asarray(psi_ana, dtype=complex)
    a1 = np.asarray(psi_act_1, dtype=complex)
    a2 = np.asarray(psi_act_2, dtype=complex)
    if (abs(np.vdot(a1, a2)) > 1e-8 or abs(np.linalg.norm(a1) - 1) > 1e-8
            or abs(np.linalg.norm(a2) - 1) > 1e-8):
        raise ValueError("actual pair must be orthonormal")
    c1 = np.vdot(a1, ana)
    c2 = np.vdot(a2, ana)
    value = float(abs(c1) ** 2 + abs(c2) ** 2)
    if value == 0.0:
        return 0.0 + 0j, 0.0 + 0j, 0.0
    alpha = c2 / np.sqrt(value)
    beta = c1 / np.sqrt(value)
    return alpha, beta, value
