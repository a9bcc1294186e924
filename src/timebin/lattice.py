"""Bose-Hubbard chains and flux-lattice models, edge coloring, Trotter steps.

An edge (src, dst, w) contributes  w b_dst^dag b_src + conj(w) b_src^dag b_dst
to the Hamiltonian, i.e. w is the src -> dst hopping amplitude.  For uniform
hopping J > 0 the amplitude is w = -J e^{i phase} with the gauge phase of the
directed hop.

Square-lattice gauge (torus): horizontal hops carry phase 0 except the
x-boundary wrap links, which carry -2 pi phi_plaq N_x y; vertical hops at
column x carry 2 pi phi_plaq x (wrap included).  Every plaquette, wrap-around
plaquettes included, then encloses flux phi_plaq; consistency on the torus
requires integer total flux phi_plaq * N_x * N_y.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fock import FockBasis, SectorOperator
from .gates import GateDescriptor, gate_matrix

__all__ = [
    "LatticeModel",
    "build_bose_hubbard",
    "build_fqh",
    "edge_coloring",
    "trotter_step_sequence",
    "step_operator",
    "exact_hamiltonian",
    "onsite_phase_table",
]


@dataclass
class LatticeModel:
    """Sites, directed hopping edges, and on-site interaction strength."""

    n_sites: int
    edges: tuple            # ((src, dst, w), ...)
    U: float
    geometry: str           # "chain" | "square"
    shape: tuple            # (N_x,) or (N_x, N_y)
    boundary: str           # "open" | "periodic"
    J: float = 1.0
    phi_plaq: float = 0.0

    def site_xy(self, i: int):
        nx = self.shape[0]
        return i % nx, i // nx


def build_bose_hubbard(
    N_x: int, J: float, U: float, boundary: str = "periodic"
) -> LatticeModel:
    """1D chain with uniform real hopping -J and on-site (U/2) n(n-1)."""
    if N_x < 2:
        raise ValueError("chain needs at least 2 sites")
    if boundary not in ("open", "periodic"):
        raise ValueError(f"unknown boundary {boundary!r}")
    edges = [(i, i + 1, complex(-J)) for i in range(N_x - 1)]
    if boundary == "periodic":
        edges.append((N_x - 1, 0, complex(-J)))
    return LatticeModel(
        n_sites=N_x, edges=tuple(edges), U=U, geometry="chain",
        shape=(N_x,), boundary=boundary, J=J,
    )


def build_fqh(
    N_x: int, N_y: int, J: float, U: float, phi_plaq: float,
    boundary: str = "periodic",
) -> LatticeModel:
    """Square lattice with flux phi_plaq per plaquette in the gauge above."""
    if N_x < 2 or N_y < 2:
        raise ValueError("square lattice needs at least 2x2 sites")
    if boundary not in ("open", "periodic"):
        raise ValueError(f"unknown boundary {boundary!r}")
    total_flux = phi_plaq * N_x * N_y
    if boundary == "periodic" and abs(total_flux - round(total_flux)) > 1e-12:
        raise ValueError(
            f"periodic boundary needs integer total flux, got {total_flux}"
        )

    def idx(x, y):
        return (x % N_x) + N_x * (y % N_y)

    edges = []
    for y in range(N_y):
        for x in range(N_x):
            # rightward hop
            if x + 1 < N_x:
                edges.append((idx(x, y), idx(x + 1, y), complex(-J)))
            elif boundary == "periodic":
                phase = -2 * np.pi * phi_plaq * N_x * y
                edges.append((idx(x, y), idx(0, y), -J * np.exp(1j * phase)))
            # upward hop
            if y + 1 < N_y or boundary == "periodic":
                phase = 2 * np.pi * phi_plaq * x
                edges.append((idx(x, y), idx(x, y + 1), -J * np.exp(1j * phase)))
    return LatticeModel(
        n_sites=N_x * N_y, edges=tuple(edges), U=U, geometry="square",
        shape=(N_x, N_y), boundary=boundary, J=J, phi_plaq=phi_plaq,
    )


def edge_coloring(model: LatticeModel) -> tuple:
    """Partition edges into vertex-disjoint groups.

    Chain: even edges then odd edges.  Square lattice: horizontal-even,
    horizontal-odd, vertical-even, vertical-odd by the parity of the hop's
    base coordinate.  A periodic lattice with an odd side has no such
    parity split (its wrap edge shares a site with the edge from 0) and
    falls back to a greedy first-fit split.
    """
    if model.geometry not in ("chain", "square"):
        raise ValueError(f"no coloring rule for geometry {model.geometry!r}")
    if model.boundary == "periodic" and any(n % 2 for n in model.shape):
        return _greedy_coloring(model)
    if model.geometry == "chain":
        even, odd = [], []
        for e, (src, dst, _) in enumerate(model.edges):
            (even if src % 2 == 0 else odd).append(e)
        return tuple(g for g in (tuple(even), tuple(odd)) if g)
    he, ho, ve, vo = [], [], [], []
    for e, (src, dst, _) in enumerate(model.edges):
        x, y = model.site_xy(src)
        xd, yd = model.site_xy(dst)
        horizontal = yd == y
        if horizontal:
            (he if x % 2 == 0 else ho).append(e)
        else:
            (ve if y % 2 == 0 else vo).append(e)
    return tuple(g for g in (tuple(he), tuple(ho), tuple(ve), tuple(vo)) if g)


def _greedy_coloring(model: LatticeModel) -> tuple:
    groups = []
    for e, (src, dst, _) in enumerate(model.edges):
        for g in groups:
            if all(
                src not in model.edges[f][:2] and dst not in model.edges[f][:2]
                for f in g
            ):
                g.append(e)
                break
        else:
            groups.append([e])
    return tuple(tuple(g) for g in groups)


def onsite_phase_table(U: float, delta_t: float, n_max: int) -> np.ndarray:
    """phi(n) = -dt (U/2) n(n-1) for n = 0..n_max."""
    n = np.arange(n_max + 1)
    return -delta_t * (U / 2.0) * n * (n - 1)


def trotter_step_sequence(
    model: LatticeModel, delta_t: float, n_max: int
) -> list:
    """Gate descriptors of one first-order Trotter step.

    Beamsplitters group by group in coloring order, then number-phase gates
    on every site.  n_max is required: it bounds the exact quadratic phase
    table, and photon counts beyond it fall back to the (incorrect for
    quadratic f) linear extrapolation, so pass at least the largest sector
    in play.  step_operator takes it from the basis.
    """
    groups = edge_coloring(model)
    seq = []
    for group in groups:
        for e in group:
            src, dst, w = model.edges[e]
            seq.append(
                GateDescriptor(
                    "beamsplitter", (src, dst),
                    {"theta": abs(w) * delta_t, "phi": cmath.phase(w)},
                )
            )
    if model.U != 0.0:
        table = onsite_phase_table(model.U, delta_t, n_max)
        for i in range(model.n_sites):
            seq.append(GateDescriptor("number_phase", (i,), {"table": table}))
    return seq


def step_operator(model: LatticeModel, delta_t: float,
                  basis: FockBasis) -> np.ndarray:
    """Dense product of the gates of one Trotter step on the basis, with
    the exact on-site phase table up to the basis's largest sector.

    The sequence is applied one run at a time: a maximal stretch of
    consecutive gates whose modes are pairwise disjoint (on the 4x4 torus,
    four beamsplitter runs of 8 and one on-site run of 16).  Gates on
    disjoint modes commute, and on a basis of whole sectors each entry of
    their product is a product of single gate entries, with no sum, so a
    run's product is the gate-by-gate one to rounding.  A run's
    beamsplitters are multiplied as sparse matrices and applied in one
    sparse-dense product; its number-phase gates scale the rows by the
    product of their diagonals.
    """
    u = None
    for run in _disjoint_runs(
        trotter_step_sequence(model, delta_t, n_max=max(basis.sectors))
    ):
        gates = [gate_matrix(desc, basis).entries for desc in run]
        mixers = [g for g, desc in zip(gates, run) if desc.kind == "beamsplitter"]
        phases = [g.diagonal() for g, desc in zip(gates, run)
                  if desc.kind != "beamsplitter"]
        if mixers:
            mix = functools.reduce(lambda prod, g: g @ prod, mixers)
            u = mix.toarray() if u is None else mix @ u
        if phases:
            diag = np.prod(phases, axis=0)
            u = np.diag(diag) if u is None else np.multiply(diag[:, None], u,
                                                            out=u)
    return np.eye(basis.dim, dtype=complex) if u is None else u


def _disjoint_runs(seq: list) -> list:
    """Cut a gate sequence into maximal runs of pairwise mode-disjoint gates."""
    runs, modes = [], set()
    for desc in seq:
        if not runs or modes.intersection(desc.modes):
            runs.append([])
            modes = set()
        runs[-1].append(desc)
        modes.update(desc.modes)
    return runs


def _hop_matrix(basis: FockBasis, src: int, dst: int) -> sp.csr_matrix:
    """Number-conserving  b_dst^dag b_src  built directly on the basis
    (products of sector-restricted ladder operators would vanish when the
    intermediate sector is not represented)."""
    occ = basis.occupations()
    target = occ.copy()
    target[:, src] -= 1
    target[:, dst] += 1
    vals = np.sqrt(occ[:, src] * (occ[:, dst] + 1))
    return basis.transfer(np.arange(basis.dim), target, vals)


def exact_hamiltonian(model: LatticeModel, basis: FockBasis) -> SectorOperator:
    """Sparse  sum_edges (w b_dst^dag b_src + h.c.) + sum_i (U/2) n_i (n_i - 1)."""
    dim = basis.dim
    h = sp.csr_matrix((dim, dim), dtype=complex)
    for src, dst, w in model.edges:
        hop = _hop_matrix(basis, src, dst)
        h = h + w * hop + np.conj(w) * hop.conj().T
    occ = basis.occupations()
    diag = (model.U / 2.0) * np.sum(occ * (occ - 1), axis=1)
    h = h + sp.diags(diag.astype(complex), format="csr")
    return SectorOperator(basis, h.tocsr())
