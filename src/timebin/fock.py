"""Fock-sector bases, states, and sparse ladder operators for multimode bosons.

A basis is fully determined by ``n_modes`` and its total-photon
``sectors``; its states are one cached, read-only (dim, n_modes) array of
occupations, sectors ascending and lexicographic within each sector.
Everything here is immutable after construction and safe to share across
threads.

``FockBasis.rank`` is the one index from occupation rows back to basis
indices: a row's sector offset plus its lexicographic position inside the
sector, which the combinatorial number system gives in closed form
(Streltsov, Alon & Cederbaum, PRA 81, 022124 (2010)):

    position = sum_p C(r_p + m_p, m_p) - C(r_{p+1} + m_p, m_p)

with r_p the photons in modes p..n-1 and m_p = n - 1 - p.  Every operator
that moves photons between modes is built by ``FockBasis.transfer``: the
caller edits a copy of rows of the occupations array, and ``transfer``
ranks them and places the matrix elements.  An operator between sectors,
such as b^dag from sector k into k+1, is the
``[sector_slice(k + 1), sector_slice(k)]`` block of the operator built on
a basis holding both.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "FockBasis",
    "StateVector",
    "DensityMatrix",
    "SectorOperator",
    "enumerate_basis",
    "ladder_operator",
    "product_fock_state",
    "sector_dimension",
]


def sector_dimension(n_modes: int, k: int) -> int:
    """Number of occupation vectors of n_modes summing to k (stars and bars)."""
    return math.comb(n_modes + k - 1, k)


def _sector_blocks(n_modes: int, k_max: int) -> list:
    """Lexicographic occupations of n_modes modes summing to k, for each
    k = 0..k_max.  Adding a mode in front, the k block stacks the column c
    beside the k - c block of the modes after it, for c = 0..k."""
    blocks = [np.full((1, 1), k) for k in range(k_max + 1)]
    for _ in range(n_modes - 1):
        blocks = [
            np.vstack([
                np.column_stack((np.full(len(blocks[k - c]), c), blocks[k - c]))
                for c in range(k + 1)
            ])
            for k in range(k_max + 1)
        ]
    return blocks


@dataclass
class FockBasis:
    """Ordered basis of the occupations of ``n_modes`` bosonic modes over
    the total photon numbers ``sectors`` (any iterable of integers, stored
    as an ascending tuple).  Bases with equal inputs are equal."""

    n_modes: int
    sectors: tuple

    def __post_init__(self):
        sectors = sorted(set(self.sectors))
        if not (self.n_modes >= 1 and sectors and sectors[0] >= 0
                and all(k == int(k) for k in sectors)):
            raise ValueError("need n_modes >= 1 and nonempty integer sectors "
                             f">= 0, got {self.n_modes} and {sectors}")
        self.sectors = tuple(int(k) for k in sectors)
        k_max = self.sectors[-1]
        blocks = _sector_blocks(self.n_modes, k_max)
        self._occ = np.vstack([blocks[k] for k in self.sectors])
        self._totals = self._occ.sum(axis=1)
        self._occ.flags.writeable = self._totals.flags.writeable = False
        # rank tables: _binom[r, m] = C(r + m, m), and _offsets[k] = the
        # first index of sector k (states are sorted by total)
        self._binom = np.array([[math.comb(r + m, m) for m in range(self.n_modes)]
                                for r in range(k_max + 1)], dtype=np.int64)
        self._offsets = np.zeros(k_max + 1, dtype=np.int64)
        self._offsets[list(self.sectors)] = np.searchsorted(self._totals,
                                                            self.sectors)

    @property
    def dim(self) -> int:
        return len(self._occ)

    @functools.cached_property
    def index(self) -> dict:
        """Occupation tuple -> index, built on first access (see rank)."""
        return {occ: i for i, occ in enumerate(map(tuple, self._occ.tolist()))}

    def sector_slice(self, k: int) -> slice:
        """Contiguous index range of the k-photon sector."""
        if k not in self.sectors:
            raise KeyError(f"sector {k} not in basis")
        start = int(self._offsets[k])
        return slice(start, start + sector_dimension(self.n_modes, k))

    def totals(self) -> np.ndarray:
        """Total photon number of each basis state, built once, read-only."""
        return self._totals

    def occupations(self) -> np.ndarray:
        """(dim, n_modes) integer array of all occupation vectors, built once
        and read-only."""
        return self._occ

    def rank(self, occ_rows) -> np.ndarray:
        """Basis index of each occupation row, -1 where the row is not a
        basis state (a negative entry, or a total outside the sectors)."""
        occ = np.asarray(occ_rows, dtype=np.int64)
        if occ.ndim != 2 or occ.shape[1] != self.n_modes:
            raise ValueError(
                f"need rows of {self.n_modes} occupations, got {occ.shape}"
            )
        totals = occ.sum(axis=1)
        ok = np.all(occ >= 0, axis=1) & np.isin(totals, self.sectors)
        occ = np.where(ok[:, None], occ, 0)
        left = np.where(ok, totals, 0)      # r_p: photons in modes p..n-1
        pos = self._offsets[left]
        for p in range(self.n_modes):
            m = self.n_modes - 1 - p
            after = left - occ[:, p]
            pos += self._binom[left, m] - self._binom[after, m]
            left = after
        return np.where(ok, pos, -1)

    def transfer(self, cols, target, values) -> sp.csr_matrix:
        """Sparse (dim, dim) matrix with entry values[k] from basis state
        cols[k] to the occupation row target[k].  Targets that are not basis
        states are dropped, so an operator that changes the photon number
        keeps only the moves between sectors of this basis."""
        rows = self.rank(target)
        ok = rows >= 0
        return sp.csr_matrix(
            (np.asarray(values)[ok], (rows[ok], np.asarray(cols)[ok])),
            shape=(self.dim, self.dim), dtype=complex,
        )


def enumerate_basis(n_modes: int, sectors) -> FockBasis:
    """Enumerate the Fock basis of ``n_modes`` modes over the given sectors.

    Ordering is sectors ascending, occupations lexicographic within a sector,
    so indices (and downstream eigenvector phases) are reproducible.
    """
    return FockBasis(n_modes, sectors)


@dataclass
class StateVector:
    """Complex amplitudes over a FockBasis."""

    basis: FockBasis
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def to_density_matrix(self) -> "DensityMatrix":
        psi = self.amplitudes
        return DensityMatrix(self.basis, np.outer(psi, psi.conj()))


@dataclass
class DensityMatrix:
    """Hermitian unit-trace matrix over a FockBasis."""

    basis: FockBasis
    matrix: np.ndarray

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.conj().T))[0])

    def sector_population(self, k: int) -> float:
        sl = self.basis.sector_slice(k)
        return float(np.real(np.trace(self.matrix[sl, sl])))


@dataclass
class SectorOperator:
    """Sparse operator on a FockBasis."""

    basis: FockBasis
    entries: sp.csr_matrix

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def to_dense(self) -> np.ndarray:
        return self.entries.toarray()

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        d = self.entries - self.entries.conj().T
        return abs(d).max() <= tol if d.nnz else True

    def is_unitary(self, tol: float = 1e-10) -> bool:
        d = (self.entries.conj().T @ self.entries - sp.identity(self.dim)).tocoo()
        return abs(d).max() <= tol if d.nnz else True

    def conserves_number(self, tol: float = 1e-10) -> bool:
        n_tot = self.basis.totals()
        c = self.entries.tocoo()
        mism = n_tot[c.row] != n_tot[c.col]
        return not np.any(np.abs(c.data[mism]) > tol)


def ladder_operator(basis: FockBasis, mode: int, kind: str) -> SectorOperator:
    """Creation, annihilation, or number operator for one mode on the basis.

    Matrix elements follow the canonical convention <..,n+1,..|b+|..,n,..> =
    sqrt(n+1).  Entries whose target occupation lies outside the represented
    sector set are dropped (sector-restricted operator); include adjacent
    sectors in the basis if exactness across sectors is needed.
    """
    if not 0 <= mode < basis.n_modes:
        raise ValueError(f"mode {mode} out of range for {basis.n_modes} modes")
    if kind not in ("create", "annihilate", "number"):
        raise ValueError(f"unknown ladder kind {kind!r}")
    occ = basis.occupations()
    n = occ[:, mode]
    if kind == "number":
        cols = np.flatnonzero(n)
        return SectorOperator(basis, basis.transfer(cols, occ[cols], n[cols]))
    create = kind == "create"
    target = occ.copy()
    target[:, mode] += 1 if create else -1
    # sqrt(n + 1) up, sqrt(n) down
    mat = basis.transfer(np.arange(basis.dim), target, np.sqrt(n + create))
    return SectorOperator(basis, mat)


def product_fock_state(basis: FockBasis, occupation) -> StateVector:
    """Unit basis vector at the given occupation."""
    occ = tuple(int(n) for n in occupation)
    i = basis.rank([occ])[0]
    if i < 0:
        raise KeyError(f"occupation {occ} not in basis")
    amps = np.zeros(basis.dim, dtype=complex)
    amps[i] = 1.0
    return StateVector(basis, amps)
