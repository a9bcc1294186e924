"""Unitary gates of one Trotter step: beamsplitters and number-phase gates.

Sign convention, pinned once for the whole package: the beamsplitter
generator is

    G = theta * (e^{i phi} b_i b_j^dag + e^{-i phi} b_j b_i^dag)

and the gate is exp(-i G).  With theta = |w| dt and phi = arg(w) this is the
exact exponential of the hopping term  w b_j^dag b_i + h.c.  over one step.

Number-phase gates are diagonal, applying e^{i phi(n)} conditioned on the
photon count n of a single mode.  A finite phase table is extrapolated
linearly with its last increment beyond the table (cascade semantics: after
the programmable layers, every extra photon adds the same phase slope).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .fock import DensityMatrix, FockBasis, SectorOperator, StateVector

__all__ = [
    "GateDescriptor",
    "orbit_unitary",
    "beamsplitter_gate",
    "number_phase_gate",
    "apply_gate",
    "gate_matrix",
    "extend_phase_table",
]


@dataclass
class GateDescriptor:
    """Abstract gate: kind, target modes, parameters.

    kinds:
      beamsplitter  params = {"theta": J*dt, "phi": hopping phase}
      number_phase  params = {"table": phase per photon count, table[0] = 0}
    """

    kind: str
    modes: tuple
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.modes = tuple(int(m) for m in self.modes)
        if self.kind not in ("beamsplitter", "number_phase"):
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError("gate modes must be distinct")
        if self.kind == "beamsplitter" and len(self.modes) != 2:
            raise ValueError("beamsplitter acts on two modes")
        if self.kind == "number_phase":
            if len(self.modes) != 1:
                raise ValueError("a number-phase gate acts on one mode")
            table = np.asarray(self.params["table"], dtype=float)
            if table.size == 0 or table[0] != 0.0:
                raise ValueError("phase table must start at phi(0) = 0")


def extend_phase_table(table, n_max: int) -> np.ndarray:
    """Phase values for n = 0..n_max, linear in the last increment beyond
    the table."""
    table = np.asarray(table, dtype=float)
    slope = table[-1] - table[-2] if len(table) >= 2 else 0.0
    extra = np.arange(1, n_max - len(table) + 2)
    return np.concatenate((table[: n_max + 1], table[-1] + slope * extra))


def orbit_unitary(theta: float, phi: float, s: int, lo: int,
                  hi: int) -> np.ndarray:
    """exp(-i G), G = theta(e^{i phi} b_i b_j^dag + h.c.), on the window
    lo <= n_i <= hi of the orbit n_i + n_j = s:
    block[a - lo, b - lo] = <n_i = a, n_j = s - a| U |n_i = b, n_j = s - b>.

    The generator is tridiagonal on the window and is exponentiated by
    Hermitian eigendecomposition, so the block is unitary to machine
    precision.  A window narrower than 0..s drops the generator rows a
    truncated mode cannot reach; slicing a wider block would not be unitary.
    """
    ni = np.arange(lo + 1, hi + 1)
    # <n_i - 1, n_j + 1| b_i b_j^dag |n_i, n_j> = sqrt(n_i (n_j + 1))
    amp = theta * np.exp(1j * phi) * np.sqrt(ni * (s - ni + 1))
    w, v = np.linalg.eigh(np.diag(amp, 1) + np.diag(amp.conj(), -1))
    return (v * np.exp(-1j * w)) @ v.conj().T


def beamsplitter_gate(
    basis: FockBasis, i: int, j: int, theta: float, phi: float = 0.0
) -> SectorOperator:
    """Two-mode beamsplitter exp(-i G), G = theta(e^{i phi} b_i b_j^dag + h.c.).

    Number conserving and exactly unitary on any sector basis: the generator
    block-diagonalizes over n_i + n_j, and each block is the orbit unitary.
    """
    if i == j:
        raise ValueError("beamsplitter modes must differ")
    if not (0 <= i < basis.n_modes and 0 <= j < basis.n_modes):
        raise ValueError("mode index out of range")
    s_max = max(basis.sectors)
    # blocks[s, a, b]: the orbit unitary of n_i + n_j = s, zero above s
    blocks = np.zeros((s_max + 1,) * 3, dtype=complex)
    blocks[0, 0, 0] = 1.0       # the empty orbit, where exp(-i G) is 1
    for s in range(1, s_max + 1):
        blocks[s, : s + 1, : s + 1] = orbit_unitary(theta, phi, s, 0, s)
    occ = basis.occupations()
    s = occ[:, i] + occ[:, j]
    # amps[col, a]: amplitude from column col to n_i = a, zero above s
    amps = blocks[s[:, None], np.arange(s_max + 1), occ[:, i, None]]
    cols, ni_out = np.nonzero(amps)
    target = occ[cols]
    target[:, i] = ni_out
    target[:, j] = s[cols] - ni_out
    return SectorOperator(
        basis, basis.transfer(cols, target, amps[cols, ni_out])
    )


def number_phase_gate(basis: FockBasis, i: int, phase_table) -> SectorOperator:
    """Diagonal gate applying e^{i phi(n)} for n photons in mode i."""
    table = np.asarray(phase_table, dtype=float)
    if table.size == 0 or table[0] != 0.0:
        raise ValueError("phase table must start at phi(0) = 0")
    if not 0 <= i < basis.n_modes:
        raise ValueError("mode index out of range")
    full = extend_phase_table(table, max(basis.sectors))
    occ_i = basis.occupations()[:, i]
    diag = np.exp(1j * full[occ_i])
    # built as CSR arrays directly: sp.diags costs ~4x more on small bases
    idx = np.arange(basis.dim + 1)
    return SectorOperator(basis, sp.csr_matrix((diag, idx[:-1], idx),
                                               shape=(basis.dim,) * 2))


def gate_matrix(desc: GateDescriptor, basis: FockBasis) -> SectorOperator:
    """Concrete SectorOperator for an abstract gate descriptor."""
    if desc.kind == "beamsplitter":
        return beamsplitter_gate(
            basis, desc.modes[0], desc.modes[1],
            desc.params["theta"], desc.params.get("phi", 0.0),
        )
    return number_phase_gate(basis, desc.modes[0], desc.params["table"])


def apply_gate(state, gate: SectorOperator):
    """U|psi> for StateVector input, U rho U^dag for DensityMatrix input."""
    if not isinstance(state, (StateVector, DensityMatrix)):
        raise TypeError(f"cannot apply gate to {type(state).__name__}")
    if state.basis != gate.basis:
        raise ValueError("basis mismatch between state and gate")
    u = gate.entries
    if isinstance(state, StateVector):
        return StateVector(state.basis, u @ state.amplitudes)
    return DensityMatrix(state.basis, u @ state.matrix @ u.conj().T.tocsr())
