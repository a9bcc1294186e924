import cmath
from fractions import Fraction

import numpy as np
import pytest

from timebin.fock import enumerate_basis
from timebin.gates import gate_matrix
from timebin.lattice import (
    build_bose_hubbard,
    build_fqh,
    edge_coloring,
    exact_hamiltonian,
    onsite_phase_table,
    step_operator,
    trotter_step_sequence,
)
from timebin.spectral import step_unitary


# the number of site (x, y), both wrapped onto the lattice
def site_index(model, x: int, y: int = 0) -> int:
    nx = model.shape[0]
    return (x % nx) + nx * (y % (model.shape[1] if len(model.shape) > 1 else 1))


# the flux checks' oracle: the gauge phase summed around one plaquette
def hop_phase(model, src: int, dst: int) -> float:
    """Gauge phase of the directed hop src -> dst (amplitude -J e^{i phase})."""
    for a, b, w in model.edges:
        if (a, b) == (src, dst):
            return cmath.phase(-w / model.J)
        if (a, b) == (dst, src):
            return -cmath.phase(-w / model.J)
    raise KeyError(f"no edge between {src} and {dst}")


def plaquette_flux(model, x: int, y: int) -> float:
    """Accumulated hopping phase / 2 pi around the plaquette with lower-left
    corner (x, y), oriented counterclockwise."""
    if model.geometry != "square":
        raise ValueError("plaquettes are defined for square lattices")
    def s(x, y):
        return site_index(model, x, y)
    loop = [
        (s(x, y), s(x + 1, y)),
        (s(x + 1, y), s(x + 1, y + 1)),
        (s(x + 1, y + 1), s(x, y + 1)),
        (s(x, y + 1), s(x, y)),
    ]
    total = sum(hop_phase(model, a, b) for a, b in loop)
    return total / (2 * np.pi)


def test_bose_hubbard_edges():
    m = build_bose_hubbard(2, 1.0, 0.0, boundary="open")
    assert m.edges == ((0, 1, complex(-1.0)),)
    m8 = build_bose_hubbard(8, 1.0, 0.0, boundary="periodic")
    assert len(m8.edges) == 8
    assert (7, 0, complex(-1.0)) in m8.edges
    with pytest.raises(ValueError):
        build_bose_hubbard(1, 1.0, 0.0)


def test_free_chain_spectrum_is_circulant():
    # U = 0 periodic chain: eigenvalues -2J cos(2 pi m / N), the circulant
    # diagonalization of the hopping matrix
    N, J = 8, 1.3
    m = build_bose_hubbard(N, J, 0.0, boundary="periodic")
    b1 = enumerate_basis(N, {1})
    ev = np.linalg.eigvalsh(exact_hamiltonian(m, b1).to_dense())
    oracle = np.sort([-2 * J * np.cos(2 * np.pi * k / N) for k in range(N)])
    assert np.allclose(ev, oracle, atol=1e-12)


def test_fqh_plaquette_fluxes():
    m = build_fqh(4, 4, 1.0, 0.0, 0.25)
    for x in range(4):
        for y in range(4):
            f = plaquette_flux(m, x, y) % 1.0
            assert f == pytest.approx(0.25, abs=1e-12)
    # zero flux reduces to the plain 2D lattice
    m0 = build_fqh(4, 4, 1.0, 0.0, 0.0)
    assert all(abs(cmath.phase(-w)) < 1e-12 for _, _, w in m0.edges)
    with pytest.raises(ValueError):
        build_fqh(4, 4, 1.0, 0.0, 0.3)  # non-integer total flux


def test_chain_coloring():
    m = build_bose_hubbard(8, 1.0, 0.0, boundary="periodic")
    groups = edge_coloring(m)
    assert len(groups) == 2
    assert sorted(len(g) for g in groups) == [4, 4]
    _assert_disjoint(m, groups)

    # odd periodic chain has no 2-coloring; falls back to 3 groups
    modd = build_bose_hubbard(5, 1.0, 0.0, boundary="periodic")
    godd = edge_coloring(modd)
    assert len(godd) == 3
    _assert_disjoint(modd, godd)


def test_square_coloring():
    m = build_fqh(4, 4, 1.0, 0.0, 0.25)
    groups = edge_coloring(m)
    assert len(groups) == 4
    assert all(len(g) == 8 for g in groups)
    _assert_disjoint(m, groups)
    assert sorted(e for g in groups for e in g) == list(range(len(m.edges)))


@pytest.mark.parametrize("nx,ny,phi", [(3, 3, 1 / 3), (3, 4, 0.25)],
                         ids=["torus3x3", "torus3x4"])
def test_odd_periodic_square_coloring(nx, ny, phi):
    # an odd periodic side has no parity split: on the 3x3 torus the wrap
    # edge (2, 0) would share site 0 with (0, 1)
    m = build_fqh(nx, ny, 1.0, 0.0, phi)
    groups = edge_coloring(m)
    _assert_disjoint(m, groups)
    assert sorted(e for g in groups for e in g) == list(range(len(m.edges)))


def _assert_disjoint(model, groups):
    for g in groups:
        touched = [s for e in g for s in model.edges[e][:2]]
        assert len(touched) == len(set(touched))


def test_group_generators_sum_to_hopping_hamiltonian():
    m = build_fqh(4, 4, 1.0, 0.0, 0.25)
    b = enumerate_basis(16, {1})
    h_full = exact_hamiltonian(m, b).to_dense()
    acc = np.zeros_like(h_full)
    for g in edge_coloring(m):
        part = type(m)(
            n_sites=m.n_sites, edges=tuple(m.edges[e] for e in g), U=0.0,
            geometry=m.geometry, shape=m.shape, boundary=m.boundary,
            J=m.J, phi_plaq=m.phi_plaq,
        )
        acc += exact_hamiltonian(part, b).to_dense()
    assert np.max(np.abs(acc - h_full)) < 1e-12


def test_sequence_structure():
    m = build_bose_hubbard(8, 1.0, 0.0, boundary="periodic")
    seq = trotter_step_sequence(m, 0.2, n_max=2)
    kinds = [d.kind for d in seq]
    assert kinds.count("beamsplitter") == 8
    assert kinds.count("number_phase") == 0  # U = 0 emits no phase gates

    mU = build_bose_hubbard(8, 1.0, 10.0, boundary="periodic")
    seqU = trotter_step_sequence(mU, 0.2, n_max=2)
    kindsU = [d.kind for d in seqU]
    assert kindsU[:8] == ["beamsplitter"] * 8
    assert kindsU[8:] == ["number_phase"] * 8


def test_onsite_phase_table():
    t = onsite_phase_table(10.0, 0.2, 4)
    assert t[0] == 0.0 and t[1] == 0.0
    assert t[2] == pytest.approx(-2.0)
    assert t[3] == pytest.approx(-6.0)


def test_step_commutes_with_total_number():
    m = build_bose_hubbard(4, 1.0, 3.0, boundary="periodic")
    b = enumerate_basis(4, {0, 1, 2})
    u = step_operator(m, 0.3, b)
    n_tot = np.diag(b.totals().astype(float))
    assert np.max(np.abs(u @ n_tot - n_tot @ u)) < 1e-10
    assert np.max(np.abs(u.conj().T @ u - np.eye(b.dim))) < 1e-10


def test_step_operator_is_block_diagonal_over_sectors():
    # the on-site phase table must reach the basis's top sector: a table cut
    # at n = 2 would extrapolate the sector-3 phase linearly
    m = build_bose_hubbard(4, 1.0, 10.0, boundary="periodic")
    b = enumerate_basis(4, range(4))
    u = step_operator(m, 0.25, b)
    want = np.zeros_like(u)
    for k in range(4):
        sl = b.sector_slice(k)
        want[sl, sl] = step_unitary(m, 0.25, k)
    assert np.array_equal(u, want)


def _gate_by_gate_step(model, dt, basis):
    """The plain reference: every gate of the step multiplied in turn onto
    a dense identity."""
    u = np.eye(basis.dim, dtype=complex)
    for desc in trotter_step_sequence(model, dt, n_max=max(basis.sectors)):
        u = gate_matrix(desc, basis).entries @ u
    return u


@pytest.mark.parametrize("model,sectors", [
    # four beamsplitter runs of 8 and one on-site run of 16, dim 969
    (build_fqh(4, 4, 1.0, 10.0, 0.25), range(4)),
    # a run that mixes two beamsplitters with two number-phase gates
    (build_fqh(2, 3, 1.0, 10.0, 0.25, boundary="open"), range(4)),
    # the odd ring's greedy 3-group coloring, and the even ring's 2 groups
    (build_bose_hubbard(5, 1.0, 10.0, boundary="periodic"), range(4)),
    (build_bose_hubbard(6, 1.0, 10.0, boundary="periodic"), range(4)),
    # U = 0: no on-site run
    (build_fqh(4, 4, 1.0, 0.0, 0.25), range(3)),
    # the odd torus's greedy coloring
    (build_fqh(3, 3, 1.0, 10.0, 1 / 3), range(4)),
], ids=["torus4x4", "open2x3", "ring5", "ring6", "free4x4", "torus3x3"])
def test_step_operator_matches_the_gate_by_gate_product(model, sectors):
    b = enumerate_basis(model.n_sites, sectors)
    u = step_operator(model, 0.25, b)
    assert np.max(np.abs(u - _gate_by_gate_step(model, 0.25, b))) <= 1e-13


def test_exact_hamiltonian_examples():
    m = build_bose_hubbard(2, 1.0, 4.0, boundary="open")
    b = enumerate_basis(2, {0, 1, 2})
    h = exact_hamiltonian(m, b).to_dense()
    vac, two = b.rank([(0, 0), (2, 0)])
    assert h[vac, vac] == 0.0
    assert h[two, two] == pytest.approx(4.0)  # (U/2) * 2 * 1
    assert np.max(np.abs(h - h.conj().T)) < 1e-14


def test_gauge_invariance_of_spectrum():
    # a random gauge transform preserves plaquette fluxes and the spectrum
    rng = np.random.default_rng(11)
    m = build_fqh(4, 4, 1.0, 10.0, 0.25)
    chi = rng.uniform(0, 2 * np.pi, size=m.n_sites)
    edges = tuple(
        (a, b, w * np.exp(1j * (chi[b] - chi[a]))) for a, b, w in m.edges
    )
    m2 = type(m)(
        n_sites=m.n_sites, edges=edges, U=m.U, geometry=m.geometry,
        shape=m.shape, boundary=m.boundary, J=m.J, phi_plaq=m.phi_plaq,
    )
    for x in range(4):
        for y in range(4):
            assert plaquette_flux(m2, x, y) % 1.0 == pytest.approx(0.25, abs=1e-9)
    b = enumerate_basis(16, {2})
    e1 = np.linalg.eigvalsh(exact_hamiltonian(m, b).to_dense())
    e2 = np.linalg.eigvalsh(exact_hamiltonian(m2, b).to_dense())
    assert np.max(np.abs(e1 - e2)) < 1e-9


@pytest.mark.parametrize(
    "model,dts",
    [
        (build_bose_hubbard(4, 1.0, 6.0, boundary="periodic"), (0.25, 0.125, 0.0625)),
        # U dt = 2.5 is outside the asymptotic regime at dt = 0.25, so the
        # square-lattice sweep starts one halving lower
        (build_fqh(2, 4, 1.0, 10.0, 0.25), (0.125, 0.0625, 0.03125)),
    ],
    ids=["chain", "square"],
)
def test_trotter_error_first_order(model, dts):
    # ||U_step - exp(-i H dt)|| = c dt^2 + O(dt^3): Richardson ratio ~ 4
    b = enumerate_basis(model.n_sites, {2})
    h = exact_hamiltonian(model, b).to_dense()
    w, v = np.linalg.eigh(h)
    errs = []
    for dt in dts:
        exact = (v * np.exp(-1j * w * dt)) @ v.conj().T
        u = step_operator(model, dt, b)
        errs.append(np.linalg.norm(u - exact, 2))
    for e0, e1 in zip(errs, errs[1:]):
        assert e0 / e1 == pytest.approx(4.0, rel=0.2)


def magnetic_translation(model, basis, dx, dy):
    """Fock-space operator of the site shift (x, y) -> (x + dx, y + dy)
    times the magnetic phase e^{2 pi i phi dx y n} of each site's photons."""
    nx, ny = model.shape
    occ = basis.occupations()
    x, y = np.arange(model.n_sites) % nx, np.arange(model.n_sites) // nx
    moved = np.zeros_like(occ)
    moved[:, site_index(model, x + dx, y + dy)] = occ
    t = np.zeros((basis.dim, basis.dim), dtype=complex)
    t[basis.rank(moved), np.arange(basis.dim)] = np.exp(
        2j * np.pi * model.phi_plaq * dx * (occ @ y))
    return t


def _commuting_shifts(nx, ny, phi):
    """Whether the magnetic T_x^2 and T_y^2 commute with the step, by the
    wrap phases: phi N_x and 2 phi N_y integers, and 2 phi N_x an integer."""
    return ((phi * nx).denominator == 1 and (2 * phi * ny).denominator == 1,
            (2 * phi * nx).denominator == 1)


# even tori up to 6x6 with integer total flux at flux 1/q, q <= 12, on
# which at least one of T_x^2 and T_y^2 commutes with the step
EVEN_TORI = [(nx, ny, Fraction(1, q))
             for nx in (2, 4, 6) for ny in (2, 4, 6) for q in (2, 3, 4, 6, 8, 12)
             if (nx * ny) % q == 0 and any(_commuting_shifts(nx, ny, Fraction(1, q)))]


@pytest.mark.parametrize("nx,ny,phi", EVEN_TORI, ids=str)
def test_translations_commute_with_the_step(nx, ny, phi):
    # a unit shift swaps the step's even and odd Trotter layers, so the
    # step commutes with shifts by two sites where the wrap phases allow
    # it; where both do, T_x^2 T_y^2 = e^{8 pi i phi N} T_y^2 T_x^2.
    # Sectors 1 and 2.
    model = build_fqh(nx, ny, 1.0, 10.0, float(phi))
    b = enumerate_basis(model.n_sites, {1, 2})
    u = step_operator(model, 0.25, b)
    tx2, ty2 = (magnetic_translation(model, b, 2, 0),
                magnetic_translation(model, b, 0, 2))
    x_ok, y_ok = _commuting_shifts(nx, ny, phi)
    if x_ok:
        assert np.max(np.abs(u @ tx2 - tx2 @ u)) < 1e-13
    if y_ok:
        assert np.max(np.abs(u @ ty2 - ty2 @ u)) < 1e-13
    if x_ok and y_ok:
        twist = np.exp(8j * np.pi * float(phi) * b.totals())
        assert np.max(np.abs(tx2 @ ty2 - twist[:, None] * (ty2 @ tx2))) < 1e-13


def test_unit_translations_on_the_quarter_flux_4x4_torus():
    # on the 4x4 torus at flux 1/4 the unit shifts commute with the step
    # too, and T_x T_y = e^{2 pi i phi N} T_y T_x.  The negative control:
    # on the 2x4 torus phi N_x = 1/2, and T_x^2 misses the step by 0.64
    model = build_fqh(4, 4, 1.0, 10.0, 0.25)
    b = enumerate_basis(16, {1, 2})
    u = step_operator(model, 0.25, b)
    tx, ty = (magnetic_translation(model, b, 1, 0),
              magnetic_translation(model, b, 0, 1))
    for t in (tx, ty):
        assert np.max(np.abs(u @ t - t @ u)) < 1e-13
    twist = np.exp(2j * np.pi * 0.25 * b.totals())
    assert np.max(np.abs(tx @ ty - twist[:, None] * (ty @ tx))) < 1e-13
    model = build_fqh(2, 4, 1.0, 10.0, 0.25)
    b = enumerate_basis(8, {1, 2})
    u = step_operator(model, 0.25, b)
    tx2 = magnetic_translation(model, b, 2, 0)
    assert np.max(np.abs(u @ tx2 - tx2 @ u)) > 0.5
