import cmath

import numpy as np
import pytest

from timebin.fock import enumerate_basis
from timebin.lattice import (
    build_bose_hubbard,
    build_fqh,
    edge_coloring,
    exact_hamiltonian,
    onsite_phase_table,
    plaquette_flux,
    step_operator,
    trotter_step_sequence,
)
from timebin.spectral import step_unitary


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
