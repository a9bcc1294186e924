import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from timebin import cli, experiments, spectral
from timebin.dynamics import IncoherentProtocol
from timebin.fock import enumerate_basis
from timebin.lattice import (
    build_bose_hubbard,
    build_fqh,
    exact_hamiltonian,
    step_operator,
)
from timebin.spectral import (
    analytic_ground_state,
    effective_energies,
    ground_space,
    jacobi_theta,
    overlap_optimize,
    sector_spectra,
    step_unitary,
)

DT = 0.25


@pytest.fixture(scope="module")
def fqh_u10():
    return build_fqh(4, 4, 1.0, 10.0, 0.25)


@pytest.fixture(scope="module")
def fqh_u0():
    return build_fqh(4, 4, 1.0, 0.0, 0.25)


@pytest.fixture(scope="module")
def spec2_u10(fqh_u10):
    return sector_spectra(fqh_u10, DT, enumerate_basis(16, {2}))[2]


def test_step_unitary_basics(fqh_u10):
    u0 = step_unitary(fqh_u10, 0.0, 1)
    assert np.allclose(u0, np.eye(16), atol=1e-14)
    u2 = step_unitary(fqh_u10, DT, 2)
    assert u2.shape == (136, 136)
    assert np.max(np.abs(u2.conj().T @ u2 - np.eye(136))) < 1e-10


def test_effective_energies_identity():
    res = effective_energies(np.eye(5), DT)
    assert np.allclose(res.energies, 0.0)
    assert not res.aliased.any()


def test_effective_energies_match_hermitian_oracle():
    # exp(-i H dt) must reproduce the eigenvalues of H when inside the branch
    rng = np.random.default_rng(3)
    a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    h = 0.5 * (a + a.conj().T)
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * w * DT)) @ v.conj().T
    res = effective_energies(u, DT)
    assert np.max(np.abs(res.energies - np.sort(w))) < 1e-8
    # orthonormal eigenvectors even through degeneracies
    g = res.eigenvectors.conj().T @ res.eigenvectors
    assert np.max(np.abs(g - np.eye(9))) < 1e-9


def test_effective_energies_rejects_nonunitary():
    with pytest.raises(ValueError):
        effective_energies(np.diag([1.0, 0.5]), DT)


def test_effective_energies_rejects_a_jordan_block():
    # |diag T| = 1, but no orthonormal eigenbasis exists
    with pytest.raises(ValueError, match="not unitary"):
        effective_energies(np.array([[1.0, 1.0], [0.0, 1.0]]), DT)


def _haar(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_an_eigenvalue_on_the_first_pole_decomposes_silently(capfd):
    # -e^{i alpha_0} makes I + V singular for the first shift: the solver
    # moves on to the next one, and no LinAlgWarning reaches the user
    pole = -np.exp(1j * spectral.CAYLEY_SHIFTS[0])
    rng = np.random.default_rng(11)
    q = _haar(rng, 6)
    planted = np.concatenate([[pole], np.exp(1j * rng.uniform(-3, 3, 5))])
    for u in ((q * planted) @ q.conj().T, np.diag(planted),
              np.array([[0.0, 1.0], [1.0, 0.0]]) * -pole):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = effective_energies(u, DT)
        q_res, u_res = res.eigenvectors, res.eigenphases
        assert np.max(np.abs(u @ q_res - q_res * u_res)) <= spectral.UNITARY_TOL
        assert np.min(np.abs(u_res - pole)) < 1e-12
        assert np.max(np.abs(q_res.conj().T @ q_res - np.eye(len(u)))) < 1e-12
    assert capfd.readouterr().err == ""


@st.composite
def _planted_spectra(draw):
    """(seed, cluster sizes, their phases on a 100-point grid, and a phase
    within 1e-9 of the branch cut on either side)."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    slots = draw(st.lists(st.integers(1, 99), min_size=len(sizes),
                          max_size=len(sizes), unique=True))
    cut = draw(st.floats(1e-11, 1e-9)) * draw(st.sampled_from([1, -1]))
    return draw(st.integers(0, 2**32 - 1)), sizes, slots, cut


@settings(max_examples=60)
@given(_planted_spectra())
def test_effective_energies_recover_planted_degenerate_spectra(planted):
    seed, sizes, slots, cut = planted
    # arg u = +-(pi - |cut|): that energy lies within 4e-9 of -+pi/dt
    phases = [-np.pi + 2 * np.pi * s / 100 for s in slots] + [
        np.sign(cut) * (np.pi - abs(cut))]
    sizes = sizes + [1]
    arg = np.repeat(phases, sizes)
    q = _haar(np.random.default_rng(seed), len(arg))
    u = (q * np.exp(1j * arg)) @ q.conj().T
    res = effective_energies(u, DT)
    vecs = res.eigenvectors
    assert np.max(np.abs(u @ vecs - vecs * res.eigenphases)) <= (
        spectral.UNITARY_TOL)
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(len(arg)))) <= 1e-12
    planted_e = np.sort(-arg / DT)
    assert np.max(np.abs(res.energies - planted_e)) <= 1e-10
    assert np.array_equal(res.aliased, np.abs(planted_e) > np.pi / DT - 1e-6)
    assert res.aliased.sum() == 1
    by_energy = np.argsort(-np.asarray(phases), kind="stable")
    groups = spectral._manifolds(res.energies, np.arange(len(arg)), DT)
    assert [len(g) for g in groups] == [sizes[i] for i in by_energy]


def test_branch_cut_flagging():
    eps = np.pi / DT
    u = np.diag(np.exp(-1j * DT * np.array([0.0, eps - 1e-9])))
    res = effective_energies(u, DT)
    assert res.aliased.sum() == 1


def test_five_distinct_energies_at_u0(fqh_u0):
    spec2 = sector_spectra(fqh_u0, DT, enumerate_basis(16, {2}))[2]
    assert [len(m) for m in spec2.manifolds] == [10, 32, 52, 32, 10]


def test_manifolds_follow_the_degeneracy_rule(fqh_u10):
    # 4x4 torus at U = 10: 3 manifolds in sector 1 and 29 in sector 2, the
    # doublet one of them; the labels split into manifolds whose phases lie
    # within DEGENERACY_TOL, listed in ground-rule order
    spectra = sector_spectra(fqh_u10, DT, enumerate_basis(16, {1, 2}))
    for k, count in ((1, 3), (2, 29)):
        spec = spectra[k]
        assert len(spec.manifolds) == count
        labels = np.concatenate(spec.manifolds)
        assert np.array_equal(labels, spec.order)
        firsts = np.array([spec.eigenphases[m[0]] for m in spec.manifolds])
        for m, u in zip(spec.manifolds, firsts):
            assert np.max(np.abs(np.angle(spec.eigenphases[m] / u))) <= (
                spectral.DEGENERACY_TOL)
        gaps = np.abs(np.angle(firsts[:, None] / firsts))
        assert np.min(gaps + np.eye(count)) > 1e-4
    assert np.array_equal(spectra[2].manifolds[0], spectra[2].order[:2])


def test_a_manifold_may_straddle_the_branch_cut():
    # two phases 1e-12 apart on either side of -pi are one manifold, and it
    # comes first when the ground rule puts one of its labels first
    eps = np.pi / DT
    energies = np.array([-eps + 4e-13, 0.0, 1.0, eps - 4e-13])
    groups = spectral._manifolds(energies, np.array([3, 1, 2, 0]), DT)
    assert [list(g) for g in groups] == [[3, 0], [1], [2]]


def test_sector2_energies_are_pairwise_sums_at_u0(fqh_u0):
    e1 = effective_energies(step_unitary(fqh_u0, DT, 1), DT, 1).energies
    e2 = effective_energies(step_unitary(fqh_u0, DT, 2), DT, 2).energies
    sums = np.sort([e1[i] + e1[j] for i in range(16) for j in range(i, 16)])
    assert np.max(np.abs(np.sort(e2) - sums)) < 1e-8


def test_ground_doublet_and_gap(spec2_u10):
    gs = ground_space(spec2_u10)
    assert gs.gap == pytest.approx(0.28, abs=0.02)
    assert gs.degeneracy_split < 0.1 * gs.gap
    g = gs.states.conj().T @ gs.states
    assert np.max(np.abs(g - np.eye(2))) < 1e-9


def test_sector_spectra_doublet_is_the_protocols():
    # the spectrum and steady-state runs (sectors 1, 2) and the protocol
    # (sectors 0..3) read one ground and one degeneracy rule, so they pick
    # one doublet: on the 2x4 torus the protocol's two one-state manifolds
    model = build_fqh(2, 4, 1.0, 10.0, 0.25)
    spec2 = sector_spectra(model, DT, enumerate_basis(8, {1, 2}))[2]
    prot = IncoherentProtocol(model, DT, chi=0.05, p_ref=0.02, n_max=3)
    labels = np.concatenate([prot.sectors[2].manifolds[m] for m in prot.doublet])
    assert np.array_equal(spec2.order[:2], labels)
    assert np.array_equal(ground_space(spec2).states,
                          prot.sectors[2].eigenvectors[:, labels])


def test_jacobi_theta_identities():
    rng = np.random.default_rng(5)
    assert abs(jacobi_theta(0.5, 0.5, 0.0, 1j)) < 1e-14
    for _ in range(8):
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        odd = jacobi_theta(0.5, 0.5, -z, 1j) + jacobi_theta(0.5, 0.5, z, 1j)
        assert abs(odd) < 1e-12
        quasi = jacobi_theta(0.5, 0.5, z + 1, 1j) + jacobi_theta(0.5, 0.5, z, 1j)
        assert abs(quasi) < 1e-12
    with pytest.raises(ValueError):
        jacobi_theta(0.5, 0.5, 0.1, 1.0 - 0.2j)


def test_jacobi_theta_against_series_resummation():
    # compare against a brute-force wide-window summation
    z, tau = 0.37 - 0.21j, 0.4j
    n = np.arange(-200, 201)
    brute = np.sum(
        np.exp(1j * np.pi * tau * (n + 0.5) ** 2 + 2j * np.pi * (n + 0.5) * (z + 0.5))
    )
    assert jacobi_theta(0.5, 0.5, z, tau) == pytest.approx(brute, abs=1e-12)


def test_analytic_state_hard_core_zero_and_symmetry(fqh_u10):
    ana = analytic_ground_state(fqh_u10, 1)
    basis = ana.basis
    for k, occ in enumerate(basis.occupations()):
        if max(occ) == 2:
            assert abs(ana.amplitudes[k]) < 1e-9
    assert np.linalg.norm(ana.amplitudes) == pytest.approx(1.0)


def test_analytic_pair_linearly_independent(fqh_u10):
    a1 = analytic_ground_state(fqh_u10, 1).amplitudes
    a2 = analytic_ground_state(fqh_u10, 2).amplitudes
    assert abs(np.vdot(a1, a2)) < 0.99


def test_overlap_optimize_trivial_cases():
    e1 = np.array([1.0, 0.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0, 0.0], dtype=complex)
    e3 = np.array([0.0, 0.0, 1.0], dtype=complex)
    alpha, beta, val = overlap_optimize(e1, e1, e2)
    assert val == pytest.approx(1.0)
    assert abs(alpha) < 1e-12 and abs(beta) == pytest.approx(1.0)
    _, _, zero = overlap_optimize(e3, e1, e2)
    assert zero == pytest.approx(0.0)
    with pytest.raises(ValueError):
        overlap_optimize(e1, e1, e1)


def test_overlap_optimize_refuses_a_second_state_off_unit_norm():
    # an orthogonal but unnormalized second state would report an overlap
    # value above 1 (4 for 2 e2)
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    for a2 in (2 * e2, 0.5 * e2, 0 * e2):
        with pytest.raises(ValueError, match="orthonormal"):
            overlap_optimize(e2, e1, a2)


def test_overlap_optimize_beats_random_samples():
    rng = np.random.default_rng(17)
    dim = 6
    q, _ = np.linalg.qr(rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2)))
    ana = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    ana /= np.linalg.norm(ana)
    alpha, beta, val = overlap_optimize(ana, q[:, 0], q[:, 1])
    # optimality spot check against 1e4 random feasible (alpha, beta)
    samples = rng.normal(size=(10000, 2)) + 1j * rng.normal(size=(10000, 2))
    samples /= np.linalg.norm(samples, axis=1, keepdims=True)
    combos = samples[:, :1] * q[:, 1] + samples[:, 1:] * q[:, 0]
    vals = np.abs(combos.conj() @ ana) ** 2
    assert val >= vals.max() - 1e-12
    attained = abs(np.vdot(ana, alpha * q[:, 1] + beta * q[:, 0])) ** 2
    assert attained == pytest.approx(val, abs=1e-12)


def test_benchmark_overlap(fqh_u10, spec2_u10):
    gs = ground_space(spec2_u10)
    ana = analytic_ground_state(fqh_u10, 1)
    _, _, val = overlap_optimize(ana.amplitudes, gs.states[:, 0], gs.states[:, 1])
    assert val >= 0.90
    assert val == pytest.approx(0.945, abs=0.01)


def test_spectrum_summary_is_basis_free_in_the_doublet(tmp_path, monkeypatch):
    # the 4x4 doublet is exactly degenerate, so any orthonormal basis of its
    # span is an eigenbasis: alpha and beta are coefficients in the
    # solver's basis, while the overlap, gap and ground energy read only the
    # span and the energies
    cfg = cli.load_config("spectrum")
    plain = experiments.run_spectrum(cfg, str(tmp_path / "plain"))
    q = _haar(np.random.default_rng(23), 2)

    def rotated(*args):
        spectra = sector_spectra(*args)
        pair = spectra[2].order[:2]
        spectra[2].eigenvectors[:, pair] = spectra[2].eigenvectors[:, pair] @ q
        return spectra

    monkeypatch.setattr(experiments, "sector_spectra", rotated)
    turned = experiments.run_spectrum(cfg, str(tmp_path / "turned"))
    for key in ("overlap_value", "gap", "ground_energy"):
        assert turned[key] == pytest.approx(plain[key], abs=1e-12), key
    assert abs(turned["alpha_re"] - plain["alpha_re"]) > 1e-3


def test_trotter_energies_near_exact_hamiltonian(fqh_u10):
    # dt = 0.25 effective energies track the exact low-energy spectrum;
    # the doublon band top (|E| ~ U) picks up larger first-order Trotter
    # shifts but must stay inside the principal branch
    b2 = enumerate_basis(16, {2})
    h = exact_hamiltonian(fqh_u10, b2).to_dense()
    w = np.linalg.eigvalsh(h)
    res = effective_energies(step_unitary(fqh_u10, DT, 2), DT, 2)
    assert np.max(np.abs(res.energies[:2] - w[:2])) < 0.05
    assert np.max(np.abs(res.energies[:20] - w[:20])) < 0.3
    assert not res.aliased.any()


# (model, sectors, shift): the shift sector_spectra must pick in every
# sector but the one-state sector 0, and its number of momentum blocks
# is N_last / shift
MOMENTUM_LATTICES = {
    "4x4 torus": (lambda: build_fqh(4, 4, 1.0, 10.0, 0.25), range(4), 1),
    "2x4 torus": (lambda: build_fqh(2, 4, 1.0, 10.0, 0.25), range(1, 4), 2),
    # the unit shift misses this step by 7e-2
    "6x6 torus, flux 1/3": (lambda: build_fqh(6, 6, 1.0, 10.0, 1 / 3), [2], 2),
    "6-site ring": (lambda: build_bose_hubbard(6, 1.0, 10.0), range(1, 4), 2),
    "open 2x3": (lambda: build_fqh(2, 3, 1.0, 10.0, 0.2, boundary="open"),
                 range(1, 4), 3),
}


@pytest.mark.parametrize("name", MOMENTUM_LATTICES)
def test_momentum_blocks_match_the_full_solve(name):
    # the spectrum assembled from the momentum blocks against one solve of
    # the whole sector block: eigenphases, manifold sizes in energy order,
    # and the assembled eigenpairs under the full block's own contract
    build, sectors, shift = MOMENTUM_LATTICES[name]
    model = build()
    basis = enumerate_basis(model.n_sites, sectors)
    step = step_operator(model, DT, basis)
    spectra = sector_spectra(model, DT, basis)
    for k in sectors:
        spec = spectra[k]
        assert spec.shift == (shift if k else 1), k
        sl = basis.sector_slice(k)
        full = effective_energies(step[sl, sl], DT, k)
        assert np.max(np.abs(spec.eigenphases - full.eigenphases)) <= 1e-12
        by_energy = np.arange(len(full.energies))
        assert ([len(m) for m in spectral._manifolds(spec.energies, by_energy, DT)]
                == [len(m) for m in spectral._manifolds(full.energies, by_energy,
                                                        DT)]), k
        q = spec.eigenvectors
        assert np.max(np.abs(step[sl, sl] @ q - q * spec.eigenphases)) <= (
            spectral.UNITARY_TOL)
        assert np.max(np.abs(q.conj().T @ q - np.eye(len(q)))) <= 1e-12


def test_a_lattice_without_a_commuting_shift_is_one_block():
    # one hop amplitude of the 4x4 torus moved by 1e-3 breaks every
    # translation, and the open 2x3 lattice has none: each sector is one
    # block, and sector_spectra gives effective_energies' bits on it
    torus = build_fqh(4, 4, 1.0, 10.0, 0.25)
    (src, dst, w), *rest = torus.edges
    broken = dataclasses.replace(torus, edges=((src, dst, w + 1e-3), *rest))
    opened = build_fqh(2, 3, 1.0, 10.0, 0.2, boundary="open")
    for model, sectors in ((broken, (1, 2)), (opened, (1, 2, 3))):
        basis = enumerate_basis(model.n_sites, sectors)
        step = step_operator(model, DT, basis)
        spectra = sector_spectra(model, DT, basis)
        for k in sectors:
            spec = spectra[k]
            assert spec.shift == model.shape[-1]
            sl = basis.sector_slice(k)
            full = effective_energies(step[sl, sl], DT, k)
            for field in ("eigenphases", "energies", "eigenvectors", "aliased"):
                assert np.array_equal(getattr(spec, field),
                                      getattr(full, field)), (k, field)
