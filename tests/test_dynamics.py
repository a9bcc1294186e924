import numpy as np
import pytest
import scipy.linalg

from timebin.fock import DensityMatrix, enumerate_basis, product_fock_state
from timebin.lattice import build_fqh
from timebin.spectral import effective_energies, step_unitary
from timebin.dynamics import (
    CirculationChannel,
    DriveDissChannel,
    DriveDissParams,
    IncoherentProtocol,
    drive_diss_channel,
    fixed_point,
    full_circulation_channel,
    incoherent_protocol_step,
    steady_state_observables,
)


def lindblad_propagator(nlev, F, gamma, dt):
    """Dense superoperator expm of the exact drive + loss generator on a
    truncated single mode (row-major vec convention)."""
    b = np.diag(np.sqrt(np.arange(1, nlev)), 1)
    bd = b.conj().T
    h = F * b + np.conj(F) * bd
    eye = np.eye(nlev)
    lind = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    lind += gamma * (
        np.kron(b, b.conj())
        - 0.5 * np.kron(bd @ b, eye)
        - 0.5 * np.kron(eye, (bd @ b).T)
    )
    return scipy.linalg.expm(lind * dt)


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@pytest.fixture(scope="module")
def small_model():
    return build_fqh(2, 2, 1.0, 10.0, 0.25)


@pytest.fixture(scope="module")
def small_basis():
    return enumerate_basis(4, range(3))


def test_params_consistency():
    p = DriveDissParams.from_circuit(0.1, 0.01, -2.8, 0.25)
    assert p.consistency_defect() < 1e-12
    q = DriveDissParams.from_physical(p.F, p.Omega_drive, p.gamma_loss, 0.25)
    assert q.consistency_defect() < 1e-12
    assert q.K == pytest.approx(p.K)
    assert q.alpha == pytest.approx(p.alpha)


def test_zero_coupling_is_identity(small_basis):
    p = DriveDissParams.from_circuit(0.0, 0.0, 0.0, 0.25)
    rho = DensityMatrix(small_basis, random_density(small_basis.dim, 0))
    out = drive_diss_channel(rho, 1, p)
    assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-14


def test_pure_loss_keeps_vacuum(small_basis):
    p = DriveDissParams.from_circuit(0.3, 0.0, 0.0, 0.25)
    vac = product_fock_state(small_basis, (0,) * 4).to_density_matrix()
    out = drive_diss_channel(vac, 2, p)
    assert np.max(np.abs(out.matrix - vac.matrix)) < 1e-14


def test_kraus_trace_preserving(small_basis):
    p = DriveDissParams.from_circuit(0.2, 0.02, -1.0, 0.25)
    for site in range(4):
        ch = DriveDissChannel(small_basis, site, p)
        assert ch.kraus_defect() < 1e-12


def test_truncation_deficit_raises(small_basis):
    p = DriveDissParams.from_circuit(0.1, 0.9, 0.0, 0.25)
    with pytest.raises(ValueError, match="ancilla_cut"):
        DriveDissChannel(small_basis, 0, p, ancilla_cut=2)


def test_superoperator_path_matches_direct(small_basis):
    p = DriveDissParams.from_circuit(0.2, 0.02, -1.3, 0.25)
    ch = DriveDissChannel(small_basis, 1, p)
    rho = random_density(small_basis.dim, 3)
    direct = ch.apply(rho)
    s = ch.as_superoperator()
    via_super = (s @ rho.ravel()).reshape(rho.shape)
    assert np.max(np.abs(direct - via_super)) < 1e-13


def test_single_mode_channel_matches_lindblad_propagator():
    # per-step trace-norm error vanishes like dt^3 or faster when K and the
    # alpha/(K dt) ratio are held fixed
    basis = enumerate_basis(1, {0, 1, 2, 3})
    rho0 = random_density(4, 7)
    K, ratio = 0.4, 0.1
    errs = []
    dts = (0.2, 0.1, 0.05, 0.025)
    for dt in dts:
        p = DriveDissParams.from_circuit(K * dt, ratio * K * dt, 0.0, dt)
        ch = DriveDissChannel(basis, 0, p)
        out = ch.apply(rho0)
        prop = lindblad_propagator(4, p.F, p.gamma_loss, dt)
        exact = (prop @ rho0.ravel()).reshape(4, 4)
        errs.append(np.sum(np.linalg.svd(out - exact, compute_uv=False)))
    slopes = np.log(np.array(errs[:-1]) / errs[1:]) / np.log(2)
    assert np.all(slopes >= 2.7)


def test_first_order_generator(small_basis):
    # (eps[rho] - rho)/dt approximates the exact generator with O(dt) error
    basis = enumerate_basis(1, {0, 1, 2, 3})
    rho0 = random_density(4, 11)
    K, ratio = 0.5, 0.1
    defects = []
    for dt in (0.1, 0.05):
        p = DriveDissParams.from_circuit(K * dt, ratio * K * dt, 0.0, dt)
        ch = DriveDissChannel(basis, 0, p)
        fd = (ch.apply(rho0) - rho0) / dt
        b = np.diag(np.sqrt(np.arange(1, 4)), 1)
        h = p.F * b + np.conj(p.F) * b.conj().T
        bd = b.conj().T
        gen = -1j * (h @ rho0 - rho0 @ h) + p.gamma_loss * (
            b @ rho0 @ bd - 0.5 * (bd @ b @ rho0 + rho0 @ bd @ b)
        )
        defects.append(np.max(np.abs(fd - gen)) / np.max(np.abs(gen)))
    assert defects[1] < defects[0]
    assert defects[0] < 0.2


def test_channel_properties_random_inputs(small_model, small_basis):
    p = DriveDissParams.from_circuit(0.15, 0.015, -2.0, 0.25)
    ch = CirculationChannel(small_model, 0.25, p, n_max=2, basis=small_basis)
    for seed in range(3):
        rho = random_density(small_basis.dim, seed)
        out = ch(rho)
        assert abs(np.trace(out).real - 1) < 1e-9
        assert np.max(np.abs(out - out.conj().T)) < 1e-10
        assert np.linalg.eigvalsh(0.5 * (out + out.conj().T)).min() > -1e-8
    # hermiticity preserved on a random hermitian (non-state) input
    rng = np.random.default_rng(5)
    a = rng.normal(size=(small_basis.dim,) * 2) + 1j * rng.normal(
        size=(small_basis.dim,) * 2
    )
    herm = 0.5 * (a + a.conj().T)
    out = ch(herm)
    assert np.max(np.abs(out - out.conj().T)) < 1e-10


def test_channel_linearity(small_model, small_basis):
    p = DriveDissParams.from_circuit(0.15, 0.015, -2.0, 0.25)
    ch = CirculationChannel(small_model, 0.25, p, n_max=2, basis=small_basis)
    r1 = random_density(small_basis.dim, 1)
    r2 = random_density(small_basis.dim, 2)
    a, b = 0.3, 0.7
    lhs = ch(a * r1 + b * r2)
    rhs = a * ch(r1) + b * ch(r2)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_zero_params_is_pure_hamiltonian_step(small_model, small_basis):
    p = DriveDissParams.from_circuit(0.0, 0.0, 0.0, 0.25)
    ch = CirculationChannel(small_model, 0.25, p, n_max=2, basis=small_basis)
    rho = random_density(small_basis.dim, 4)
    expected = ch.step @ rho @ ch.step.conj().T
    assert np.max(np.abs(ch(rho) - expected)) < 1e-12


def test_full_circulation_channel_function(small_model, small_basis):
    p = DriveDissParams.from_circuit(0.1, 0.01, -2.0, 0.25)
    rho = DensityMatrix(small_basis, random_density(small_basis.dim, 9))
    out = full_circulation_channel(rho, small_model, 0.25, p)
    assert out.trace() == pytest.approx(1.0, abs=1e-9)


def test_drive_phase_factors_out_of_the_channel():
    # E_omega is the step, then per site its Kraus map followed by
    # e^{i Phi n_site}; the channel applies all site phases as one diagonal
    model = build_fqh(2, 4, 1.0, 10.0, 0.25)
    basis = enumerate_basis(8, range(3))
    occ = basis.occupations()
    spec2 = effective_energies(step_unitary(model, 0.25, 2), 0.25, sector=2)
    resonance = float(np.mean(spec2.energies[:2])) / 2

    def params(omega):
        return DriveDissParams.from_circuit(0.1, 0.01, omega, 0.25)

    base = CirculationChannel(model, 0.25, params(0.0), n_max=2, basis=basis)
    for omega in (0.0, resonance, -2.5, 1.3):
        p = params(omega)
        ch = CirculationChannel(model, 0.25, p, n_max=2, basis=basis)
        derived = base.at_omega(omega)
        assert derived.params.Omega_drive == omega
        for seed in range(2):
            rho = random_density(basis.dim, seed)
            want = ch.step @ rho @ ch.step.conj().T
            for j in range(8):
                kraus_only = DriveDissChannel(basis, j, p).apply(want)
                phase = np.exp(1j * p.Phi * occ[:, j])
                site = drive_diss_channel(DensityMatrix(basis, want), j, p)
                want = (phase[:, None] * kraus_only) * phase.conj()
                assert np.max(np.abs(site.matrix - want)) < 1e-15
            got = ch(rho)
            assert np.max(np.abs(got - want)) < 1e-12, omega
            assert np.array_equal(derived(rho), got), omega


def test_fixed_point_identity_channel(small_basis):
    rho0 = DensityMatrix(small_basis, random_density(small_basis.dim, 6))
    rep = fixed_point(lambda r: r, rho0, tol=1e-9)
    assert rep.iterations == 1
    assert rep.converged
    assert np.array_equal(rep.rho_fix.matrix, rho0.matrix)


def test_fixed_point_pure_loss_reaches_vacuum(small_basis):
    p = DriveDissParams.from_circuit(0.3, 0.0, 0.0, 0.25)
    sites = [DriveDissChannel(small_basis, j, p) for j in range(4)]

    def loss_channel(rho):
        for s in sites:
            rho = s.apply(rho)
        return rho

    rho0 = DensityMatrix(small_basis, random_density(small_basis.dim, 8))
    rep = fixed_point(loss_channel, rho0, tol=1e-10, max_iter=5000)
    assert rep.converged
    vac = np.zeros_like(rho0.matrix)
    vac[0, 0] = 1.0
    assert np.max(np.abs(rep.rho_fix.matrix - vac)) < 1e-7
    assert rep.residual < 2e-10


def test_observables_vacuum(small_basis):
    vac = product_fock_state(small_basis, (0,) * 4).to_density_matrix()
    from timebin.dynamics import SteadyStateReport

    rep = steady_state_observables(SteadyStateReport(rho_fix=vac))
    assert rep.n_photon == 0.0
    assert rep.P1 == 0.0 and rep.P2 == 0.0


def test_observables_postselection(small_model):
    # a pure sector-2 state overlapping its own projector gives 1
    basis = enumerate_basis(4, range(3))
    sl = basis.sector_slice(2)
    dim2 = sl.stop - sl.start
    rng = np.random.default_rng(12)
    g, _ = np.linalg.qr(rng.normal(size=(dim2, 2)) + 1j * rng.normal(size=(dim2, 2)))
    psi = np.zeros(basis.dim, dtype=complex)
    psi[sl] = g[:, 0]
    from timebin.dynamics import SteadyStateReport

    rep = SteadyStateReport(rho_fix=DensityMatrix(basis, np.outer(psi, psi.conj())))
    rep = steady_state_observables(rep, g)
    assert rep.P2 == pytest.approx(1.0)
    assert rep.postselected_overlap == pytest.approx(1.0, abs=1e-12)
    assert rep.n_photon == pytest.approx(2.0)


# --- incoherent protocol ---------------------------------------------------


@pytest.fixture(scope="module")
def small_protocol(small_model):
    return IncoherentProtocol(small_model, 0.25, chi=0.05, p_ref=0.02, n_max=3)


def test_protocol_phase_offsets_make_designed_transitions_resonant(small_protocol):
    prot = small_protocol
    th = [s.thetas[g] for s, g in zip(prot.sectors, prot._ground_idx)]
    # vacuum -> one-photon ladder rung and 1 -> 2 rung share phi_1 up to the
    # anharmonicity; the designed 1g->2g and 3g->2g lines are exact
    assert (th[2] - th[1]) - prot.params.phi_1 == pytest.approx(0.0, abs=1e-12)
    assert (th[3] - th[2]) - (prot.params.phi_2 - prot.params.phi_1) == (
        pytest.approx(0.0, abs=1e-12)
    )


def test_protocol_refresh_limit(small_model):
    prot = IncoherentProtocol(small_model, 0.25, chi=0.05, p_ref=1.0, n_max=3)
    prot.reset("vacuum")
    prot.ancilla[:] = np.array([0.3, 0.3, 0.4])
    prot.step()
    # p_ref = 1: every ancilla is exactly one photon after the step
    assert np.max(np.abs(prot.ancilla - np.array([0.0, 1.0, 0.0]))) < 1e-12


def test_protocol_requires_refresh_with_coupling(small_model):
    with pytest.raises(ValueError):
        IncoherentProtocol(small_model, 0.25, chi=0.05, p_ref=0.0)


def test_protocol_photon_bookkeeping(small_protocol):
    # the transfer flows conserve system + ancilla photons exactly; only
    # the refresh injects or removes them
    prot = small_protocol
    prot.reset("vacuum")
    for _ in range(400):
        prot.step()
    weights = np.array([0.0, 1.0, 2.0])
    before = prot.observables()["N_mean"] + float(np.sum(prot.ancilla @ weights))
    p_ref = prot.params.p_ref
    prot.step()
    # undo the refresh mixture to recover the post-flow ancilla state
    anc_flowed = (prot.ancilla - p_ref * np.array([0.0, 1.0, 0.0])) / (1 - p_ref)
    after_flows = prot.observables()["N_mean"] + float(np.sum(anc_flowed @ weights))
    assert after_flows == pytest.approx(before, abs=1e-10)


def test_protocol_populations_stay_normalized(small_protocol):
    prot = small_protocol
    prot.reset("ground")
    for _ in range(300):
        prot.step()
    total = sum(float(x.sum()) for x in prot.populations)
    assert total == pytest.approx(1.0, abs=1e-9)
    assert all(np.all(x > -1e-12) for x in prot.populations)
    assert np.all(prot.ancilla > -1e-12)
    assert np.max(np.abs(prot.ancilla.sum(axis=1) - 1)) < 1e-9


def test_incoherent_step_unitary_limit(small_model):
    # chi = 0, p_ref = 0: the system evolves unitarily, ancillas untouched
    basis = enumerate_basis(4, range(4))
    prot = IncoherentProtocol(small_model, 0.25, chi=0.0, p_ref=0.0, n_max=3)
    rho = DensityMatrix(basis, random_density(basis.dim, 21))
    out = incoherent_protocol_step(rho, small_model, 0.25, prot.params,
                                   protocol=prot)
    import scipy.sparse as sp
    from timebin.gates import gate_matrix
    from timebin.lattice import trotter_step_sequence

    u = sp.identity(basis.dim, dtype=complex, format="csr")
    for d in trotter_step_sequence(small_model, 0.25, n_max=3):
        u = gate_matrix(d, basis).entries @ u
    u = np.asarray(u.todense())
    expected = u @ rho.matrix @ u.conj().T
    assert np.max(np.abs(out.matrix - expected)) < 1e-9
    assert np.max(np.abs(prot.ancilla - np.array([0.0, 1.0, 0.0]))) < 1e-12


def test_incoherent_step_preserves_trace(small_model, small_protocol):
    basis = enumerate_basis(4, range(4))
    rho = DensityMatrix(basis, random_density(basis.dim, 22))
    out = incoherent_protocol_step(rho, small_model, 0.25,
                                   small_protocol.params,
                                   protocol=small_protocol)
    assert out.trace() == pytest.approx(1.0, abs=1e-9)
