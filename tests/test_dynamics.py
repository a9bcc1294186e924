from types import SimpleNamespace

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from timebin import dynamics, spectral
from timebin.fock import (
    DensityMatrix,
    enumerate_basis,
    ladder_operator,
    product_fock_state,
)
from timebin.lattice import (
    build_bose_hubbard,
    build_fqh,
    exact_hamiltonian,
    step_operator,
)
from timebin.spectral import effective_energies, step_unitary
from timebin.dynamics import (
    CirculationChannel,
    DriveDissChannel,
    DriveDissParams,
    IncoherentProtocol,
    fixed_point,
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


def random_hermitian(dim, seed):
    """A Hermitian matrix of unit trace norm with eigenvalues of both signs."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = a + a.conj().T
    return h / np.sum(np.abs(np.linalg.eigvalsh(h)))


# the per-Kraus reference: each Kraus operator of one site applied in turn
def apply_kraus(channel, rho: np.ndarray) -> np.ndarray:
    out = np.zeros(rho.shape, dtype=complex)
    for k in channel.kraus:
        tmp = k @ rho
        # (K rho) K+ computed as (K (K rho)+)+ to keep both products
        # in the fast sparse-times-dense path
        out += (k @ tmp.conj().T).conj().T
    return out


def per_kraus_call(channel, rho):
    """The circulation with the Kraus operators applied one by one: the
    upper triangle of U rho U+ mirrored to the full matrix, then each
    site's Kraus map, then the drive-phase diagonal."""
    out = np.triu(channel.step @ rho @ channel.step.conj().T)
    out += np.triu(out, 1).conj().T
    for site in channel.sites:
        out = apply_kraus(site, out)
    n = channel.basis.totals()
    return out * np.exp(1j * channel.params.Phi * (n[:, None] - n[None, :]))


def check_fused_call(fused):
    """The fused call against the per-Kraus reference and against the
    full-vec formula it folds: the site superoperators in pairs on
    vec(U rho U+), then the drive-phase diagonal; its output is bitwise
    Hermitian.  The fold keeps exactly the nonzeros of the pairs'
    upper-triangle rows; returns their share of the full pairs' nonzeros."""
    sites = [s.as_superoperator() for s in fused.sites]
    pairs = [sites[j + 1] @ sites[j] if j + 1 < len(sites) else sites[j]
             for j in range(0, len(sites), 2)]
    upper = np.flatnonzero(np.triu(np.ones((fused.basis.dim,) * 2)))
    nnz = sum(s.nnz for s in fused._supers)
    assert nnz == sum(s[upper].nnz for s in pairs)
    n = fused.basis.totals()
    phase = np.exp(1j * fused.params.Phi * (n[:, None] - n[None, :]))
    dim = fused.basis.dim
    for seed in range(2):
        for rho in (random_density(dim, seed), random_hermitian(dim, seed)):
            out = fused(rho)
            assert np.array_equal(out, out.conj().T)
            want = (fused.step @ rho @ fused.step.conj().T).ravel()
            for s in pairs:
                want = s @ want
            want = want.reshape(rho.shape) * phase
            assert np.max(np.abs(out - want)) < 1e-15
            assert np.max(np.abs(per_kraus_call(fused, rho) - out)) < 1e-15
    return nnz / sum(s.nnz for s in pairs)


def site_map(basis, site, p, rho):
    """One site's drive/dissipation step as the circuit runs it: the site's
    Kraus map, then its phase e^{i Phi n_site}."""
    out = apply_kraus(DriveDissChannel(basis, site, p), rho)
    phase = np.exp(1j * p.Phi * basis.occupations()[:, site])
    return (phase[:, None] * out) * phase.conj()


@pytest.fixture(scope="module")
def small_model():
    return build_fqh(2, 2, 1.0, 10.0, 0.25)


@pytest.fixture(scope="module")
def small_basis():
    return enumerate_basis(4, range(3))


def test_params_consistency(small_model, small_basis):
    # F, gamma_loss and Phi derive from the circuit (K, alpha, Omega_drive)
    p = DriveDissParams.from_circuit(0.1, 0.01, -2.8, 0.25)
    assert p.K * p.delta_t == pytest.approx(0.1)
    assert p.F == pytest.approx(np.conj(0.01) * 0.1 / 0.25)
    assert p.gamma_loss * 0.25 == pytest.approx(0.1**2)
    assert p.Phi == -2.8 * 0.25
    q = DriveDissParams.from_physical(p.F, p.Omega_drive, p.gamma_loss, 0.25)
    assert q.K == pytest.approx(p.K)
    assert q.alpha == pytest.approx(p.alpha)
    assert q.F == pytest.approx(p.F)
    assert q.Phi == p.Phi
    # a channel at another frequency carries that frequency's phase
    ch = CirculationChannel(small_model, 0.25, p, n_max=2, basis=small_basis)
    for omega in (0.0, 1.3, -2.5):
        moved = ch.at_omega(omega).params
        assert moved.Phi == omega * 0.25
        assert (moved.K, moved.alpha) == (p.K, p.alpha)


def test_a_drive_without_loss_is_refused():
    # gamma = 0 gives K = 0, and a circuit with K = 0 carries no drive
    with pytest.raises(ValueError, match="loss rate"):
        DriveDissParams.from_physical(0.1, -2.8, 0.0, 0.25)
    p = DriveDissParams.from_physical(0.0, -2.8, 0.0, 0.25)
    assert (p.K, p.F, p.gamma_loss) == (0.0, 0.0, 0.0)


def test_zero_coupling_is_identity(small_basis):
    p = DriveDissParams.from_circuit(0.0, 0.0, 0.0, 0.25)
    rho = random_density(small_basis.dim, 0)
    out = site_map(small_basis, 1, p, rho)
    assert np.max(np.abs(out - rho)) < 1e-14


def test_pure_loss_keeps_vacuum(small_basis):
    p = DriveDissParams.from_circuit(0.3, 0.0, 0.0, 0.25)
    vac = product_fock_state(small_basis, (0,) * 4).to_density_matrix().matrix
    out = site_map(small_basis, 2, p, vac)
    assert np.max(np.abs(out - vac)) < 1e-14


def test_kraus_trace_preserving(small_basis):
    p = DriveDissParams.from_circuit(0.2, 0.02, -1.0, 0.25)
    for site in range(4):
        ch = DriveDissChannel(small_basis, site, p)
        assert ch.kraus_defect() < 1e-12


@settings(max_examples=40)
@given(
    n_modes=st.integers(1, 4), n_max=st.integers(0, 3),
    cut=st.integers(3, 4), k_dt=st.floats(0.0, 0.3),
    abs_alpha=st.floats(0.0, 0.05), arg_alpha=st.floats(-np.pi, np.pi),
    data=st.data(),
)
def test_random_drive_channels_are_trace_preserving(
        n_modes, n_max, cut, k_dt, abs_alpha, arg_alpha, data):
    alpha = abs_alpha * np.exp(1j * arg_alpha)
    # the channel refuses a coherent state its ancilla_cut truncates
    try:
        dynamics.check_ancilla_cut(alpha, cut)
    except ValueError:
        assume(False)
    basis = enumerate_basis(n_modes, range(n_max + 1))
    site = data.draw(st.integers(0, n_modes - 1))
    p = DriveDissParams.from_circuit(k_dt, alpha, -2.0, 0.25)
    assert DriveDissChannel(basis, site, p, cut).kraus_defect() < 1e-12


def test_truncation_deficit_raises(small_basis):
    p = DriveDissParams.from_circuit(0.1, 0.9, 0.0, 0.25)
    with pytest.raises(ValueError, match="ancilla_cut"):
        DriveDissChannel(small_basis, 0, p, ancilla_cut=2)


def test_superoperator_path_matches_direct(small_basis):
    p = DriveDissParams.from_circuit(0.2, 0.02, -1.3, 0.25)
    ch = DriveDissChannel(small_basis, 1, p)
    rho = random_density(small_basis.dim, 3)
    direct = apply_kraus(ch, rho)
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
        out = apply_kraus(ch, rho0)
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
        fd = (apply_kraus(ch, rho0) - rho0) / dt
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


def test_channel_rejects_a_basis_off_its_sectors(small_model, small_basis):
    # the basis must be the model's sites over sectors 0..n_max
    p = DriveDissParams.from_circuit(0.1, 0.01, 0.0, 0.25)
    for n_max, basis in ((3, small_basis), (2, enumerate_basis(4, {0, 2})),
                         (2, enumerate_basis(5, range(3)))):
        with pytest.raises(ValueError):
            CirculationChannel(small_model, 0.25, p, n_max=n_max, basis=basis)


def test_per_kraus_path_matches_fused():
    # the 2x4 basis (dim 45): the pair superoperators against the Kraus
    # operators applied one by one
    model = build_fqh(2, 4, 1.0, 10.0, 0.25)
    basis = enumerate_basis(8, range(3))
    p = DriveDissParams.from_circuit(0.1, 0.01, -2.5, 0.25)
    fused = CirculationChannel(model, 0.25, p, n_max=2, basis=basis)
    # the upper triangle holds about half of every pair's rows
    assert check_fused_call(fused) <= 0.55


def test_odd_site_count_keeps_a_single_last_superoperator():
    # three sites fuse into one pair and one single; the channel carries a
    # drive phase, which it and the per-Kraus reference apply last as one
    # diagonal
    model = build_bose_hubbard(3, 1.0, 10.0)
    basis = enumerate_basis(3, range(3))
    p = DriveDissParams.from_circuit(0.2, 0.02, -1.7, 0.25)
    fused = CirculationChannel(model, 0.25, p, n_max=2, basis=basis)
    assert len(fused._supers) == 2
    check_fused_call(fused)


def test_channel_refuses_a_basis_above_its_bound():
    # the 4x5 lattice over sectors 0..3 holds 1,771 states
    model = build_fqh(4, 5, 1.0, 10.0, 0.25)
    basis = enumerate_basis(20, range(4))
    assert basis.dim == 1771 > dynamics.MAX_CHANNEL_STATES
    p = DriveDissParams.from_circuit(0.1, 0.01, -2.5, 0.25)
    with pytest.raises(ValueError, match="MAX_CHANNEL_STATES"):
        CirculationChannel(model, 0.25, p, n_max=3, basis=basis)


def test_channel_refuses_params_at_another_circulation_time(small_model,
                                                            small_basis):
    # params.delta_t sets K dt and the drive phase, delta_t the step: a
    # mismatch would drive at the wrong frequency
    p = DriveDissParams.from_circuit(0.1, 0.01, -2.5, 0.2)
    with pytest.raises(ValueError, match="circulation time"):
        CirculationChannel(small_model, 0.25, p, n_max=2, basis=small_basis)
    CirculationChannel(small_model, 0.2, p, n_max=2, basis=small_basis)


def test_at_omega_leaves_its_base_and_shares_the_unphased_pairs(
        small_model, small_basis):
    def params(omega):
        return DriveDissParams.from_circuit(0.15, 0.015, omega, 0.25)

    base = CirculationChannel(small_model, 0.25, params(0.0), n_max=2,
                              basis=small_basis)
    derived = [base.at_omega(omega) for omega in (-2.5, 1.3)]
    fresh = CirculationChannel(small_model, 0.25, params(0.0), n_max=2,
                               basis=small_basis)
    rho = random_density(small_basis.dim, 9)
    assert np.array_equal(base(rho), fresh(rho))
    assert not np.array_equal(derived[0](rho), derived[1](rho))
    # the drive phase is one diagonal of its own, so every fused
    # superoperator is shared
    for ch in derived:
        assert len(ch._supers) == len(base._supers)
        assert all(a is b for a, b in zip(ch._supers, base._supers))


def test_drive_phase_factors_out_of_the_channel():
    # E_omega is the step, then per site its Kraus map followed by
    # e^{i Phi n_site}; the channel applies all site phases as one diagonal
    model = build_fqh(2, 4, 1.0, 10.0, 0.25)
    basis = enumerate_basis(8, range(3))
    spec2 = effective_energies(step_unitary(model, 0.25, 2), 0.25, sector=2)
    resonance = float(np.mean(spec2.energies[:2])) / 2

    def params(omega):
        return DriveDissParams.from_circuit(0.1, 0.01, omega, 0.25)

    base = CirculationChannel(model, 0.25, params(0.0), n_max=2, basis=basis)
    unphased = [DriveDissChannel(basis, j, params(0.0)) for j in range(8)]
    for omega in (0.0, resonance, -2.5, 1.3):
        p = params(omega)
        ch = CirculationChannel(model, 0.25, p, n_max=2, basis=basis)
        derived = base.at_omega(omega)
        assert derived.params.Omega_drive == omega
        for seed in range(2):
            rho = random_density(basis.dim, seed)
            want = ch.step @ rho @ ch.step.conj().T
            for j in range(8):
                # a site's Kraus map carries no drive phase
                assert np.array_equal(
                    apply_kraus(DriveDissChannel(basis, j, p), want),
                    apply_kraus(unphased[j], want))
                want = site_map(basis, j, p, want)
            got = ch(rho)
            assert np.max(np.abs(got - want)) < 1e-12, omega
            assert np.array_equal(derived(rho), got), omega


def test_fixed_point_identity_channel(small_basis):
    rho0 = DensityMatrix(small_basis, random_density(small_basis.dim, 6))
    rep = fixed_point(lambda r: r, rho0, tol=1e-9)
    assert rep.iterations == 1
    assert rep.converged
    assert np.array_equal(rep.rho_fix.matrix, rho0.matrix)


def test_fixed_point_refuses_a_non_hermitian_start(small_basis):
    # the fused channel reads only the upper triangle of its input
    calls = []

    def channel(rho):
        calls.append(rho)
        return rho

    rho = random_density(small_basis.dim, 3)
    rho[0, 1] += 1e-9
    with pytest.raises(ValueError, match="not Hermitian"):
        fixed_point(channel, DensityMatrix(small_basis, rho))
    assert not calls


def test_fixed_point_pure_loss_reaches_vacuum(small_basis):
    p = DriveDissParams.from_circuit(0.3, 0.0, 0.0, 0.25)
    sites = [DriveDissChannel(small_basis, j, p) for j in range(4)]

    def loss_channel(rho):
        for s in sites:
            rho = apply_kraus(s, rho)
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
    obs = steady_state_observables(vac)
    assert list(obs) == ["n_photon", "P1", "P2", "P2_over_P1", "overlap"]
    assert obs["n_photon"] == 0.0
    assert obs["P1"] == 0.0 and obs["P2"] == 0.0
    assert np.isnan(obs["P2_over_P1"]) and np.isnan(obs["overlap"])


def test_observables_postselection(small_model):
    # a pure sector-2 state overlapping its own projector gives 1
    basis = enumerate_basis(4, range(3))
    sl = basis.sector_slice(2)
    dim2 = sl.stop - sl.start
    rng = np.random.default_rng(12)
    g, _ = np.linalg.qr(rng.normal(size=(dim2, 2)) + 1j * rng.normal(size=(dim2, 2)))
    psi = np.zeros(basis.dim, dtype=complex)
    psi[sl] = g[:, 0]
    obs = steady_state_observables(
        DensityMatrix(basis, np.outer(psi, psi.conj())), g)
    assert obs["P2"] == pytest.approx(1.0)
    assert obs["overlap"] == pytest.approx(1.0, abs=1e-12)
    assert obs["n_photon"] == pytest.approx(2.0)


@settings(max_examples=60)
@given(
    a=hnp.arrays(np.float64, (2, 15, 15), elements=st.floats(-1.0, 1.0)),
    sectors=st.sets(st.sampled_from((0, 1, 2)), min_size=1),
    seed=st.integers(0, 2**32 - 1),
)
def test_observables_of_random_density_matrices(a, sectors, seed):
    # rho = A A^dag / tr on the kept sectors only, so P1 or P2 can vanish
    basis = enumerate_basis(4, range(3))
    a = a[0] + 1j * a[1]
    a[~np.isin(basis.totals(), sorted(sectors))] = 0.0
    rho = a @ a.conj().T
    assume(np.trace(rho).real > 1e-6)
    rho = DensityMatrix(basis, rho / np.trace(rho).real)
    sl = basis.sector_slice(2)
    rng = np.random.default_rng(seed)
    g, _ = np.linalg.qr(rng.normal(size=(sl.stop - sl.start, 2))
                        + 1j * rng.normal(size=(sl.stop - sl.start, 2)))
    before = rho.matrix.copy()
    obs = steady_state_observables(rho, g)
    assert np.array_equal(rho.matrix, before)
    p1, p2 = obs["P1"], obs["P2"]
    assert obs["n_photon"] == pytest.approx(p1 + 2 * p2, abs=1e-12)
    if p1 > 0:
        assert obs["P2_over_P1"] == p2 / p1
    else:
        assert np.isnan(obs["P2_over_P1"])
    if p2 > 1e-14:
        assert -1e-12 <= obs["overlap"] <= 1 + 1e-12
    else:
        assert np.isnan(obs["overlap"])


# --- incoherent protocol ---------------------------------------------------


@pytest.fixture(scope="module")
def small_protocol(small_model):
    return IncoherentProtocol(small_model, 0.25, chi=0.05, p_ref=0.02, n_max=3)


def test_protocol_phase_offsets_make_designed_transitions_resonant():
    # each sector's ground label sectors[k].order[0] lies in the
    # step-eigenvalue manifold that carries the most weight of the exact
    # ground space (on the 2x4 torus, sector 3's interaction tops wrap below
    # it, so it is not label 0); the phase offsets read those labels, which
    # makes the designed 1g->2g and 3g->2g lines exact
    for shape in ((2, 2), (2, 4)):
        model = build_fqh(*shape, 1.0, 10.0, 0.25)
        prot = IncoherentProtocol(model, 0.25, chi=0.05, p_ref=0.02, n_max=3)
        basis = enumerate_basis(model.n_sites, range(4))
        h = exact_hamiltonian(model, basis).to_dense()
        th = []
        for k, sec in enumerate(prot.sectors):
            sl = basis.sector_slice(k)
            w, v = np.linalg.eigh(h[sl, sl])
            exact = v[:, w < w[0] + 1e-9]
            weight = np.sum(np.abs(exact.conj().T @ sec.eigenvectors) ** 2,
                            axis=0)
            assert sec.energies[sec.order[0]] == pytest.approx(
                sec.energies[np.argmax(weight)], abs=1e-9)
            th.append(-sec.energies[sec.order[0]] * prot.delta_t)
        assert shape == (2, 2) or prot.sectors[3].order[0] != 0
        par = prot.params
        assert (th[2] - th[1]) - par.phi_1 == pytest.approx(0.0, abs=1e-12)
        assert (th[3] - th[2]) - (par.phi_2 - par.phi_1) == (
            pytest.approx(0.0, abs=1e-12)
        )


def test_reset_ground_fills_the_doublet_that_anchors_phi_1(small_protocol):
    # the doublet is the lowest sector-2 manifolds holding two states: on
    # the 2x2 torus two manifolds of one state each, which hold the labels
    # order[:2]; reset("ground") puts 1/2 on each of their states
    prot = small_protocol
    prot.reset("ground")
    filled = np.flatnonzero(prot.populations[2])
    assert list(filled) == list(prot.doublet) == [0, 1]
    labels = np.concatenate([prot.sectors[2].manifolds[m] for m in filled])
    assert np.array_equal(labels, prot.sectors[2].order[:2])
    assert np.all(prot.populations[2][filled] == 0.5)
    assert prot.observables()["ground_population"] == 1.0
    assert prot.observables()["P2"] == 1.0
    g1, g2 = prot.sectors[1].order[0], prot.sectors[2].order[0]
    assert g2 in prot.sectors[2].manifolds[0]
    e1, e2 = prot.sectors[1].energies, prot.sectors[2].energies
    assert prot.params.phi_1 == -e2[g2] * prot.delta_t + e1[g1] * prot.delta_t


def test_doublet_is_the_lowest_manifolds_holding_two_states():
    # on the 2x4 torus the doublet is two manifolds of one state; on the
    # U = 0 2x2 torus the lowest sector-2 manifolds hold 1 and 2 states, so
    # no run of them is a doublet
    prot = IncoherentProtocol(build_fqh(2, 4, 1.0, 10.0, 0.25), 0.25,
                              chi=0.048, p_ref=0.01, n_max=3)
    assert [len(s.manifolds) for s in prot.sectors] == [1, 3, 23, 60]
    assert list(prot.doublet) == [0, 1]
    assert list(prot.sizes[2][:2]) == [1, 1]
    with pytest.raises(dynamics.ProtocolError, match="doublet"):
        IncoherentProtocol(build_fqh(2, 2, 1.0, 0.0, 0.25), 0.25,
                           chi=0.048, p_ref=0.01, n_max=3)


def test_protocol_rejects_an_aliased_doublet(small_model, monkeypatch):
    monkeypatch.setattr(spectral, "BRANCH_CUT_TOL", 1e3)
    with pytest.raises(ValueError, match="branch cut"):
        IncoherentProtocol(small_model, 0.25, chi=0.05, p_ref=0.02, n_max=3)


def test_protocol_rejects_a_coupling_its_step_cannot_take(small_model):
    # at chi dt = 1.25 a circulation would move more than all of a state's
    # population; the default coupling stays far below that
    with pytest.raises(dynamics.ProtocolError, match="> 1"):
        IncoherentProtocol(small_model, 0.25, chi=5.0, p_ref=0.01, n_max=3)
    IncoherentProtocol(small_model, 0.25, chi=0.048, p_ref=0.01, n_max=3)


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
    total = sum(float(x @ n) for x, n in zip(prot.populations, prot.sizes))
    assert total == pytest.approx(1.0, abs=1e-9)
    assert all(np.all(x > -1e-12) for x in prot.populations)
    assert np.all(prot.ancilla > -1e-12)
    assert np.max(np.abs(prot.ancilla.sum(axis=1) - 1)) < 1e-9


def test_protocol_reports_every_sector_population(small_model):
    # n_max = 4 reports P0..P4, which sum to one as the populations do
    prot = IncoherentProtocol(small_model, 0.25, chi=0.05, p_ref=0.02,
                              n_max=4)
    prot.reset("ground")
    for _ in range(200):
        prot.step()
    obs = prot.observables()
    pk = [obs[f"P{k}"] for k in range(5)]
    assert "P5" not in obs and obs["P4"] > 0
    assert sum(pk) == pytest.approx(1.0, abs=1e-9)
    assert obs["N_mean"] == pytest.approx(sum(k * p for k, p in enumerate(pk)))


def test_incoherent_step_unitary_limit(small_model):
    # chi = 0, p_ref = 0: the system evolves unitarily.  The protocol's
    # sector eigenbases diagonalize the step on sectors 0..3 with the phases
    # it assigns, and a step moves no population and leaves the ancillas
    prot = IncoherentProtocol(small_model, 0.25, chi=0.0, p_ref=0.0, n_max=3)
    basis = enumerate_basis(4, range(4))
    u = step_operator(small_model, 0.25, basis)
    for k, sec in enumerate(prot.sectors):
        sl = basis.sector_slice(k)
        v = sec.eigenvectors
        assert np.max(np.abs(u[sl, sl] @ v - v * sec.eigenphases)) < 1e-9
    rng = np.random.default_rng(21)
    prot.populations = [rng.random(len(n)) for n in prot.sizes]
    before = [x.copy() for x in prot.populations]
    prot.step()
    for x, y in zip(prot.populations, before):
        assert np.array_equal(x, y)
    assert np.max(np.abs(prot.ancilla - np.array([0.0, 1.0, 0.0]))) < 1e-12


def test_incoherent_step_preserves_trace(small_protocol):
    # a random population over every sector's manifolds keeps its unit
    # total, each manifold counted once per state
    prot = small_protocol
    prot.reset("vacuum")
    rng = np.random.default_rng(22)
    pops = [rng.random(len(n)) for n in prot.sizes]
    total = sum(float(x @ n) for x, n in zip(pops, prot.sizes))
    prot.populations = [x / total for x in pops]
    prot.step()
    assert sum(float(x @ n) for x, n in zip(prot.populations, prot.sizes)) == (
        pytest.approx(1.0, abs=1e-12)
    )


def oracle_rates(prot):
    """The label-level rate model, one population per step eigenvector,
    built site by site: rates[k][j] = (r1, r2) for sector pair k -> k+1,
    r = sin^2(chi dt) c |<f| b_j^dag |i>|^2 S(Delta), with the bosonic factor
    c = 1 for ancilla 1 <-> 0 (r1) and c = 2 for ancilla 2 <-> 1 (r2).
    Where every manifold is one state it is the protocol's model."""
    par = prot.params
    s = 1.0 - par.p_ref
    eps2 = np.sin(par.chi * prot.delta_t) ** 2
    basis = enumerate_basis(prot.model.n_sites, range(prot.n_max + 1))
    bdag = [ladder_operator(basis, j, "create").to_dense()
            for j in range(prot.model.n_sites)]
    thetas = [-sec.energies * prot.delta_t for sec in prot.sectors]
    rates = []
    for k in range(prot.n_max):
        dth = thetas[k + 1][:, None] - thetas[k]
        s10, s21 = [(1 - s * s) / (1 - 2 * s * np.cos(dth - phi) + s * s)
                    for phi in (par.phi_1, par.phi_2 - par.phi_1)]
        lo, hi = basis.sector_slice(k), basis.sector_slice(k + 1)
        v_lo, v_hi = prot.sectors[k].eigenvectors, prot.sectors[k + 1].eigenvectors
        m2s = [np.abs(v_hi.conj().T @ b[hi, lo] @ v_lo) ** 2 for b in bdag]
        rates.append([(eps2 * m2 * s10, 2 * eps2 * m2 * s21) for m2 in m2s])
    return rates


def oracle_step(prot, rates, populations, ancilla):
    """One circulation of the label-level model as a loop over sites and
    sector pairs, each flow a matrix-vector product with one site's rate
    matrix."""
    p = populations
    dp = [np.zeros_like(x) for x in p]
    danc = np.zeros_like(ancilla)
    for k, per_site in enumerate(rates):
        for j, (r1, r2) in enumerate(per_site):
            q0, q1, q2 = ancilla[j]
            up1, up2 = q1 * (r1 @ p[k]), q2 * (r2 @ p[k])
            dn1, dn2 = q0 * (r1.T @ p[k + 1]), q1 * (r2.T @ p[k + 1])
            dp[k + 1] += up1 + up2 - (q0 * r1.sum(1) + q1 * r2.sum(1)) * p[k + 1]
            dp[k] += dn1 + dn2 - (q1 * r1.sum(0) + q2 * r2.sum(0)) * p[k]
            f_up1, f_dn1, f_up2, f_dn2 = up1.sum(), dn1.sum(), up2.sum(), dn2.sum()
            danc[j] += [f_up1 - f_dn1, f_dn1 - f_up1 + f_up2 - f_dn2,
                        f_dn2 - f_up2]
    p_ref = prot.params.p_ref
    anc = (1 - p_ref) * (ancilla + danc)
    anc[:, 1] += p_ref
    return [x + d for x, d in zip(p, dp)], anc


def label_populations(prot):
    """The protocol's state as one population per step eigenvector: each
    manifold's population per state on every one of its labels."""
    out = []
    for sec, x in zip(prot.sectors, prot.populations):
        p = np.empty(len(sec.energies))
        for m, labels in enumerate(sec.manifolds):
            p[labels] = x[m]
        out.append(p)
    return out


def manifold_totals(prot, populations):
    """Label populations summed over each of the protocol's manifolds."""
    return [np.array([p[labels].sum() for labels in sec.manifolds])
            for sec, p in zip(prot.sectors, populations)]


def site_weights(prot):
    """The manifold weights W_j[F, I] = sum_{f in F, i in I}
    |<f| b_j^dag |i>|^2 of each sector pair, recomputed for every site:
    (n_sites, M_hi, M_lo) per pair k -> k+1."""
    basis = enumerate_basis(prot.model.n_sites, range(prot.n_max + 1))
    out = []
    for k in range(prot.n_max):
        lo, hi = prot.sectors[k], prot.sectors[k + 1]
        rows, cols = basis.sector_slice(k + 1), basis.sector_slice(k)
        out.append(np.array([
            [[np.sum(np.abs(hi.eigenvectors[:, f].conj().T @ b[rows, cols]
                            @ lo.eigenvectors[:, i]) ** 2)
              for i in lo.manifolds] for f in hi.manifolds]
            for b in (ladder_operator(basis, j, "create").to_dense()
                      for j in range(prot.model.n_sites))]))
    return out


@pytest.mark.parametrize("lattice", ["2x4 torus", "open 2x3"])
def test_sites_in_one_shift_orbit_share_their_weights(lattice):
    # on the 2x4 torus the shift by two rows commutes with every sector's
    # step, so the recomputed W_j of sites j and j + 4 agree and the orbit
    # {j, j + 4} keeps one row, their sum; the open lattice has no
    # commuting shift, and each site is its own orbit
    model = (build_fqh(2, 4, 1.0, 10.0, 0.25) if lattice == "2x4 torus" else
             build_fqh(2, 3, 1.0, 10.0, 0.2, boundary="open"))
    prot = IncoherentProtocol(model, 0.25, chi=0.048, p_ref=0.01, n_max=3)
    n_orbits = 4 if lattice == "2x4 torus" else 6
    assert len(prot.ancilla) == n_orbits
    for (w, *_), want in zip(prot._pairs, site_weights(prot)):
        # site j lies in orbit j % n_orbits
        by_orbit = want.reshape(-1, n_orbits, *want.shape[1:])
        assert np.max(np.abs(by_orbit - by_orbit[0])) <= 1e-12
        assert np.max(np.abs(w.reshape(by_orbit.shape[1:])
                             - by_orbit.sum(0))) <= 1e-12


def per_site_step(prot, weights, populations, ancilla):
    """One circulation with every site's own manifold weights W_j (the
    ``site_weights`` stacks) and its own ancilla row, by the protocol's
    factored formula."""
    p = populations
    dp = [np.zeros_like(x) for x in p]
    q0, q1, q2 = ancilla.T
    danc = np.zeros_like(ancilla)
    for k, (w, (_, k10, k21, *_)) in enumerate(zip(weights, prot._pairs)):
        cols = [np.einsum("FI,jFI->jI", kk, w) for kk in (k10, k21)]
        rows = [np.einsum("FI,jFI->jF", kk, w) for kk in (k10, k21)]
        w0, w1, w2 = np.einsum("jn,jFI->nFI", ancilla, w)
        lo, hi = p[k], p[k + 1]
        dp[k + 1] += ((k10 * w1 + k21 * w2) @ lo
                      - (q0 @ rows[0] + q1 @ rows[1]) * hi)
        dp[k] += ((k10 * w0 + k21 * w1).T @ hi
                  - (q1 @ cols[0] + q2 @ cols[1]) * lo)
        f_up1, f_up2 = q1 * (cols[0] @ lo), q2 * (cols[1] @ lo)
        f_dn1, f_dn2 = q0 * (rows[0] @ hi), q1 * (rows[1] @ hi)
        danc += np.stack([f_up1 - f_dn1, f_dn1 - f_up1 + f_up2 - f_dn2,
                          f_dn2 - f_up2], axis=1)
    p_ref = prot.params.p_ref
    anc = (1 - p_ref) * (ancilla + danc)
    anc[:, 1] += p_ref
    return [x + d / n for x, d, n in zip(p, dp, prot.sizes)], anc


@pytest.mark.parametrize("init", ["vacuum", "ground"])
def test_orbit_ancillas_match_a_per_site_run(init):
    # 2x4 torus: the eight sites form four orbits {j, j + 4}, and the
    # protocol keeps four ancillas; over a 1,000-step run, every observable
    # and every site's ancilla of a per-site run agree with it
    model = build_fqh(2, 4, 1.0, 10.0, 0.25)
    prot = IncoherentProtocol(model, 0.25, chi=0.048, p_ref=0.01, n_max=3)
    weights = site_weights(prot)
    prot.reset(init)
    assert len(prot.ancilla) == 4
    pops = [x.copy() for x in prot.populations]
    anc = np.tile(prot.ancilla[0], (model.n_sites, 1))
    worst = 0.0
    for _ in range(1000):
        prot.step()
        pops, anc = per_site_step(prot, weights, pops, anc)
        want = IncoherentProtocol.observables(SimpleNamespace(
            populations=pops, sizes=prot.sizes, n_max=prot.n_max,
            doublet=prot.doublet))
        got = prot.observables()
        worst = max(worst, np.max(np.abs(prot.ancilla[np.arange(8) % 4] - anc)),
                    *(abs(got[key] - want[key]) for key in want))
    assert worst <= 1e-13
    # the run moved population and ancilla photons
    assert prot.observables()["P2"] > 0.01
    assert np.max(np.abs(anc - [0.0, 1.0, 0.0])) > 1e-3


@pytest.mark.parametrize("init", ["vacuum", "ground"])
def test_incoherent_step_matches_site_loop_oracle(init):
    # on the open 2x3 lattice at flux 0.2 no step eigenphase is degenerate,
    # so every manifold is one state and the manifold model is the label
    # model; the factored step against the per-site loop, every step of a
    # 1,000-step run (sector dims 1/6/21/56)
    model = build_fqh(2, 3, 1.0, 10.0, 0.2, boundary="open")
    prot = IncoherentProtocol(model, 0.25, chi=0.048, p_ref=0.01, n_max=3)
    assert all(np.all(n == 1) for n in prot.sizes)
    rates = oracle_rates(prot)
    prot.reset(init)
    pops = label_populations(prot)
    anc = prot.ancilla.copy()
    worst = 0.0
    for _ in range(1000):
        prot.step()
        pops, anc = oracle_step(prot, rates, pops, anc)
        worst = max(worst, np.max(np.abs(prot.ancilla - anc)),
                    *(np.max(np.abs(x - y)) for x, y in
                      zip(label_populations(prot), pops)))
    assert worst < 1e-12
    # the run moved population, so the comparison is not between zeros
    assert prot.observables()["P2"] > 0.01


def test_protocol_does_not_depend_on_the_basis_inside_manifolds(monkeypatch):
    # rotating each manifold's eigenvectors by a random unitary changes the
    # label-level rates, but not the manifold weights, so 1,000-step runs
    # from both inits end where they do unrotated (2x4 torus, manifolds
    # 1/3/23/60)
    model = build_fqh(2, 4, 1.0, 10.0, 0.25)

    def rotated_spectra(*args):
        rng = np.random.default_rng(31)
        spectra = spectral.sector_spectra(*args)
        for sec in spectra.values():
            for labels in sec.manifolds:
                z = rng.normal(size=(len(labels),) * 2) + 1j * rng.normal(
                    size=(len(labels),) * 2)
                q, _ = np.linalg.qr(z)
                sec.eigenvectors[:, labels] = sec.eigenvectors[:, labels] @ q
        return spectra

    plain = IncoherentProtocol(model, 0.25, chi=0.048, p_ref=0.01, n_max=3)
    monkeypatch.setattr(dynamics, "sector_spectra", rotated_spectra)
    rotated = IncoherentProtocol(model, 0.25, chi=0.048, p_ref=0.01, n_max=3)
    moved = max(np.max(np.abs(a[0] - b[0]))
                for pa, pb in zip(oracle_rates(plain), oracle_rates(rotated))
                for a, b in zip(pa, pb))
    assert moved > 1e-4
    for init in ("vacuum", "ground"):
        finals = []
        for prot in (plain, rotated):
            prot.reset(init)
            finals.append(prot.run(1000, record_every=1000)[-1])
        for key, value in finals[0].items():
            assert finals[1][key] == pytest.approx(value, abs=1e-12), (init, key)


@pytest.fixture(scope="module")
def small_oracle_rates(small_protocol):
    return oracle_rates(small_protocol)


@settings(max_examples=50)
@given(
    hnp.arrays(float, 1 + 4 + 10 + 20, elements=st.floats(0.0, 1.0)),
    hnp.arrays(float, (4, 3), elements=st.floats(0.0, 1.0)),
)
def test_incoherent_step_random_states(small_protocol, small_oracle_rates,
                                       pop_draws, anc_draws):
    # one step from a random population over the manifolds of sectors 0..3
    # of the 2x2 torus (each manifold's draw is the mean over its labels)
    # and random per-site ancilla distributions: each manifold's population
    # moves as the label-level oracle moves it from that state spread evenly
    # over the manifold's labels, and the transfer flows conserve system +
    # ancilla photons
    prot = small_protocol
    assume(pop_draws.sum() > 1e-3 and np.all(anc_draws.sum(axis=1) > 1e-3))
    draws = np.split(pop_draws / pop_draws.sum(),
                     np.cumsum([len(s.energies) for s in prot.sectors])[:-1])
    pops = [x / n for x, n in zip(manifold_totals(prot, draws), prot.sizes)]
    anc = anc_draws / anc_draws.sum(axis=1, keepdims=True)
    prot.populations = [x.copy() for x in pops]
    prot.ancilla = anc.copy()
    spread = label_populations(prot)
    prot.step()
    want_pops, want_anc = oracle_step(prot, small_oracle_rates, spread, anc)
    for x, n, y in zip(prot.populations, prot.sizes,
                       manifold_totals(prot, want_pops)):
        assert np.max(np.abs(x * n - y)) < 1e-13
    assert np.max(np.abs(prot.ancilla - want_anc)) < 1e-13

    def photons(populations, ancilla):
        n_sys = sum(k * float(x @ n) for k, (x, n) in
                    enumerate(zip(populations, prot.sizes)))
        return n_sys + float(np.sum(ancilla @ [0.0, 1.0, 2.0]))

    p_ref = prot.params.p_ref
    flowed = (prot.ancilla - p_ref * np.array([0.0, 1.0, 0.0])) / (1 - p_ref)
    assert photons(prot.populations, flowed) == pytest.approx(
        photons(pops, anc), abs=1e-13
    )
