import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from timebin.fock import enumerate_basis, ladder_operator, product_fock_state
from timebin.gates import (
    GateDescriptor,
    apply_gate,
    beamsplitter_gate,
    extend_phase_table,
    gate_matrix,
    number_phase_gate,
)


def dense_bs_oracle(basis, i, j, theta, phi):
    """Reference: exponentiate the full sparse generator with scipy.expm."""
    bi = ladder_operator(basis, i, "annihilate").entries
    bjd = ladder_operator(basis, j, "create").entries
    term = theta * np.exp(1j * phi) * (bjd @ bi)
    gen = (term + term.conj().T).toarray()
    return scipy.linalg.expm(-1j * gen)


def test_theta_zero_is_identity():
    b = enumerate_basis(3, {0, 1, 2})
    u = beamsplitter_gate(b, 0, 2, 0.0, 0.3).to_dense()
    assert np.allclose(u, np.eye(b.dim), atol=1e-14)


def test_full_transfer_single_photon():
    # 2x2 matrix exponential by hand: at theta = pi/2 the photon hops with -i
    b = enumerate_basis(2, {1})
    u = beamsplitter_gate(b, 0, 1, np.pi / 2, 0.0).to_dense()
    psi_in = product_fock_state(b, (1, 0))
    out = u @ psi_in.amplitudes
    k01, k10 = b.rank([(0, 1), (1, 0)])
    assert abs(out[k10]) < 1e-12
    assert out[k01] == pytest.approx(-1j, abs=1e-12)


def test_hong_ou_mandel_null():
    # sector-2 exponential oracle: |11> -> no |11> at theta = pi/4.
    # The oracle needs sectors 0..2 so products of restricted ladder
    # operators pass through the intermediate sector.
    b = enumerate_basis(2, {0, 1, 2})
    u = beamsplitter_gate(b, 0, 1, np.pi / 4, 0.0).to_dense()
    oracle = dense_bs_oracle(b, 0, 1, np.pi / 4, 0.0)
    assert np.allclose(u, oracle, atol=1e-12)
    k11 = b.rank([(1, 1)])[0]
    assert abs(u[k11, k11]) < 1e-12


@pytest.mark.parametrize("theta,phi", [(0.3, 0.0), (0.7, 1.1), (2.1, -0.4)])
def test_beamsplitter_matches_expm_oracle(theta, phi):
    b = enumerate_basis(3, {0, 1, 2, 3})
    u = beamsplitter_gate(b, 0, 2, theta, phi).to_dense()
    oracle = dense_bs_oracle(b, 0, 2, theta, phi)
    assert np.max(np.abs(u - oracle)) < 1e-12


def test_gates_unitary_and_number_conserving():
    b = enumerate_basis(3, {0, 1, 2, 3})
    n_tot = sum(
        (ladder_operator(b, m, "number").entries for m in range(3)),
        start=0 * ladder_operator(b, 0, "number").entries,
    )
    for g in [
        beamsplitter_gate(b, 0, 1, 0.8, 0.5),
        number_phase_gate(b, 1, [0.0, 0.2, 1.3]),
        number_phase_gate(b, 2, 0.7 * np.arange(4)),
    ]:
        assert g.is_unitary(1e-10)
        comm = g.entries @ n_tot - n_tot @ g.entries
        assert abs(comm).max() < 1e-10 if comm.nnz else True


@settings(max_examples=50)
@given(
    n_modes=st.integers(2, 5),
    sectors=st.sets(st.integers(0, 4), min_size=1),
    theta=st.floats(-20.0, 20.0), phi=st.floats(-10.0, 10.0),
    data=st.data(),
)
def test_random_beamsplitters_unitary_and_number_conserving(
        n_modes, sectors, theta, phi, data):
    b = enumerate_basis(n_modes, sectors)
    i, j = data.draw(
        st.lists(st.integers(0, n_modes - 1), min_size=2, max_size=2,
                 unique=True)
    )
    g = beamsplitter_gate(b, i, j, theta, phi)
    assert g.is_unitary(1e-10)
    assert g.conserves_number()


def test_number_phase_identity_and_bose_hubbard_value():
    b = enumerate_basis(1, {0, 1, 2, 3})
    u = number_phase_gate(b, 0, [0.0, 0.0]).to_dense()
    assert np.allclose(u, np.eye(4), atol=1e-15)

    # on-site phase phi(n) = -dt (U/2) n(n-1) with U = 10, dt = 0.2
    U, dt = 10.0, 0.2
    table = [-dt * (U / 2) * n * (n - 1) for n in range(4)]
    assert table[2] == pytest.approx(-2.0)
    g = number_phase_gate(b, 0, table).to_dense()
    # oracle: scalar exponentials of the on-site interaction
    for n in range(4):
        assert g[n, n] == pytest.approx(np.exp(-1j * dt * (U / 2) * n * (n - 1)))


def test_cascade_extrapolation():
    phi1, phi2, phi3 = 0.3, -0.5, 0.9
    table = [0.0, phi1, phi1 + phi2, phi1 + phi2 + phi3]
    ext = extend_phase_table(table, 6)
    # k-photon phase phi1 + phi2 + (k - 2) phi3 for k >= 2
    for k in range(2, 7):
        assert ext[k] == pytest.approx(phi1 + phi2 + (k - 2) * phi3)


def test_extrapolation_uses_last_increment():
    b = enumerate_basis(1, {0, 1, 2, 3, 4})
    g = number_phase_gate(b, 0, [0.0, 0.1, 0.4]).to_dense()
    # slope 0.3 beyond the table
    assert np.angle(g[3, 3]) == pytest.approx(0.7)
    assert np.angle(g[4, 4]) == pytest.approx(1.0)


def test_apply_gate_state_and_density():
    rng = np.random.default_rng(7)
    b = enumerate_basis(2, {0, 1, 2})
    psi = rng.normal(size=b.dim) + 1j * rng.normal(size=b.dim)
    psi /= np.linalg.norm(psi)
    sv = product_fock_state(b, (0, 0))
    sv.amplitudes = psi

    g = beamsplitter_gate(b, 0, 1, 0.9, 0.2)
    out = apply_gate(sv, g)
    assert out.norm() == pytest.approx(1.0, abs=1e-12)

    rho = sv.to_density_matrix()
    rout = apply_gate(rho, g)
    assert rout.trace() == pytest.approx(1.0, abs=1e-12)
    assert rout.hermiticity_defect() < 1e-12

    ident = number_phase_gate(b, 0, [0.0])
    same = apply_gate(sv, ident)
    assert np.array_equal(same.amplitudes, psi)


def test_apply_gate_compares_bases_by_value():
    # an equal basis built apart is the same basis; another one is not
    g = beamsplitter_gate(enumerate_basis(2, {0, 1, 2}), 0, 1, 0.9, 0.2)
    sv = product_fock_state(enumerate_basis(2, [2, 1, 0]), (1, 1))
    assert apply_gate(sv, g).norm() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        apply_gate(product_fock_state(enumerate_basis(2, {1, 2}), (1, 1)), g)
    with pytest.raises(ValueError):
        apply_gate(product_fock_state(enumerate_basis(3, {0, 1, 2}), (1, 1, 0)), g)
    with pytest.raises(TypeError):
        apply_gate(sv.amplitudes, g)


def test_inverse_pair_is_identity():
    b = enumerate_basis(2, {0, 1, 2, 3})
    g1 = beamsplitter_gate(b, 0, 1, 0.6, 0.3).entries
    g2 = beamsplitter_gate(b, 0, 1, -0.6, 0.3).entries
    assert abs(g2 @ g1 - np.eye(b.dim)).max() < 1e-10


def test_gate_descriptor_validation_and_dispatch():
    with pytest.raises(ValueError):
        GateDescriptor("beamsplitter", (1, 1), {"theta": 0.1})
    with pytest.raises(ValueError):
        GateDescriptor("number_phase", (0,), {"table": [0.5]})
    with pytest.raises(ValueError):
        GateDescriptor("warp", (0,))

    b = enumerate_basis(2, {0, 1})
    d = GateDescriptor("beamsplitter", (0, 1), {"theta": 0.4, "phi": 0.1})
    u = gate_matrix(d, b).to_dense()
    assert np.allclose(u, beamsplitter_gate(b, 0, 1, 0.4, 0.1).to_dense())
