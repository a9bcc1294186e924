import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from timebin.fock import (
    DensityMatrix,
    FockBasis,
    enumerate_basis,
    ladder_operator,
    product_fock_state,
    sector_dimension,
)


def position(b, occ):
    """Index of an occupation in the enumeration by linear search, an
    oracle independent of rank."""
    return b.occupations().tolist().index([int(n) for n in occ])


def test_single_mode_two_sectors():
    b = enumerate_basis(1, {0, 1})
    assert b.occupations().tolist() == [[0], [1]]
    assert b.dim == 2


def test_sector_dimension_matches_enumeration():
    # stars-and-bars count vs explicit enumeration for 16 modes, 2 photons
    b = enumerate_basis(16, {2})
    assert b.dim == 136
    assert b.dim == math.comb(17, 2)
    assert b.dim == sector_dimension(16, 2)


def test_union_of_sectors():
    b = enumerate_basis(2, {0, 1, 2})
    assert b.dim == 1 + 2 + 3
    assert b.sector_slice(0) == slice(0, 1)
    assert b.sector_slice(1) == slice(1, 3)
    assert b.sector_slice(2) == slice(3, 6)


def test_ordering_sectors_ascending_then_lex():
    b = enumerate_basis(2, {1, 0, 2})
    assert b.occupations().tolist() == [
        [0, 0], [0, 1], [1, 0], [0, 2], [1, 1], [2, 0]]


def test_index_roundtrip():
    # the lazily built tuple lookup agrees with rank on every state
    b = enumerate_basis(3, {0, 1, 2, 3})
    occ = b.occupations()
    assert len(b.index) == b.dim
    for i, row in enumerate(occ.tolist()):
        assert b.index[tuple(row)] == i
    assert np.array_equal(b.rank(occ), [b.index[tuple(r)] for r in occ.tolist()])


small_bases = st.builds(
    enumerate_basis, st.integers(1, 5), st.sets(st.integers(0, 4), min_size=1)
)


@settings(max_examples=60)
@given(st.integers(1, 6), st.sets(st.integers(0, 4), min_size=1))
def test_occupations_match_an_itertools_oracle(n_modes, sectors):
    # sectors ascending; inside a sector, itertools.product order is the
    # lexicographic one
    want = [occ for k in sorted(sectors)
            for occ in itertools.product(range(k + 1), repeat=n_modes)
            if sum(occ) == k]
    b = enumerate_basis(n_modes, sectors)
    assert b.occupations().tolist() == [list(occ) for occ in want]
    assert b.totals().tolist() == [sum(occ) for occ in want]
    assert b.dim == len(want)


@settings(max_examples=60)
@given(small_bases)
def test_rank_inverts_enumeration(b):
    occ = b.occupations()
    assert not occ.flags.writeable
    assert np.array_equal(b.rank(occ), np.arange(b.dim))


@settings(max_examples=60)
@given(small_bases, st.data())
def test_rank_of_arbitrary_rows(b, data):
    # rows with a negative entry or a total outside the sectors rank to -1;
    # every other row ranks to its position in the enumeration
    row = st.lists(st.integers(-2, 5), min_size=b.n_modes, max_size=b.n_modes)
    rows = np.array(data.draw(st.lists(row, min_size=1, max_size=20)))
    got = b.rank(rows)
    for r, i in zip(rows, got):
        if min(r) < 0 or sum(r) not in b.sectors:
            assert i == -1
        else:
            assert i == position(b, r)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        enumerate_basis(0, {1})
    with pytest.raises(ValueError):
        enumerate_basis(2, set())
    with pytest.raises(ValueError):
        enumerate_basis(2, {-1, 0})
    with pytest.raises(ValueError):
        enumerate_basis(3, [2.5])


def test_basis_is_its_modes_and_sectors():
    # equal inputs give equal bases; the derived arrays are read-only
    b = enumerate_basis(3, [2, 0, 2])
    assert b == FockBasis(3, (0, 2))
    assert b != enumerate_basis(3, {0, 1, 2})
    assert b != enumerate_basis(4, {0, 2})
    assert not b.totals().flags.writeable
    assert b.totals() is b.totals()


def test_number_operator_diagonal():
    b = enumerate_basis(1, {0, 3})
    n = ladder_operator(b, 0, "number").to_dense()
    assert n[position(b, [0]), position(b, [0])] == 0
    assert n[position(b, [3]), position(b, [3])] == 3


def test_create_matrix_element():
    b = enumerate_basis(1, {0, 1, 2})
    bdag = ladder_operator(b, 0, "create").to_dense()
    assert bdag[position(b, [2]), position(b, [1])] == pytest.approx(math.sqrt(2))


def test_commutator_on_truncated_single_mode():
    # [b, b+] = 1 on rows below the cap; the top row is truncated
    nmax = 5
    b = enumerate_basis(1, set(range(nmax + 1)))
    lo = ladder_operator(b, 0, "annihilate").entries
    hi = ladder_operator(b, 0, "create").entries
    comm = (lo @ hi - hi @ lo).toarray()
    interior = np.diag(comm)[:-1]
    assert np.allclose(interior, 1.0, atol=1e-14)
    assert comm[nmax, nmax] == pytest.approx(-nmax)


def test_cross_mode_commutators_vanish_below_cap():
    # [b_i, b+_j] = 0 on rows/columns whose total photon number is below
    # the sector cap; the top sector is cut asymmetrically by truncation.
    b = enumerate_basis(3, {0, 1, 2})
    interior = b.totals() < max(b.sectors)
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            bi = ladder_operator(b, i, "annihilate").entries
            bjd = ladder_operator(b, j, "create").entries
            comm = (bi @ bjd - bjd @ bi).toarray()
            block = comm[np.ix_(interior, interior)]
            assert np.max(np.abs(block)) == 0.0


def test_number_equals_bdag_b():
    b = enumerate_basis(2, {0, 1, 2, 3})
    for m in range(2):
        n = ladder_operator(b, m, "number").entries
        prod = ladder_operator(b, m, "create").entries @ ladder_operator(
            b, m, "annihilate"
        ).entries
        assert abs(n - prod).max() <= 1e-14


def test_sector_restriction_drops_out_of_basis_targets():
    # creation out of the top sector maps outside the basis -> dropped rows
    b = enumerate_basis(2, {2})
    bdag = ladder_operator(b, 0, "create")
    assert bdag.entries.nnz == 0


def test_transfer_between_bases_matches_ladder_block():
    # b+ on mode 2 placed by transfer on the joint sector-1,2 basis: the
    # 2 <- 1 block holds sqrt(n_2 + 1) at the position of each raised
    # state, and the targets of sector-2 columns (in sector 3) are dropped
    both = enumerate_basis(3, {1, 2})
    target = both.occupations().copy()
    target[:, 2] += 1
    bdag = both.transfer(np.arange(both.dim), target,
                         np.sqrt(target[:, 2])).toarray()
    want = np.zeros((both.dim, both.dim))
    lo = both.sector_slice(1)
    for col in range(lo.start, lo.stop):
        want[position(both, target[col]), col] = np.sqrt(target[col, 2])
    assert np.array_equal(bdag, want)
    assert np.array_equal(bdag, ladder_operator(both, 2, "create").to_dense())
    # on the sector-1 basis alone every target leaves the basis
    one = enumerate_basis(3, {1})
    target = one.occupations().copy()
    target[:, 2] += 1
    assert one.transfer(np.arange(one.dim), target, np.ones(one.dim)).nnz == 0


def test_product_fock_state():
    b = enumerate_basis(8, {0, 2})
    vac = product_fock_state(b, (0,) * 8)
    assert vac.amplitudes[0] == 1.0
    assert vac.norm() == pytest.approx(1.0)

    occ = [0] * 8
    occ[3] = occ[4] = 1
    psi = product_fock_state(b, occ)
    assert psi.norm() == pytest.approx(1.0)
    assert psi.amplitudes[position(b, occ)] == 1.0
    with pytest.raises(KeyError):
        product_fock_state(b, [1] + [0] * 7)


def test_density_matrix_helpers():
    b = enumerate_basis(2, {0, 1})
    psi = product_fock_state(b, (1, 0))
    rho = psi.to_density_matrix()
    assert rho.trace() == pytest.approx(1.0)
    assert rho.hermiticity_defect() == 0.0
    assert rho.min_eigenvalue() >= -1e-12
    assert rho.sector_population(1) == pytest.approx(1.0)


def test_operator_flag_checks():
    b = enumerate_basis(2, {0, 1, 2})
    n0 = ladder_operator(b, 0, "number")
    assert n0.is_hermitian()
    assert n0.conserves_number()
    assert not ladder_operator(b, 0, "create").is_hermitian()
