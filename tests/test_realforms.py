"""Real form constructors and the spin representation frames."""
import numpy as np
import pytest

from ckforms.exactlin import signature
from ckforms.liealg import validate_structure
from ckforms.realforms import (
    build_real_form,
    g2_basis,
    parse_form_name,
    so_basis,
    spin_embedding,
    su_real_basis,
)


def test_parse_form_name_normalizes_and_validates():
    assert parse_form_name("so(4,3)") == ("so", 3, 4)
    assert parse_form_name("su(1, 2)") == ("su", 1, 2)
    assert parse_form_name("g2(2)") == ("g2", 2, 2)
    with pytest.raises(ValueError):
        parse_form_name("e8(8)")
    with pytest.raises(ValueError):
        parse_form_name("so(1,1)")


@pytest.mark.parametrize(
    "key,dim,n,rank,root",
    [
        ("so(2,3)", 10, 5, 2, "B"),
        ("so(2,4)", 15, 6, 2, "B"),
        ("so(3,4)", 21, 7, 3, "B"),
        ("so(4,4)", 28, 8, 4, "D"),
        ("so(8,8)", 120, 16, 8, "D"),
        ("su(1,2)", 8, 6, 1, "BC"),
        ("su(2,2)", 15, 8, 2, "C"),
        ("sp(1,1)", 10, 8, 1, "C"),
        ("sp(1,2)", 21, 12, 1, "BC"),
        ("g2(2)", 14, 7, 2, "G"),
    ],
)
def test_frozen_dimension_and_rank_table(key, dim, n, rank, root):
    g = build_real_form(key)
    assert g.dim == dim
    assert g.n == n
    assert g.meta["real_rank"] == rank
    assert g.meta["root_type"] == root


@pytest.mark.parametrize(
    "key,boosts",
    [
        ("so(2,3)", 6),       # pq
        ("su(2,2)", 8),       # 2pq
        ("sp(1,1)", 4),       # 4pq
        ("g2(2)", 8),         # the 8-dimensional split part
        ("so(3,4)", 12),
    ],
)
def test_killing_signature_counts_boosts_and_rotations(key, boosts):
    g = build_real_form(key)
    assert signature(g.killing_form) == (boosts, g.dim - boosts, 0)
    assert g.p_subspace().dim == boosts


def test_structure_validation_across_families():
    for key in ("so(2,4)", "su(1,2)", "sp(1,1)", "g2(2)", "su(2,4)"):
        rep = validate_structure(build_real_form(key))
        failed = [c for c in rep.checks if not c["passed"]]
        assert not failed, (key, failed)
    # the Jacobi check covers every triple of basis elements: C(35, 3)
    jacobi = next(c for c in rep.checks if c["name"] == "jacobi")
    assert jacobi["detail"] == "6545 triples, 0 violations"


def test_so_basis_preserves_the_bilinear_form():
    p, q = 2, 3
    basis = so_basis(p, q)
    assert len(basis) == 10
    eta = np.diag([1] * p + [-1] * q).astype(object)
    for X in basis:
        assert not (X.T @ eta + eta @ X).any()


def test_su_real_basis_count_and_tracelessness():
    basis = su_real_basis(1, 2)
    assert len(basis) == 8
    for X in basis:
        assert sum(X[i, i] for i in range(X.shape[0])) == 0


def test_g2_basis_is_a_14_dimensional_subalgebra_of_so34():
    # the 7x7 realization is shared with so(3,4)
    basis = g2_basis()
    assert len(basis) == 14
    so34 = build_real_form("so(3,4)")
    for X in basis:
        assert so34.contains_matrix(X)


def test_spin_frame_gamma_relations():
    frame, images = spin_embedding(3, 4)
    assert frame.half_dim == 4
    n = 2 * frame.half_dim
    gam = frame.gammas
    eta = [1] * frame.p + [-1] * frame.q
    for a in range(len(gam)):
        sq = gam[a] @ gam[a]
        # gamma_a^2 = -eta_aa I in this normalization
        assert np.array_equal(sq, -eta[a] * np.eye(n, dtype=object))
        for b in range(a):
            assert not (gam[a] @ gam[b] + gam[b] @ gam[a]).any()


def test_spin_images_land_in_the_standard_orthogonal_form():
    frame, images = spin_embedding(3, 4)
    so44 = build_real_form("so(4,4)")
    assert len(images) == 21
    for X in images:
        assert so44.contains_matrix(X)


def test_spin_frame_for_so18_is_sixteen_dimensional():
    frame, images = spin_embedding(1, 8)
    assert frame.half_dim == 8
    assert len(images) == 36
    so88 = build_real_form("so(8,8)")
    assert so88.contains_matrix(images[0])
