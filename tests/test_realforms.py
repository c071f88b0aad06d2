"""Real form constructors and the spin representation frames."""
import numpy as np
import pytest

from ckforms.exactlin import signature, unscaled
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
    frame, (den, IM) = spin_embedding(3, 4)
    images = unscaled(IM, den)
    so44 = build_real_form("so(4,4)")
    assert len(images) == 21
    for X in images:
        assert so44.contains_matrix(X)


def test_spin_frame_for_so18_is_sixteen_dimensional():
    frame, (den, IM) = spin_embedding(1, 8)
    images = unscaled(IM, den)
    assert frame.half_dim == 8
    assert len(images) == 36
    so88 = build_real_form("so(8,8)")
    assert so88.contains_matrix(images[0])


def test_clifford_table_gates_the_gamma_search(monkeypatch):
    import ckforms.realforms as realforms
    from ckforms.realforms import clifford_module_k, search_gammas

    # where the (p - q) mod 8 table gives a module of dimension 2**k, the
    # word search finds one; below it the exhaustive search finds none
    # (checked up to p + q = 7, k = 3, where a failing search stays quick)
    for n in range(10):
        for p in range(n + 1):
            k_min = clifford_module_k(p, n - p)
            for k in range(k_min, 5):
                assert search_gammas(p, n - p, k) is not None, (p, n - p, k)
            for k in range(k_min if n <= 7 else 0):
                assert search_gammas(p, n - p, k) is None, (p, n - p, k)

    # below the table's k the candidate loop never searches
    calls = []

    def gated(p, q, k):
        assert k >= clifford_module_k(p, q), ("searched below the table", p, q, k)
        calls.append((p, q, k))
        return search_gammas(p, q, k)

    monkeypatch.setattr(realforms, "search_gammas", gated)
    for n in range(2, 10):
        for p in range(n + 1):
            list(realforms.clifford_candidates(p, n - p, kmax=4))
    assert set(calls) == {
        (p, n - p, k)
        for n in range(2, 10)
        for p in range(n + 1)
        for k in range(1, 5)
        if k >= clifford_module_k(p, n - p)
    }


def _gamma_words(gammas):
    """Each gamma matrix as its tensor word over I, X, Z, J."""
    import itertools

    from ckforms.realforms import word_matrix

    k = gammas[0].shape[0].bit_length() - 1
    words = ["".join(w) for w in itertools.product("IXZJ", repeat=k)]
    return [
        next(w for w in words if np.array_equal(word_matrix(w), g))
        for g in gammas
    ]


@pytest.mark.parametrize(
    "pq,words",
    [
        ((3, 4), ["IZJ", "XXJ", "ZXJ", "IIX", "IIZ", "IJJ", "JXJ"]),
        ((1, 4), ["IIX", "IJZ", "IIJ", "JXZ", "JZZ"]),
        ((1, 8), ["IIIX", "IIJZ", "IIIJ", "IJXZ", "JIZZ", "JXXZ", "JZXZ",
                  "XJZZ", "ZJZZ"]),
    ],
)
def test_spin_frames_keep_their_gamma_words(pq, words):
    from ckforms.realforms import spin_frame

    assert _gamma_words(spin_frame(*pq).gammas) == words
