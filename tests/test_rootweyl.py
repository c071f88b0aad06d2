"""Restricted root data and little Weyl group action on split parts."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckforms.exactlin import Subspace, fmat, fvec, intersect, kernel, primitive_vector
from ckforms.embeddings import adapted_split_part, catalog_lookup, product_algebra
from ckforms.realforms import build_real_form
from ckforms.rootweyl import (
    WeylCutoffError,
    _d_line_scan,
    chamber_sort,
    split_data,
    weyl_disjoint,
    weyl_elements,
    weyl_order,
)


@pytest.mark.parametrize(
    "key,order",
    [
        ("so(2,3)", 8),        # B2: 2^2 * 2!
        ("so(3,4)", 48),       # B3
        ("so(4,4)", 192),      # D4: 2^3 * 4!
        ("su(2,2)", 8),        # C2
        ("g2(2)", 12),
        ("so(8,8)", 5160960),  # D8
    ],
)
def test_weyl_group_orders(key, order):
    from ckforms.realforms import build_real_form

    assert weyl_order(split_data(build_real_form(key))) == order


def test_weyl_order_multiplies_over_product_factors():
    sd = split_data(product_algebra("so(4,4)", "so(3,4)"))
    assert weyl_order(sd) == 192 * 48


def test_weyl_elements_enumerate_the_full_group(so34):
    sd = split_data(so34)
    mats = list(weyl_elements(sd))
    assert len(mats) == 48
    as_tuples = {tuple(tuple(int(x) for x in row) for row in m) for m in mats}
    assert len(as_tuples) == 48


def test_weyl_elements_respect_the_cutoff():
    sd = split_data(product_algebra("so(8,8)", "so(8,8)"))
    assert weyl_order(sd) == 5160960 ** 2
    with pytest.raises(WeylCutoffError):
        weyl_elements(sd, cutoff=10 ** 7)


def test_g2_weyl_group_is_dihedral_of_order_twelve():
    from ckforms.realforms import build_real_form

    sd = split_data(build_real_form("g2(2)"))
    mats = list(weyl_elements(sd))
    assert len(mats) == 12
    # closure under multiplication
    key = lambda m: tuple(tuple(x for x in row) for row in m)
    have = {key(m) for m in mats}
    for a in mats[:4]:
        for b in mats:
            assert key(a @ b) in have


def test_chamber_sort_is_a_weyl_representative(so44):
    sd = split_data(so44)
    out = chamber_sort(sd, [3, -1, 2, 0])
    assert list(out) == [3, 2, 1, 0]
    # type D keeps the parity of sign flips when no coordinate vanishes
    out2 = chamber_sort(sd, [-5, 1, -2, -4])
    assert list(out2) == [5, 4, 2, -1]


def test_chamber_sort_fixes_already_sorted_vectors(so34):
    sd = split_data(so34)
    assert list(chamber_sort(sd, [4, 2, 1])) == [4, 2, 1]
    assert list(chamber_sort(sd, [4, 2, -1])) == [4, 2, 1]


def test_chamber_sort_is_invariant_on_weyl_orbits(so44):
    sd = split_data(so44)
    rng = np.random.default_rng(13)
    mats = list(weyl_elements(sd))
    x = fvec([7, 5, 2, 1])
    ref = list(chamber_sort(sd, x))
    for idx in rng.integers(0, len(mats), size=12):
        moved = mats[idx] @ x
        assert list(chamber_sort(sd, moved)) == ref


def test_disjointness_of_the_frozen_decomposition_pair(so44):
    sd = split_data(so44)
    vh = adapted_split_part(catalog_lookup("so(4,4):so(3,4):spin"))
    vl = adapted_split_part(catalog_lookup("so(4,4):so(1,4):block"))
    ok, witness = weyl_disjoint(sd, vh, vl)
    assert ok and witness is None


def test_self_intersection_is_witnessed_by_the_identity(so44):
    sd = split_data(so44)
    v = adapted_split_part(catalog_lookup("so(4,4):so(1,4):block"))
    ok, witness = weyl_disjoint(sd, v, v)
    assert not ok
    assert witness is not None
    # witness = (Weyl element, vector in w(V_h) and V_l); here w is the identity
    w, vec = witness
    assert np.array_equal(np.array(w, dtype=float), np.eye(sd.rank))
    assert any(x != 0 for x in vec)
    assert v.contains(fvec([x for x in vec]))


def test_disjointness_respects_the_cutoff(so44):
    sd = split_data(so44)
    vh = adapted_split_part(catalog_lookup("so(4,4):so(3,4):spin"))
    vl = adapted_split_part(catalog_lookup("so(4,4):so(1,4):block"))
    with pytest.raises(WeylCutoffError):
        weyl_disjoint(sd, vh, vl, cutoff=10)


def test_split_gram_is_positive_definite(so44):
    sd = split_data(so44)
    G = np.array([[float(x) for x in row] for row in sd.gram])
    assert np.all(np.linalg.eigvalsh(G) > 0)
    # B-norms of basis boosts agree within a simple factor
    assert all(sd.gram[i][i] == sd.gram[0][0] for i in range(sd.rank))


def test_line_scan_products_are_bounded_explicitly(so44):
    # every dot product is nonzero, but n . v = 2**64 + 2**32 - 2**32 for the
    # identity with signs (1, 1, -1, -1): int64 would wrap it to 0
    sd = split_data(so44)
    U = Subspace.from_rows(kernel(fmat([[2**32 + 1, 2**32, 3, 5]])), 4)
    line = Subspace.from_rows([[2**32, 0, 0, 1]], 4)
    assert _d_line_scan(sd, U, line) == (True, None)


# ---------------------------------------------------------------------------
# the batched scan against a plain exact loop
# ---------------------------------------------------------------------------

def _reference_scan(sd, V_h, V_l):
    """The first Weyl element w (in enumeration order) with w(V_h) meeting
    V_l, by exact intersection for every element."""
    for w in weyl_elements(sd):
        moved = Subspace.from_rows(
            [primitive_vector(row) for row in V_h.matrix() @ w.T], sd.rank
        )
        inter = intersect(moved, V_l)
        if inter.dim:
            return False, (w, inter.basis[0])
    return True, None


def _assert_same_scan(sd, V_h, V_l):
    got = weyl_disjoint(sd, V_h, V_l)
    ref = _reference_scan(sd, V_h, V_l)
    assert got[0] == ref[0]
    if not ref[0]:
        (w, v), (w_ref, v_ref) = got[1], ref[1]
        assert np.array_equal(w, w_ref)
        assert list(v) == list(v_ref)
    return got


_SCAN_AMBIENTS = {
    "B3": lambda: build_real_form("so(3,4)"),
    "C2": lambda: build_real_form("su(2,2)"),
    "BC2": lambda: build_real_form("su(2,3)"),
    "D4": lambda: build_real_form("so(4,4)"),
    "G2xB2": lambda: product_algebra("g2(2)", "so(2,3)"),
}


@st.composite
def _subspace_pairs(draw):
    name = draw(st.sampled_from(sorted(_SCAN_AMBIENTS)))
    r = split_data(_SCAN_AMBIENTS[name]()).rank
    dh = draw(st.integers(1, r - 1))
    dl = draw(st.integers(1, r - dh))
    vec = st.lists(st.integers(-2, 2), min_size=r, max_size=r)
    return (
        name,
        draw(st.lists(vec, min_size=dh, max_size=dh)),
        draw(st.lists(vec, min_size=dl, max_size=dl)),
    )


@given(_subspace_pairs())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_scan_agrees_with_the_plain_loop(pair):
    name, h_rows, l_rows = pair
    sd = split_data(_SCAN_AMBIENTS[name]())
    _assert_same_scan(
        sd, Subspace.from_rows(h_rows, sd.rank), Subspace.from_rows(l_rows, sd.rank)
    )


def test_scan_finds_a_first_hit_beyond_the_first_chunk():
    # D4 x G2 has 192 * 12 = 2304 elements; x meets the line through y only
    # under the reversing permutation (D4 index 23 * 8) with g2's identity
    # (index 0) or its -1, so the first hit has index 184 * 12 = 2208
    sd = split_data(product_algebra("so(4,4)", "g2(2)"))
    x = [1, 2, 3, 4, 1, 0]
    y = [4, 3, 2, 1, 1, 0]
    ok, (w, v) = _assert_same_scan(
        sd, Subspace.from_rows([x], 6), Subspace.from_rows([y], 6)
    )
    assert not ok
    assert list(w @ fvec(x)) == list(fvec(y))


def test_scan_accepts_entries_beyond_int64(so34):
    sd = split_data(so34)
    big = 2**70
    V_h = Subspace.from_rows([[big, 1, 0]], 3)
    _assert_same_scan(sd, V_h, Subspace.from_rows([[1, big, 0]], 3))
    _assert_same_scan(sd, V_h, Subspace.from_rows([[1, 0, big + 1]], 3))


# ---------------------------------------------------------------------------
# the type-D line scan against the batched scan
# ---------------------------------------------------------------------------

_LINE_AMBIENTS = {"D4": "so(4,4)", "D5": "so(5,5)"}


def _assert_witness(V_h, V_l, witness):
    """w(V_h) and V_l share the nonzero vector x."""
    w, x = witness
    assert any(c != 0 for c in x)
    assert V_l.contains(x)
    moved = Subspace.from_rows(
        [primitive_vector(row) for row in V_h.matrix() @ w.T], V_h.ambient_dim
    )
    assert moved.contains(x)


@st.composite
def _hyperplane_and_line(draw):
    name = draw(st.sampled_from(sorted(_LINE_AMBIENTS)))
    k = int(name[1])
    vec = st.lists(st.integers(-3, 3), min_size=k, max_size=k).filter(any)
    return name, draw(vec), draw(vec)


@given(_hyperplane_and_line())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_line_scan_agrees_with_the_batched_scan(case):
    name, normal, v = case
    sd = split_data(build_real_form(_LINE_AMBIENTS[name]))
    U = Subspace.from_rows(kernel(fmat([normal])), sd.rank)
    line = Subspace.from_rows([v], sd.rank)
    ok, wit = _d_line_scan(sd, U, line)
    # a Weyl translate of U contains the line iff the line's translate
    # meets U: the batched scan must agree in both orientations
    for V_h, V_l in ((U, line), (line, U)):
        ref_ok, ref_wit = weyl_disjoint(sd, V_h, V_l)
        assert ref_ok == ok
        if not ok:
            _assert_witness(V_h, V_l, ref_wit)
    if not ok:
        _assert_witness(U, line, wit)
        assert any(np.array_equal(wit[0], w) for w in weyl_elements(sd))


@pytest.mark.parametrize(
    "normal,v,hit",
    [
        ([1, 1, 0, 0, 0], [1, -1, 0, 0, 0], True),  # the identity hits
        ([1, 2, 0, 0, 0], [2, 1, 3, 3, 3], True),  # only after sign changes
        ([1, 2, 3, 0, 0], [2, 3, 1, 5, 5], True),  # w is not an involution
        ([1, 2, 4, 8, 16], [1, 1, 1, 1, 1], False),  # no signed sum vanishes
    ],
)
def test_weyl_disjoint_takes_the_line_scan_in_both_orientations(
    normal, v, hit, monkeypatch
):
    import ckforms.rootweyl as rootweyl

    sd = split_data(build_real_form("so(5,5)"))
    U = Subspace.from_rows(kernel(fmat([normal])), 5)
    line = Subspace.from_rows([v], 5)
    pairs = [(U, line), (line, U)]
    expected = [weyl_disjoint(sd, *pair)[0] for pair in pairs]
    # D5 has 1,920 elements; lowering the threshold routes both
    # orientations through _d_line_scan
    monkeypatch.setattr(rootweyl, "_LINE_SCAN_ORDER", 0)
    for (V_h, V_l), ref_ok in zip(pairs, expected):
        ok, wit = weyl_disjoint(sd, V_h, V_l)
        assert ok == ref_ok == (not hit)
        if hit:
            _assert_witness(V_h, V_l, wit)
        else:
            assert wit is None
