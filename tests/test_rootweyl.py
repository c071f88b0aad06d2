"""Restricted root data and little Weyl group action on split parts."""
import itertools
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ckforms.rootweyl as rootweyl
from ckforms.cli import parse_triple
from ckforms.enumerate import TABLE1_FAMILIES, GenerationSpec, _instance_ns, generate
from ckforms.exactlin import (
    MODP_PRIME, InternalError, Subspace, fmat, fvec, int_matmul, intersect,
    kernel, primitive_rows, scaled_ints, unscaled,
)
from ckforms.embeddings import adapted_split_part, catalog_lookup, product_algebra
from ckforms.liealg import LieAlgebra
from ckforms.realforms import build_real_form, so_basis
from ckforms.rootweyl import (
    DEFAULT_WEYL_CUTOFF,
    WeylCutoffError,
    _d_line_scan,
    _FactorGroup,
    chamber_sort,
    signed_permutations,
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


@pytest.mark.parametrize("left,right", [("so(4,4)", "so(2,4)"),
                                        ("so(3,4)", "so(2,3)")])
def test_signed_permutations_are_the_weyl_elements(left, right):
    sd = split_data(product_algebra(left, right))
    got = list(signed_permutations(sd))
    mats = list(weyl_elements(sd))
    assert len(got) == len(mats) == weyl_order(sd)
    for (perm, signs), W in zip(got, mats):
        M = np.zeros((sd.rank, sd.rank), dtype=np.int64)
        M[np.arange(sd.rank), perm] = signs
        assert np.array_equal(M, W)


def test_signed_permutations_refuse_early():
    sd = split_data(product_algebra("so(8,8)", "so(8,8)"))
    with pytest.raises(WeylCutoffError):
        signed_permutations(sd)
    with pytest.raises(ValueError, match="g2"):
        signed_permutations(split_data(build_real_form("g2(2)")))


@pytest.mark.parametrize(
    "key", ["so(2,3)", "so(4,4)", "su(2,2)", "su(1,2)", "g2(2)"]
)  # root types B, D, C, BC and G
def test_weyl_group_is_a_closed_group_of_gram_isometries(key):
    sd = split_data(build_real_form(key))
    mats = list(weyl_elements(sd))
    assert len(mats) == weyl_order(sd)
    for w in mats:
        assert (w.T @ sd.gram @ w == sd.gram).all()
    # closure under multiplication, on twice the matrices (entries in Z/2)
    assert all((2 * x).denominator == 1 for w in mats for x in w.flat)
    twice = np.array([[[int(2 * x) for x in row] for row in w] for w in mats])
    have = {m.tobytes() for m in twice}
    assert len(have) == len(mats)
    products = np.einsum("aij,bjk->abik", twice, twice) // 2
    assert all(m.tobytes() in have for m in products.reshape(-1, sd.rank, sd.rank))


def _restricted_roots(sd):
    """The restricted roots as exact rows (alpha(A_1), ..., alpha(A_r)) on
    the a-basis A of sd: the nonzero joint eigenvalues of ad(A_i) on g, read
    in floats on one eigenbasis of a generic combination and rounded to
    their small denominators."""
    alg = sd.algebra
    den, A = sd.boosts
    B = alg.stack.astype(object)
    ads = []
    for a in A:
        N, L = alg.read_coords(np.array([a @ b - b @ a for b in B]))
        ads.append(np.array(N, dtype=float).T / (L * den))
    # the powers of pi keep distinct roots apart on the combination
    _vals, V = np.linalg.eig(sum(np.pi**-i * ad for i, ad in enumerate(ads)))
    Vinv = np.linalg.inv(V)
    joint = np.array([np.diagonal(Vinv @ ad @ V) for ad in ads]).T
    assert np.abs(joint.imag).max() < 1e-9
    roots = set()
    for row in joint.real:
        exact = tuple(Fraction(x).limit_denominator(12) for x in row)
        assert all(abs(x - float(e)) < 1e-9 for x, e in zip(row, exact))
        if any(exact):
            roots.add(exact)
    return roots


@pytest.mark.parametrize(
    "key,count",
    [("so(2,3)", 8), ("so(4,4)", 24), ("su(2,2)", 8), ("su(1,2)", 4),
     ("g2(2)", 12)],
)  # root types B, D, C, BC and G
def test_weyl_group_permutes_the_restricted_roots(key, count):
    sd = split_data(build_real_form(key))
    roots = _restricted_roots(sd)
    assert len(roots) == count
    rows = np.array(sorted(roots), dtype=object)
    for w in weyl_elements(sd):
        # alpha o w, for alpha o w (x) = alpha(w x)
        assert set(map(tuple, rows @ w)) == roots


def test_g2_weyl_group_swaps_two_boost_coordinates():
    # the permutation (0 1) of so(3,4)'s boost coordinates, as conjugation
    # of each boost by the permutation matrix of coordinates 0 <-> 1, 3 <-> 4
    sd = split_data(build_real_form("g2(2)"))
    _den, A = sd.boosts
    Q = np.eye(7, dtype=object)[[1, 0, 2, 4, 3, 5, 6]]
    swap = np.array(
        [list(sd.solver.coords((Q @ B @ Q.T).reshape(-1))) for B in A]
    ).T
    assert any((w == swap).all() for w in weyl_elements(sd))


def test_g2_lines_related_by_a_coordinate_swap_are_a_hit():
    sd = split_data(build_real_form("g2(2)"))
    V_h = Subspace.from_rows(fmat([[1, 1]]), 2)
    V_l = Subspace.from_rows(fmat([[1, -1]]), 2)
    ok, (w, v) = weyl_disjoint(sd, V_h, V_l)
    assert not ok
    assert any((w == m).all() for m in weyl_elements(sd))
    assert any(x != 0 for x in v)
    assert V_l.contains(v)
    assert Subspace.from_rows(V_h.matrix() @ w.T, 2).contains(v)


def test_g2_hits_keep_their_rational_witnesses():
    # the first hitting elements in enumeration order: -1 on the first
    # boost coordinate for (1, 1) against (1, -1), and element 1, a
    # rotation with half-integer entries, for (1, 0) against (1, -1)
    sd = split_data(build_real_form("g2(2)"))
    half = Fraction(1, 2)
    for h, want in (
        ([1, 1], [[-1, 0], [0, 1]]),
        ([1, 0], [[half, -3 * half], [-half, -half]]),
    ):
        ok, (w, v) = weyl_disjoint(
            sd, Subspace.from_rows([h], 2), Subspace.from_rows([[1, -1]], 2)
        )
        assert not ok
        assert all(type(x) is Fraction and type(x.numerator) is int for x in w.flat)
        assert w.tolist() == want
        assert list(v) == [1, -1]


def test_g2_factor_table_is_the_exact_stack_over_den_mod_p():
    sd = split_data(build_real_form("g2(2)"))
    g = _FactorGroup(sd.factors[0])
    assert g.den == 2 and g.size == 12
    p = MODP_PRIME
    for e, w in enumerate(weyl_elements(sd)):
        assert np.array_equal(unscaled(g.exact(e), g.den), w)
        want = [[x.numerator * pow(x.denominator, -1, p) % p for x in row] for row in w]
        assert g.modp(np.array([e]))[0].tolist() == want


def test_element_matrix_doubles_the_classical_block_beside_g2():
    sd = split_data(product_algebra("so(3,4)", "g2(2)"))
    groups = [_FactorGroup(f) for f in sd.factors]
    mats = list(weyl_elements(sd))
    for idx in [(0, 0), (5, 1), (17, 4), (47, 11)]:
        den, W = rootweyl._element_matrix(sd.rank, groups, idx)
        assert den == 2
        assert np.array_equal(W[:3, :3], 2 * groups[0].exact(idx[0]))
        assert np.array_equal(W[3:, 3:], groups[1].exact(idx[1]))
        assert not W[:3, 3:].any() and not W[3:, :3].any()
        assert np.array_equal(unscaled(W, den), mats[12 * idx[0] + idx[1]])


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


@pytest.mark.parametrize(
    "key,x", [("so(4,4)", [7, 5, 2, 1]), ("g2(2)", [0, 1])], ids=["so(4,4)", "g2(2)"]
)
def test_chamber_sort_is_invariant_on_weyl_orbits(key, x):
    sd = split_data(build_real_form(key))
    rng = np.random.default_rng(13)
    mats = list(weyl_elements(sd))
    x = fvec(x)
    ref = list(chamber_sort(sd, x))
    # the representative keeps the Killing norm (48 for g2's [0, 1])
    assert fvec(ref) @ sd.gram @ fvec(ref) == x @ sd.gram @ x
    for idx in rng.integers(0, len(mats), size=12):
        moved = mats[idx] @ x
        assert list(chamber_sort(sd, moved)) == ref
    # float input stays float
    got = chamber_sort(sd, [float(t) for t in x])
    assert all(type(t) is float for t in got)
    assert got == [float(t) for t in ref]


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


def test_split_data_refuses_boosts_off_the_integer_span():
    # on the basis 2 * so(1,2), the standard boosts have coordinates 1/2
    meta = {"family": "so", "p": 1, "q": 2, "root_type": "B"}
    basis = so_basis(1, 2)
    meta["a_basis"] = [b for b in basis if (b == b.T).all()][:1]
    alg = LieAlgebra("2so(1,2)", [2 * b for b in basis], meta=meta)
    with pytest.raises(InternalError, match=r"2so\(1,2\): boosts off the integer span"):
        split_data(alg)


def test_line_scan_products_are_bounded_explicitly():
    # every dot product is nonzero, but n . v = 2**64 + 2**32 - 2**32 for the
    # identity with signs (1, 1, -1, -1): int64 would wrap it to 0
    got = _assert_line_scan_is_the_group_scan([2**32 + 1, 2**32, 3, 5], [2**32, 0, 0, 1])
    assert got == (True, None)


# ---------------------------------------------------------------------------
# the batched scan against a plain exact loop
# ---------------------------------------------------------------------------

def _reference_scan(sd, V_h, V_l):
    """The first Weyl element w (in enumeration order) with w(V_h) meeting
    V_l, by exact intersection for every element."""
    for w in weyl_elements(sd):
        moved = Subspace.from_rows(V_h.matrix() @ w.T, sd.rank)
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
    moved = Subspace.from_rows(V_h.matrix() @ w.T, V_h.ambient_dim)
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
        (den, W), x = wit
        assert den == 1
        _assert_witness(U, line, (W, x))
        assert any(np.array_equal(W, w) for w in weyl_elements(sd))


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


# ---------------------------------------------------------------------------
# the type-D line scan on the orbit of the normal against the whole group
# ---------------------------------------------------------------------------

_ORBIT_AMBIENTS = {4: "so(4,4)", 5: "so(5,5)", 6: "so(6,6)"}


def _group_line_scan(normal, v, even=True):
    """The first signed permutation (perm, signs) in enumeration order with
    <w n, v> = 0, by a plain loop over the whole group of type D (or of
    type B when not ``even``)."""
    k = len(normal)
    signs = [
        s for s in itertools.product((1, -1), repeat=k)
        if not even or s.count(-1) % 2 == 0
    ]
    for perm in itertools.permutations(range(k)):
        for s in signs:
            if sum(s[i] * normal[perm[i]] * v[i] for i in range(k)) == 0:
                return False, (perm, s)
    return True, None


def _assert_line_scan_is_the_group_scan(normal, v):
    k = len(normal)
    sd = split_data(build_real_form(_ORBIT_AMBIENTS[k]))
    U = Subspace.from_rows(kernel(fmat([normal])), k)
    line = Subspace.from_rows([v], k)
    got = _d_line_scan(sd, U, line)
    ref_ok, ref_wit = _group_line_scan(normal, list(line.basis[0]))
    assert got[0] == ref_ok
    if ref_ok:
        assert got[1] is None
        return got
    perm, signs = ref_wit
    w_ref = np.zeros((k, k), dtype=int)
    w_ref[range(k), perm] = signs
    (den, W), x = got[1]
    assert den == 1 and np.array_equal(W, w_ref)
    assert list(x) == list(line.basis[0])
    _assert_witness(U, line, (W, x))
    return got


@st.composite
def _orbit_cases(draw):
    """A normal with zero entries, repeated magnitudes or distinct
    magnitudes, and a line; half the lines are planted orthogonal to a
    signed rearrangement of the normal, so that the scan hits."""
    k = draw(st.sampled_from(sorted(_ORBIT_AMBIENTS)))
    sign = st.sampled_from([1, -1])
    kind = draw(st.sampled_from(["zeros", "repeated", "distinct"]))
    if kind == "distinct":
        mags = draw(st.permutations(range(1, k + 1)))
    else:
        mags = draw(st.lists(st.sampled_from([1, 2] if kind == "repeated" else [1, 2, 3]),
                             min_size=k, max_size=k))
    if kind == "zeros":
        zeros = draw(st.sets(st.integers(0, k - 1), min_size=1, max_size=k - 1))
        mags = [0 if i in zeros else m for i, m in enumerate(mags)]
    normal = [m * draw(sign) for m in mags]
    vec = st.lists(st.integers(-3, 3), min_size=k, max_size=k)
    if draw(st.booleans()):
        # v = (m.m) x - (m.x) m is orthogonal to m = (signs o n)[perm]
        perm = draw(st.permutations(range(k)))
        m = [normal[perm[i]] * draw(sign) for i in range(k)]
        x = draw(vec)
        mm, mx = sum(a * a for a in m), sum(a * b for a, b in zip(m, x))
        v = [mm * b - mx * a for a, b in zip(m, x)]
    else:
        v = draw(vec)
    assume(any(v))
    return normal, v


@given(_orbit_cases())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_line_scan_on_the_orbit_agrees_with_the_group_loop(case):
    _assert_line_scan_is_the_group_scan(*case)


def test_line_scan_follows_the_even_signs_of_type_d():
    # +-1 +-1 +-1 +-3 vanishes only with an odd number of minus signs
    normal, v = [1, 1, 1, 3], [1, 1, 1, 1]
    assert _assert_line_scan_is_the_group_scan(normal, v) == (True, None)
    assert _group_line_scan(normal, v, even=False) == (False, ((0, 1, 2, 3), (1, 1, 1, -1)))


def test_line_scan_witness_is_the_first_permutation_that_hits():
    # no signed sum of the identity vanishes; the first hit is a 4-cycle
    ok, ((_den, w), _v) = _assert_line_scan_is_the_group_scan([1, 2, 3, 4], [1, 1, 1, 5])
    assert not ok
    assert [list(row).index(next(x for x in row if x)) for row in w] == [1, 2, 3, 0]


def test_rearrangements_are_the_distinct_orderings():
    for n in [(0, 0, 0, 1), (1, 1, 2, 2, 0), (3, -3, 3, 1), (1, 2, 3, 4)]:
        got = rootweyl._rearrangements(n)
        assert len(got) == len(set(got))
        assert set(got) == set(itertools.permutations(n))


def test_table1_scans_the_so88_row_without_the_d8_group(tmp_path):
    from ckforms.cli import main

    real_group, real_scan = rootweyl._FactorGroup, rootweyl._d_line_scan
    groups, so88 = [], []

    def group(f, *args):
        groups.append(f.rank)
        return real_group(f, *args)

    def scan(sd, U, line):
        got = real_scan(sd, U, line)
        if sd.rank == 8:
            so88.append(got)
        return got

    out = tmp_path / "table1.md"
    with mock.patch.object(rootweyl, "_FactorGroup", group), \
            mock.patch.object(rootweyl, "_d_line_scan", scan):
        assert main(["table", "--which", "table1", "--max-n", "2", "--out", str(out)]) == 0
    assert so88 == [(True, None)]
    assert groups and max(groups) < 8


# ---------------------------------------------------------------------------
# the scan reduced by the product structure against the full batched scan
# ---------------------------------------------------------------------------

def _full_scan(sd, V_h, V_l):
    with mock.patch.object(rootweyl, "_reduced", return_value=None):
        return weyl_disjoint(sd, V_h, V_l)


def _assert_reduced_scan(sd, V_h, V_l):
    """The reduced scan gives the full scan's verdict, witness element and
    witness vector; with a cutoff that only the full scan exceeds, a hit is
    still a valid witness, and only an unreduced scan is refused."""
    got = weyl_disjoint(sd, V_h, V_l)
    ref = _full_scan(sd, V_h, V_l)
    assert got[0] == ref[0]
    if not ref[0]:
        (w, v), (w_ref, v_ref) = got[1], ref[1]
        assert np.array_equal(w, w_ref)
        assert list(v) == list(v_ref)
    small = max(rootweyl._factor_order(f) for f in sd.factors)
    try:
        ok, wit = weyl_disjoint(sd, V_h, V_l, cutoff=small)
    except WeylCutoffError:
        assert rootweyl._reduced(sd, V_h, V_l, small) is None
        return
    assert ok == ref[0]
    if not ok:
        _assert_witness(V_h, V_l, wit)


def _product_records():
    """The enumerate --max-n 1 records whose ambient has no so(8,8) factor."""
    recs = generate(GenerationSpec(max_n=1))
    return [r for r in recs if "so(8,8)" not in r.key.split(":", 1)[0]]


def test_reduced_scan_agrees_with_the_full_scan_on_the_product_triples():
    recs = _product_records()
    assert len(recs) == 53
    for rec in recs:
        sd = split_data(rec.g)
        V_h, V_l = adapted_split_part(rec.h), adapted_split_part(rec.l)
        for pair in ((V_h, V_l), (V_l, V_h)):
            # every product triple takes one of the three reductions
            assert rootweyl._reduced(sd, *pair, DEFAULT_WEYL_CUTOFF) == (True, None)
            _assert_reduced_scan(sd, *pair)


_PRODUCT_AMBIENTS = {
    "B2xC2": ("so(2,3)", "su(2,2)"),
    "D4xD2": ("so(4,4)", "so(2,2)"),
    "D4xB3": ("so(4,4)", "so(3,4)"),
    "B3xG2": ("so(3,4)", "g2(2)"),
}


def _product_sd(name):
    return split_data(product_algebra(*_PRODUCT_AMBIENTS[name]))


def _vec(k):
    return st.lists(st.integers(-2, 2), min_size=k, max_size=k)


@st.composite
def _side(draw, sd):
    """Rows of a split-part subspace: factorwise (each factor's part from 0
    to all of it, or proper on both factors), the graph {(A b, b)} of a
    random or a signed-permutation map A, or a generic span."""
    (f1, f2), r = sd.factors, sd.rank
    kind = draw(st.sampled_from(["factorwise", "proper", "graph", "graph", "generic"]))
    if kind in ("factorwise", "proper"):
        low = kind == "proper"
        rows = []
        for f in (f1, f2):
            for part in draw(st.lists(_vec(f.rank), min_size=low, max_size=f.rank - low)):
                row = [0] * r
                row[f.offset : f.offset + f.rank] = part
                rows.append(row)
        return kind, rows
    if kind == "graph" and f2.rank <= f1.rank:
        if draw(st.sampled_from([True, True, False])):
            cols = draw(st.permutations(range(f1.rank)))[: f2.rank]
            A = np.zeros((f1.rank, f2.rank), dtype=int)
            for j, i in enumerate(cols):
                A[i, j] = draw(st.sampled_from([1, -1]))
        else:
            A = np.array(draw(st.lists(_vec(f2.rank), min_size=f1.rank,
                                       max_size=f1.rank)))
        return kind, [list(A[:, j]) + [int(j == i) for i in range(f2.rank)]
                      for j in range(f2.rank)]
    return "generic", draw(st.lists(_vec(r), min_size=1, max_size=r - 1))


@st.composite
def _product_pairs(draw, name):
    """Two sides on a product ambient; a hit is planted by adding to a
    factorwise or generic V_l the image w(x) of a vector x of V_h."""
    sd = _product_sd(name)
    _kind, h_rows = draw(_side(sd))
    l_kind, l_rows = draw(_side(sd))
    V_h = Subspace.from_rows(h_rows, sd.rank)
    if V_h.dim and l_kind != "graph" and draw(st.booleans()):
        # den w(x) for the element (den, W)
        _den, W = rootweyl._element_matrix(
            sd.rank,
            [_FactorGroup(f) for f in sd.factors],
            [draw(st.integers(0, rootweyl._factor_order(f) - 1)) for f in sd.factors],
        )
        x = list(W @ np.array(V_h.basis[0], dtype=object))
        if l_kind in ("factorwise", "proper"):
            for f in sd.factors:
                part = [0] * sd.rank
                part[f.offset : f.offset + f.rank] = x[f.offset : f.offset + f.rank]
                l_rows.append(part)
        else:
            l_rows.append(x)
    return h_rows, l_rows


@pytest.mark.parametrize("name", sorted(_PRODUCT_AMBIENTS))
def test_reduced_scan_agrees_with_the_full_scan_on_random_pairs(name):
    sd = _product_sd(name)

    @given(_product_pairs(name))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def check(pair):
        h_rows, l_rows = pair
        _assert_reduced_scan(
            sd,
            Subspace.from_rows(h_rows, sd.rank),
            Subspace.from_rows(l_rows, sd.rank),
        )

    check()


def test_fixed_factor_scan_finds_a_hit_off_the_identity():
    # V_h = 0 + line is fixed by W1, and V_l is not factorwise: the hit is
    # the transposition of the C2 factor, which moves e2 to e3
    sd = _product_sd("B2xC2")
    V_h = Subspace.from_rows([[0, 0, 1, 0]], 4)
    V_l = Subspace.from_rows([[0, 0, 0, 1], [1, 1, 1, 0]], 4)
    assert not intersect(V_h, V_l).dim
    ok, ((den, W), _v) = rootweyl._reduced(sd, V_h, V_l, DEFAULT_WEYL_CUTOFF)
    assert not ok and den == 1
    assert list(W @ fvec([0, 0, 1, 0])) in ([0, 0, 0, 1], [0, 0, 0, -1])
    _assert_reduced_scan(sd, V_h, V_l)


def test_graph_lifts_hold_for_the_catalog_diagonals():
    # delta(so(3,4), spin) and delta(so(2,4), block) lift every generator
    # of W2 into the D4 factor; a generic map does not
    for ambient, side in (
        ("so(4,4)xso(3,4)", "delta(so(3,4),spin)"),
        ("so(4,4)xso(2,4)", "delta(so(2,4),block)"),
        ("so(4,4)xso(4,4)", "delta(so(4,4))"),
    ):
        g, h, _l, _key = parse_triple(f"{ambient}:{side}+{side}")
        assert rootweyl._graph_map(split_data(g), adapted_split_part(h)) is not None
    sd = _product_sd("D4xB3")
    V = Subspace.from_rows(
        [[1, 2, 0, 0, 1, 0, 0], [0, 1, 3, 0, 0, 1, 0], [0, 0, 0, 1, 0, 0, 1]], 7
    )
    assert rootweyl._graph_map(sd, V) is None


def test_so88_factor_pair_is_scanned_once():
    # the factorwise so(8,8) records and the so(8,8) x so(8,8) diagonal all
    # meet so(7,8)@block against so(1,8)@spin on one so(8,8) factor
    sd88 = split_data(build_real_form("so(8,8)"))
    sd88.verdicts.clear()
    calls = []
    real = rootweyl._d_line_scan

    def counted(*args):
        calls.append(args)
        return real(*args)

    recs = [r for r in generate(GenerationSpec(max_n=1)) if "so(8,8)" in r.key]
    with mock.patch.object(rootweyl, "_d_line_scan", counted):
        for rec in recs:
            ok, wit = weyl_disjoint(
                split_data(rec.g), adapted_split_part(rec.h), adapted_split_part(rec.l)
            )
            assert ok and wit is None
    assert len(recs) == 16
    assert len(calls) == 1


def _gram(cs, K):
    """Gram matrix of the rational coordinate vectors cs under the integer
    form K, as Fractions."""
    lc, C = scaled_ints(np.array([list(c) for c in cs], dtype=object))
    return unscaled(int_matmul(int_matmul(C, K), C.T), lc * lc)


def _split_reference(g):
    """The split part of a simple algebra with one ``coords`` call per
    Fraction boost matrix, orthogonalized with Fraction quotients."""
    a_mats = list(unscaled(np.array(g.meta["a_basis"]), 1))
    K = g.killing_ints
    cs = [g.coords(A) for A in a_mats]
    G = _gram(cs, K)
    r = len(cs)
    if any(G[i, j] != 0 for i in range(r) for j in range(i + 1, r)):
        for i in range(r):
            for j in range(i):
                Gji = _gram([cs[j], cs[i]], K)
                if Gji[0, 1] != 0:
                    cs[i] = cs[i] - (Gji[0, 1] / Gji[0, 0]) * cs[j]
            cs[i] = fvec(primitive_rows([list(cs[i])])[0])
        a_mats = [g.matrix(c) for c in cs]
        G = _gram(cs, K)
    return a_mats, [G[i, i] for i in range(r)]


def test_split_data_reads_the_boosts_in_one_batch():
    forms = {}
    for fam in TABLE1_FAMILIES:
        for n in _instance_ns(fam, 3):
            g, h, l, _key = fam["build"](n)
            for alg in (g, h.source, l.source):
                forms[alg.name] = alg
    assert len(forms) == 27
    for alg in forms.values():
        sd = split_data(alg)
        a_mats, gram_diag = _split_reference(alg)
        den, A = sd.boosts
        mats = unscaled(A, den)
        assert all(np.array_equal(a, b) for a, b in zip(mats, a_mats))
        assert len(mats) == len(a_mats)
        assert list(np.diagonal(sd.gram)) == gram_diag
        assert all(type(x) is int for x in sd.gram.flat)
