"""Matrix Lie algebra layer: brackets, Killing forms, Cartan involutions."""
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckforms.exactlin import (
    CoordinateSolver,
    Subspace,
    echelon_rows,
    embed_block,
    fvec,
    intersect,
    signature,
)
from ckforms.liealg import (
    LieAlgebra,
    direct_sum,
    is_compactly_embedded,
    span_closure,
    validate_structure,
)
from ckforms.realforms import build_real_form, so_basis


def test_structure_validation_passes_for_small_forms(so23, su22):
    for g in (so23, su22):
        rep = validate_structure(g)
        failed = [c for c in rep.checks if not c["passed"]]
        assert not failed, failed


def test_bracket_antisymmetry_and_jacobi_sampled(so23):
    rng = np.random.default_rng(5)
    d = so23.dim
    for _ in range(30):
        i, j, k = rng.integers(0, d, size=3)
        xy = so23.bracket_coords(_unit(d, i), _unit(d, j))
        yx = so23.bracket_coords(_unit(d, j), _unit(d, i))
        assert all(a == -b for a, b in zip(xy, yx))
        # [[x,y],z] + [[y,z],x] + [[z,x],y] = 0
        s = (
            so23.bracket_coords(xy, _unit(d, k))
            + so23.bracket_coords(
                so23.bracket_coords(_unit(d, j), _unit(d, k)), _unit(d, i)
            )
            + so23.bracket_coords(
                so23.bracket_coords(_unit(d, k), _unit(d, i)), _unit(d, j)
            )
        )
        assert all(x == 0 for x in s)


def _unit(d, i):
    v = fvec([0] * d)
    v[i] = Fraction(1)
    return v


def test_killing_form_is_symmetric_and_ad_invariant(so23):
    K = so23.killing_form
    assert np.array_equal(K, K.T)
    rng = np.random.default_rng(9)
    d = so23.dim
    for _ in range(10):
        i, j, k = rng.integers(0, d, size=3)
        # B([x,y],z) + B(y,[x,z]) = 0
        left = so23.bracket_coords(_unit(d, i), _unit(d, j)) @ K @ _unit(d, k)
        right = _unit(d, j) @ K @ so23.bracket_coords(_unit(d, i), _unit(d, k))
        assert left + right == 0


def test_killing_signature_matches_cartan_split(so23):
    # boosts pq = 6, rotations so(2)+so(3) = 4
    assert signature(so23.killing_form) == (6, 4, 0)
    assert so23.k_subspace().dim == 4
    assert so23.p_subspace().dim == 6


def test_theta_is_an_involution_fixing_k(so23):
    th = so23.theta
    assert np.array_equal(th @ th, np.eye(so23.dim, dtype=object).astype(th.dtype))
    for row in so23.k_subspace().basis:
        assert all(a == b for a, b in zip(th @ row, row))
    for row in so23.p_subspace().basis:
        assert all(a == -b for a, b in zip(th @ row, row))


def test_direct_sum_dimensions_and_block_killing(so23, su22):
    g = direct_sum(so23, su22)
    assert g.dim == so23.dim + su22.dim
    assert g.n == so23.n + su22.n
    K = g.killing_form
    d1 = so23.dim
    assert np.count_nonzero(K[:d1, d1:].astype(float)) == 0
    assert np.array_equal(K[:d1, :d1], so23.killing_form)
    assert np.array_equal(K[d1:, d1:], su22.killing_form)


def test_killing_form_is_one_integer_array(so23, su22):
    g = direct_sum(so23, su22)
    for alg in (so23, su22, g):
        assert alg.killing_ints.dtype == np.int64
        K = alg.killing_form
        assert all(type(x) is Fraction for x in K.flat)
        assert np.array_equal(K, alg.killing_ints)
    d1 = so23.dim
    assert np.array_equal(g.killing_ints[:d1, :d1], so23.killing_ints)
    assert np.array_equal(g.killing_ints[d1:, d1:], su22.killing_ints)
    assert not g.killing_ints[:d1, d1:].any()
    # the integer Gram of a subspace is the Fraction product
    for alg in (so23, g):
        for sub in (alg.k_subspace(), alg.p_subspace()):
            V = sub.matrix()
            want = V @ alg.killing_form @ V.T
            assert np.array_equal(alg.restricted_gram(sub), want)


def test_direct_sum_brackets_do_not_mix_factors(so23, su22):
    g = direct_sum(so23, su22)
    d = g.dim
    x = _unit(d, 2)          # factor 1
    y = _unit(d, so23.dim + 3)  # factor 2
    assert all(v == 0 for v in g.bracket_coords(x, y))


def test_span_closure_grows_to_the_generated_subalgebra(so23):
    # two boost generators of so(2,3) generate a rotation as well
    line = Subspace.from_rows(
        [so23.p_subspace().basis[0], so23.p_subspace().basis[1]]
    )
    closed = span_closure(so23, line)
    assert closed.dim > line.dim


def test_compactly_embedded_subspaces(so23):
    ok, sig = is_compactly_embedded(so23, so23.k_subspace())
    assert ok and sig == (0, 4, 0)
    bad, sig2 = is_compactly_embedded(
        so23, Subspace.from_rows([so23.p_subspace().basis[0]])
    )
    assert not bad and sig2[0] == 1


def test_matrix_and_coords_round_trip(so23):
    rng = np.random.default_rng(21)
    x = fvec(list(rng.integers(-3, 4, size=so23.dim)))
    M = so23.matrix(x)
    back = so23.coords(M)
    assert all(a == b for a, b in zip(back, x))
    assert so23.contains_matrix(M)


def test_constructor_rejects_a_non_integral_basis():
    basis = so_basis(1, 2)
    basis[0] = basis[0] * Fraction(1, 2)
    with pytest.raises(ValueError, match="half: basis matrices must be integral"):
        LieAlgebra("half", basis)
    basis = so_basis(1, 2)
    basis[1] = basis[1].astype(float)
    with pytest.raises(ValueError, match="floaty: basis matrices must be integral"):
        LieAlgebra("floaty", basis)


def test_int64_products_are_bounded_explicitly():
    eta = np.diag([1, -1, -1]).astype(object)
    big = LieAlgebra("big", [2**32 * b for b in so_basis(1, 2)], eta)
    with pytest.raises(ValueError, match="big: bracket entries"):
        big.killing_form
    plain = LieAlgebra("plain", so_basis(1, 2), eta)
    # the commutators of bracket_coords and span_closure, 2**64 [b_i, b_j],
    # pass 2**63 and run on Python ints
    for i in range(3):
        for j in range(3):
            got = big.bracket_coords(_unit(3, i), _unit(3, j))
            assert list(got) == [2**32 * c for c in plain.tensor[i, :, j]]
    line = Subspace.from_rows([_unit(3, 0), _unit(3, 1)])
    assert span_closure(big, line).dim == 3
    # theta reads the stack 2**32 * (g b g) with common denominator 2**32:
    # the rebuild passes 2**63 and runs on Python ints
    assert np.array_equal(big.theta, plain.theta)
    scaled = LieAlgebra("scaled", [2**20 * b for b in so_basis(1, 2)])
    K = scaled.killing_form
    # so(1,2): one rotation (tr = -2) and two boosts (tr = +2), times 2**40
    assert [K[i, i] for i in range(3)] == [2**41, 2**41, -(2**41)]
    assert all(K[i, j] == 0 for i in range(3) for j in range(3) if i != j)
    # [2**20 b_i, 2**20 b_j] = 2**20 c_ij^k (2**20 b_k), read in int64
    assert np.array_equal(scaled.tensor, 2**20 * plain.tensor)
    for i in range(3):
        for j in range(3):
            got = scaled.bracket_coords(_unit(3, i), _unit(3, j))
            assert list(got) == [2**20 * c for c in plain.tensor[i, :, j]]
    assert span_closure(scaled, line).dim == 3


def test_jacobi_check_counts_each_violated_triple():
    g = LieAlgebra("so(2,3)", so_basis(2, 3))
    d = g.dim
    T = g.tensor.copy()
    T[0, 1, 2] += 1  # c_02^1 and c_20^1 stay antisymmetric
    T[2, 1, 0] -= 1
    g._tensor = T

    def bracket(u, v):
        return np.einsum("i,ikj,j->k", u, T, v)

    E = np.eye(d, dtype=np.int64)
    bad = sum(
        (
            bracket(bracket(E[i], E[j]), E[k])
            + bracket(bracket(E[j], E[k]), E[i])
            + bracket(bracket(E[k], E[i]), E[j])
        ).any()
        for i, j, k in itertools.combinations(range(d), 3)
    )
    assert bad
    jacobi = next(c for c in validate_structure(g).checks if c["name"] == "jacobi")
    assert not jacobi["passed"]
    assert jacobi["detail"] == f"120 triples, {bad} violations"


def test_structure_validation_reports_a_basis_that_is_not_closed():
    # [E12, E21] = E11 - E22 lies outside span(E12, E21)
    e12 = np.array([[0, 1], [0, 0]], dtype=object)
    e21 = np.array([[0, 0], [1, 0]], dtype=object)
    rep = validate_structure(LieAlgebra("open", [e12, e21]))
    closure = [c for c in rep.checks if c["name"] == "bracket-closure"]
    assert [c["passed"] for c in closure] == [False]
    assert "bracket left the span" in closure[0]["detail"]


_SMALL_FORMS = ("so(1,2)", "so(2,3)", "su(1,2)", "sp(1,1)", "g2(2)")


@st.composite
def _form_and_vectors(draw, count):
    """A small real form and `count` sparse rational coordinate vectors."""
    g = build_real_form(draw(st.sampled_from(_SMALL_FORMS)))
    coeff = st.one_of(
        st.just(0), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    )
    vecs = [fvec(draw(st.lists(coeff, min_size=g.dim, max_size=g.dim)))
            for _ in range(count)]
    return g, vecs


def _commutator(g, u, v):
    A, B = g.matrix(u), g.matrix(v)
    return A @ B - B @ A


@given(_form_and_vectors(2))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_bracket_coords_are_the_coords_of_the_matrix_commutator(data):
    g, (u, v) = data
    assert list(g.bracket_coords(u, v)) == list(g.coords(_commutator(g, u, v)))


def _naive_closure(g, sub):
    """Bracket one pair of basis vectors at a time, through the single-matrix
    solver, and keep each bracket that enlarges the span, until every pair
    has been bracketed."""
    basis = list(sub.basis)
    mats = [g.matrix(u) for u in basis]
    pairs = [(a, b) for a in range(len(basis)) for b in range(a)]
    while pairs:
        a, b = pairs.pop()
        w = g.coords(mats[a] @ mats[b] - mats[b] @ mats[a])
        if Subspace.from_rows(basis + [w], g.dim).dim > len(basis):
            pairs += [(len(basis), c) for c in range(len(basis))]
            basis.append(w)
            mats.append(g.matrix(w))
    return Subspace.from_rows(basis, g.dim)


def _assert_same_closure(g, sub):
    fast, slow = span_closure(g, sub), _naive_closure(g, sub)
    assert fast.dim == slow.dim
    assert all(slow.contains(v) for v in fast.basis)


@given(_form_and_vectors(2))
@settings(max_examples=12, deadline=None, derandomize=True)
def test_span_closure_agrees_with_a_naive_fixpoint(data):
    g, vecs = data
    _assert_same_closure(g, Subspace.from_rows(vecs, g.dim))


def _table1_meets():
    """(key, g, h cap l) for each triple of ``table --which table1 --max-n 2``,
    the meet as the criteria form it."""
    from ckforms.enumerate import TABLE1_FAMILIES, _instance_ns

    for fam in TABLE1_FAMILIES:
        for n in _instance_ns(fam, 2):
            g, h, l, key = fam["build"](n)
            yield key, g, intersect(h.subspace(), l.subspace())


def test_span_closure_agrees_with_a_naive_fixpoint_on_the_table1_meets():
    dims = {}
    for key, g, meet in _table1_meets():
        _assert_same_closure(g, meet)
        dims[key] = meet.dim
    assert len(dims) == 9
    assert dims["so(8,8):so(7,8)@block+so(1,8)@spin"] == 21


def test_span_closure_reads_nothing_in_g_on_a_closed_meet(monkeypatch):
    from ckforms.cli import parse_triple

    g, h, l, _key = parse_triple("so(8,8):so(7,8)@block+so(1,8)@spin")
    meet = intersect(h.subspace(), l.subspace())

    def no_read(self, X):
        raise AssertionError(f"coordinates read in {self.name}")

    monkeypatch.setattr(LieAlgebra, "read_coords", no_read)
    closure = span_closure(g, meet)
    assert closure.dim == meet.dim == 21
    assert np.array_equal(closure.matrix(), meet.matrix())
    # a basis that grows is read in g
    with pytest.raises(AssertionError, match="coordinates read in g2"):
        span_closure(build_real_form("g2(2)"), _g2_closure_input())


def test_span_closure_reads_only_the_brackets_outside_the_span(so23, monkeypatch):
    # the compact part (closed) and the sum of two boosts: of the 10
    # brackets, the 4 that leave the span are read in g.  Three of them have
    # entries off the support of the basis matrices, one lies on it
    k, p = so23.k_subspace(), so23.p_subspace()
    sub = Subspace.from_rows(list(k.basis) + [p.basis[0] + p.basis[1]], so23.dim)
    mats = [so23.matrix(v) for v in sub.basis]
    pairs = list(zip(*np.triu_indices(sub.dim, 1)))
    outside = [
        (a, b) for a, b in pairs
        if not sub.contains(so23.coords(mats[a] @ mats[b] - mats[b] @ mats[a]))
    ]
    reads = []
    brackets = so23._brackets

    def spy(rows, a, b):
        reads.append(list(zip(a, b)))
        return brackets(rows, a, b)

    monkeypatch.setattr(so23, "_brackets", spy)
    assert span_closure(so23, sub).dim == so23.dim
    assert len(outside) == 4 and len(pairs) == 10
    assert reads[0] == outside


def _g2_closure_input():
    # two small vectors whose closure is all of g2(2)
    u, v = _unit(14, 10), fvec([0] * 14)
    v[3], v[7], v[13] = Fraction(1, 2), Fraction(3), Fraction(1, 3)
    return Subspace.from_rows([u, v], 14)


def test_span_closure_brackets_outgrow_int64():
    # kept first-seen rows of this closure once reached about 10**9 and
    # pushed their commutators past the int64 bound
    _assert_same_closure(build_real_form("g2(2)"), _g2_closure_input())


def test_span_closure_keeps_each_round_reduced(monkeypatch):
    # every grown basis is bracketed in reduced echelon form, and the closure
    # of all of g2(2) ends on the identity instead of rows of about 10**9
    g = build_real_form("g2(2)")
    rounds = []
    brackets = g._brackets

    def spy(rows, a, b):
        rounds.append(np.asarray(rows))
        return brackets(rows, a, b)

    monkeypatch.setattr(g, "_brackets", spy)
    closure = span_closure(g, _g2_closure_input())
    assert len(rounds) > 2
    for rows in rounds[1:]:
        assert (echelon_rows(rows) == rows).all()
    assert max(abs(x) for r in closure.basis for x in r) < 2**16
    assert [list(r) for r in closure.basis] == np.eye(14, dtype=int).tolist()


def test_direct_sum_places_the_factor_solvers():
    # every ambient of the enumerate --max-n 1 records without so(8,8): the
    # placed pivots, denominator and transform are a fresh elimination's
    from ckforms.embeddings import product_algebra
    from ckforms.enumerate import GenerationSpec, generate

    ambients = {
        r.key.split(":", 1)[0] for r in generate(GenerationSpec(max_n=1))
    }
    pairs = [a.split("x") for a in ambients if "x" in a and "so(8,8)" not in a]
    assert len(pairs) == 26
    for pair in sorted(pairs):
        g = product_algebra(*pair)
        fresh = CoordinateSolver(g._flat)
        placed = g._solver
        assert list(placed.pivots) == list(fresh.pivots)
        assert placed._transform_den == fresh._transform_den
        assert np.array_equal(
            placed._transform.astype(object), fresh._transform.astype(object)
        )
        assert placed._transform.dtype == fresh._transform.dtype
        assert np.array_equal(placed._basis_int, fresh._basis_int)


@pytest.mark.parametrize("a,b", [("so(2,4)", "su(2,2)"), ("so(3,4)", "g2(2)"),
                                 ("sp(1,1)", "so(1,4)")])
def test_direct_sum_theta_is_read_on_first_use_as_the_blockwise_one(a, b):
    A, B = build_real_form(a), build_real_form(b)
    s = direct_sum(A, B)
    assert s._theta_coord is None
    want = embed_block(A.theta, s.dim, 0)
    want[A.dim :, A.dim :] = B.theta
    assert np.array_equal(s.theta, want)
    assert all(type(x) is Fraction for x in s.theta.flat)
