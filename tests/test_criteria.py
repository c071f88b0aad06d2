"""Verdict assembly: both algebraic criteria, case labels, and honest rejects."""

import json
from math import gcd
from types import SimpleNamespace

import numpy as np
import pytest

import ckforms.criteria as criteria
from ckforms.cli import parse_triple
from ckforms.criteria import (
    CompactCheck,
    SumCheck,
    _CERT_PRIMES,
    _PairFacts,
    _proj_dims,
    check_compact_intersection,
    check_sum,
    classify_triple,
)
from ckforms.embeddings import (
    a_map,
    adapted_split_part,
    catalog_lookup,
    diagonal,
    factor_embedding,
    identity_embedding,
    product_algebra,
    product_embedding,
)
from ckforms.enumerate import (
    TABLE2_FAMILIES,
    GenerationSpec,
    _instance_ns,
    _t2_instance,
    generate,
)
from ckforms.exactlin import (
    InternalError,
    Subspace,
    intersect,
    primitive_rows,
    rank,
    rank_at_least_modp,
)
from ckforms.liealg import is_compactly_embedded, span_closure
from ckforms.realforms import build_real_form
from ckforms.rootweyl import split_data


def _lk(key):
    return catalog_lookup(key)


def _triple(key):
    return parse_triple(key)[:3]


@pytest.fixture(scope="module")
def decomposition_verdict(so44):
    h = _lk("so(4,4):so(3,4):spin")
    l = _lk("so(4,4):so(1,4):block")
    return classify_triple(so44, h, l)


def test_spin_block_decomposition_is_standard(decomposition_verdict):
    v = decomposition_verdict
    assert v.dims == {"g": 28, "h": 21, "l": 10, "intersection": 3}
    assert v.sum_check.holds
    assert (v.sum_check.rank, v.sum_check.expected) == (28, 28)
    assert v.sum_check.method == "full-rank certificate mod 999999937"
    assert v.compact_check.compact
    assert v.compact_check.closed
    assert tuple(v.compact_check.signature) == (0, 3, 0)
    assert v.weyl["status"] == "disjoint"
    assert v.case_label == "Decomposition"
    assert not v.swapped
    assert v.projections is None
    assert v.standard_form
    assert v.reject_reason is None


def test_verdict_serialization_shape(decomposition_verdict):
    blob = decomposition_verdict.to_json()
    assert set(blob) == {
        "triple",
        "dims",
        "sum",
        "intersection",
        "case",
        "swapped",
        "projections",
        "weyl",
        "standard_form",
        "reject_reason",
    }
    assert blob["triple"] == {
        "g": "so(4,4)",
        "h": "so(4,4):so(3,4):spin",
        "l": "so(4,4):so(1,4):block",
    }
    assert blob["intersection"]["signature"] == [0, 3, 0]
    # every leaf must be JSON-serializable
    json.dumps(blob)


def test_verdict_summary_lines(decomposition_verdict):
    text = decomposition_verdict.summary()
    assert "[ok] sum g = h + l (rank 28/28" in text
    assert "[ok] intersection compactly embedded (dim 3, Killing signature (0,3,0))" in text
    assert "[ok] Weyl-orbit disjointness: disjoint" in text
    assert text.endswith("verdict: standard compact form")


def test_zero_intersection_is_trivially_compact():
    g = product_algebra("so(2,4)", "su(2,2)")
    h = factor_embedding(g, 0, identity_embedding(build_real_form("so(2,4)")))
    l = factor_embedding(g, 1, identity_embedding(build_real_form("su(2,2)")))
    v = classify_triple(g, h, l)
    assert v.dims == {"g": 30, "h": 15, "l": 15, "intersection": 0}
    assert v.sum_check.holds
    assert v.compact_check.compact
    assert tuple(v.compact_check.signature) == (0, 0, 0)
    assert v.case_label == "Case1"
    assert v.standard_form


@pytest.fixture(scope="module")
def twisted_diagonal_triple():
    g = product_algebra("so(4,4)", "so(2,4)")
    h = diagonal(g, _lk("so(4,4):so(2,4):block"))
    l = product_embedding(
        g, _lk("so(4,4):so(3,4):spin"), _lk("so(2,4):so(1,4):block")
    )
    return g, h, l


def test_twisted_diagonal_triple_matches_case5(twisted_diagonal_triple):
    g, h, l = twisted_diagonal_triple
    v = classify_triple(g, h, l)
    assert v.dims == {"g": 43, "h": 15, "l": 31, "intersection": 3}
    assert v.case_label == "Case5"
    assert v.swapped
    assert v.standard_form
    assert v.projections["h_decomposable"] is False
    assert v.projections["l_decomposable"] is True


def test_swap_fallback_agrees_with_pre_swapped_order(twisted_diagonal_triple):
    g, h, l = twisted_diagonal_triple
    v = classify_triple(g, l, h)
    assert v.case_label == "Case5"
    assert not v.swapped
    assert v.standard_form
    assert "(after h/l swap)" not in v.summary()
    assert "(after h/l swap)" in classify_triple(g, h, l).summary()


def test_weyl_section_can_be_disabled(twisted_diagonal_triple):
    g, h, l = twisted_diagonal_triple
    v = classify_triple(g, h, l, with_weyl=False)
    assert v.weyl is None
    assert v.standard_form


def test_weyl_section_reports_the_cutoff(so44):
    h = _lk("so(4,4):so(3,4):spin")
    l = _lk("so(4,4):so(1,4):block")
    v = classify_triple(so44, h, l, weyl_cutoff=10)
    assert v.weyl["status"] == "skipped-cutoff"
    assert v.weyl["order"] == 192
    # cutoff does not change the algebraic verdict
    assert v.standard_form
    assert "[--] Weyl-orbit disjointness: skipped-cutoff" in v.summary()


@pytest.mark.parametrize("cutoff", [None, 2.5, "10"])
def test_a_cutoff_that_is_not_an_integer_is_refused(so44, cutoff):
    h = _lk("so(4,4):so(3,4):spin")
    l = _lk("so(4,4):so(1,4):block")
    with pytest.raises(ValueError, match="weyl cutoff must be an integer"):
        classify_triple(so44, h, l, weyl_cutoff=cutoff)
    with pytest.raises(ValueError, match="weyl cutoff must be an integer"):
        GenerationSpec(weyl_cutoff=cutoff)


def test_embedding_targets_must_be_the_ambient(so44):
    # the first embedding lands in so(3,4), not the ambient so(4,4)
    h = _lk("so(3,4):so(1,4):block")
    l = _lk("so(4,4):so(1,4):block")
    with pytest.raises(ValueError):
        classify_triple(so44, h, l)


# ---------------------------------------------------------------------------
# negative controls: each must be rejected for the documented reason
# ---------------------------------------------------------------------------

def test_nested_blocks_fail_the_sum_condition(so44):
    h = _lk("so(4,4):so(3,4):block")
    l = _lk("so(4,4):so(1,4):block")
    v = classify_triple(so44, h, l)
    assert not v.sum_check.holds
    assert (v.sum_check.rank, v.sum_check.expected) == (21, 28)
    assert v.sum_check.method == "fraction-free elimination"
    # l sits inside h, so the intersection is all of l and is non-compact
    assert v.dims["intersection"] == 10
    assert tuple(v.compact_check.signature) == (4, 6, 0)
    assert v.case_label == "Reject"
    assert not v.standard_form
    assert v.reject_reason == "sum condition fails: h + l is a proper subspace of g"
    # Weyl enumeration is only run for algebraically standard triples
    assert v.weyl is None
    assert v.summary().endswith(
        "verdict: Reject (sum condition fails: h + l is a proper subspace of g)"
    )


def test_equal_blocks_fail_the_sum_condition(so44):
    e = _lk("so(4,4):so(1,4):block")
    v = classify_triple(so44, e, e)
    assert not v.sum_check.holds
    assert (v.sum_check.rank, v.sum_check.expected) == (10, 28)
    assert v.dims["intersection"] == 10
    assert tuple(v.compact_check.signature) == (4, 6, 0)
    assert not v.standard_form


def test_double_diagonal_fails_the_sum_condition():
    g = product_algebra("so(2,4)", "so(2,4)")
    d = diagonal(g, None)
    v = classify_triple(g, d, d)
    assert v.dims == {"g": 30, "h": 15, "l": 15, "intersection": 15}
    assert not v.sum_check.holds
    assert (v.sum_check.rank, v.sum_check.expected) == (15, 30)
    assert tuple(v.compact_check.signature) == (8, 7, 0)
    assert v.case_label == "Reject"
    assert v.weyl is None


def test_signature_obstruction_rejects_despite_full_sum(so34):
    h = _lk("so(3,4):so(2,4):block")
    l = _lk("so(3,4):g2(2):g2in7")
    v = classify_triple(so34, h, l)
    assert v.dims == {"g": 21, "h": 15, "l": 14, "intersection": 8}
    assert v.sum_check.holds
    assert (v.sum_check.rank, v.sum_check.expected) == (21, 21)
    assert v.sum_check.method == "full-rank certificate mod 999999937"
    assert not v.compact_check.compact
    assert v.compact_check.closed
    assert tuple(v.compact_check.signature) == (4, 4, 0)
    assert not v.standard_form
    assert v.reject_reason == (
        "intersection is not compactly embedded "
        "(restricted Killing form not negative definite)"
    )
    assert v.weyl is None


def test_identical_complex_pair_fails_the_sum_condition(so24):
    e = _lk("so(2,4):su(1,2):complexstruct")
    v = classify_triple(so24, e, e)
    assert not v.sum_check.holds
    assert (v.sum_check.rank, v.sum_check.expected) == (8, 15)
    assert v.dims["intersection"] == 8
    assert tuple(v.compact_check.signature) == (4, 4, 0)
    assert not v.standard_form


def test_sum_check_counts_independent_rows(so44):
    h = _lk("so(4,4):so(3,4):spin")
    l = _lk("so(4,4):so(1,4):block")
    chk = check_sum(so44, h, l)
    assert chk.holds and chk.rank == 28
    chk2 = check_sum(so44, l, l)
    assert not chk2.holds and chk2.rank == 10


def _dense_rref_ints(M) -> list:
    """Reference: dense fraction-free Gauss-Jordan elimination, in place, on
    a list of Python-int rows (object arrays), each kept primitive.  Returns
    the pivot columns."""
    rows = len(M)
    piv_cols = []
    for c in range(len(M[0]) if rows else 0):
        r = len(piv_cols)
        piv = next((i for i in range(r, rows) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        top = M[r]
        a = top[c]
        for i in range(rows):
            b = M[i][c]
            if i != r and b:
                g = gcd(a, b)
                row = (a // g) * M[i] - (b // g) * top
                M[i] = row // (gcd(*row) or 1)
        piv_cols.append(c)
        if r + 1 == rows:
            break
    return piv_cols


def _dense_rank(rows) -> int:
    return len(_dense_rref_ints(list(np.array(rows, dtype=object))))


def test_sum_and_intersection_agree_with_the_dense_reference_on_every_record():
    recs = generate(GenerationSpec(max_n=1))
    assert len(recs) == 69
    for rec in recs:
        H, L = rec.h.coord_rows(), rec.l.coord_rows()
        r = _dense_rank(np.vstack([H, L]))
        chk = check_sum(rec.g, rec.h, rec.l)
        assert (chk.holds, chk.rank) == (r == rec.g.dim, r), rec.key
        # Grassmann: dim(h n l) = dim h + dim l - dim(h + l)
        meet = _dense_rank(H) + _dense_rank(L) - r
        assert check_compact_intersection(rec.g, rec.h, rec.l).dim == meet, rec.key


# ---------------------------------------------------------------------------
# one intersection path for every shape of side
# ---------------------------------------------------------------------------

def _factor_vs_product(g):
    h = factor_embedding(g, 0, _lk("so(4,4):so(3,4):spin"))
    l = product_embedding(
        g, _lk("so(4,4):so(1,4):block"), _lk("so(2,4):so(1,4):block")
    )
    return h, l


def _product_vs_product(g):
    h = product_embedding(
        g, _lk("so(4,4):so(3,4):spin"), _lk("so(2,4):so(1,4):block")
    )
    l = product_embedding(
        g, _lk("so(4,4):so(1,4):block"), _lk("so(2,4):su(1,2):complexstruct")
    )
    return h, l


def _diagonal_vs_product(g):
    h = diagonal(g, _lk("so(4,4):so(2,4):block"))
    l = product_embedding(
        g, _lk("so(4,4):so(3,4):spin"), _lk("so(2,4):so(1,4):block")
    )
    return h, l


def _projections(p1h, p2h, p1l, p2l, h_dec, l_dec):
    return {
        "pi1_h": p1h, "pi2_h": p2h, "pi1_l": p1l, "pi2_l": p2l,
        "h_decomposable": h_dec, "l_decomposable": l_dec,
    }


@pytest.mark.parametrize(
    "ambient, sides, meet, sig, projections, case",
    [
        (("so(4,4)", "so(2,4)"), _factor_vs_product, 3, (0, 3, 0),
         _projections(21, 0, 10, 10, True, True), "Reject"),
        (("so(4,4)", "so(2,4)"), _product_vs_product, 6, (0, 6, 0),
         _projections(21, 10, 10, 8, True, True), "Case3"),
        (("so(4,4)", "so(2,4)"), _diagonal_vs_product, 3, (0, 3, 0),
         _projections(15, 15, 21, 10, False, True), "Case5"),
        (("so(4,4)", "so(2,4)"), lambda g: _diagonal_vs_product(g)[::-1],
         3, (0, 3, 0), _projections(21, 10, 15, 15, True, False), "Case5"),
        (("so(2,4)", "so(2,4)"), lambda g: (diagonal(g), diagonal(g)), 15,
         (8, 7, 0), _projections(15, 15, 15, 15, False, False), "Reject"),
    ],
    ids=[
        "factor-vs-product", "product-vs-product", "diagonal-vs-product",
        "product-vs-diagonal", "double-diagonal",
    ],
)
def test_generic_intersection_keeps_each_side_shape(
    ambient, sides, meet, sig, projections, case
):
    # values of the structure-specific intersections this path replaced
    g = product_algebra(*ambient)
    h, l = sides(g)
    v = classify_triple(g, h, l, with_weyl=False)
    assert v.dims["intersection"] == meet
    assert tuple(v.compact_check.signature) == sig
    assert v.projections == projections
    assert v.case_label == case


# ---------------------------------------------------------------------------
# placed sides: read off their parts, as the general route reads them in g
# ---------------------------------------------------------------------------

def _ref_check_sum(g, h, l):
    """The sum check on every image row read in g, made primitive."""
    M = primitive_rows(np.vstack([h.coord_rows(), l.coord_rows()]))
    for p in _CERT_PRIMES:
        if rank_at_least_modp(M, g.dim, p=p):
            return SumCheck(True, g.dim, g.dim, f"full-rank certificate mod {p}")
    r = rank(M)
    return SumCheck(r == g.dim, r, g.dim, "fraction-free elimination")


@pytest.fixture(scope="module")
def placed_triples():
    """Every record of ``enumerate --max-n 1`` (so(8,8) included) and every
    instance of ``table --which table2 --max-n 2``."""
    triples = [(r.g, r.h, r.l) for r in generate(GenerationSpec(max_n=1))]
    assert len(triples) == 69
    for fam in TABLE2_FAMILIES:
        for n in _instance_ns(fam, 2):
            triples.append(_t2_instance(fam, n)[:3])
    return triples


def test_placed_sides_match_the_general_route(placed_triples):
    placed = 0
    for g, h, l in placed_triples:
        sd = split_data(g)
        for side in (h, l):
            if not side.parts:
                continue
            placed += 1
            N = side.coord_rows()
            want = Subspace.from_rows(N, g.dim).matrix()
            assert np.array_equal(side.subspace().matrix(), want), side.key
            want = Subspace.from_rows(a_map(side), sd.rank).matrix()
            assert np.array_equal(adapted_split_part(side).matrix(), want)
            ranks = [rank(N[:, off : off + alg.dim]) for alg, off, _b in g.factors]
            assert _proj_dims(g, side)[0] == ranks, side.key
    assert placed > 100


def test_placed_meets_and_sums_match_the_general_route(placed_triples):
    # both criteria, decided from pair facts, against whole-g references
    placed = diagonal_vs_placed = 0
    for g, h, l in placed_triples:
        assert check_sum(g, h, l) == _ref_check_sum(g, h, l)
        full = intersect(
            Subspace.from_rows(h.coord_rows(), g.dim),
            Subspace.from_rows(l.coord_rows(), g.dim),
        )
        closed = span_closure(g, full).dim == full.dim
        compact, sig = is_compactly_embedded(g, full)
        want = CompactCheck(compact and closed, full.dim, sig, closed)
        assert check_compact_intersection(g, h, l) == want, (h.key, l.key)
        placed += bool(h.parts and l.parts)
        diagonal_vs_placed += bool(
            h.iota is not None and l.parts or l.iota is not None and h.parts
        )
    assert len(placed_triples) == 81 and placed > 30
    # the 20 Case 4 and 5 records and 12 table2 instances
    assert diagonal_vs_placed == 32


def test_diagonal_records_build_every_fact_on_a_factor(built_fact_algebras):
    # the Case 4 and 5 records of enumerate --max-n 1 pair a twisted
    # diagonal with a placed side: no pair fact is built on the product
    records = [r for r in generate(GenerationSpec(max_n=1))
               if r.case in ("Case4", "Case5")]
    assert len(records) == 20
    for r in records:
        assert (r.h.iota is None) != (r.l.iota is None), r.key
        check_sum(r.g, r.h, r.l)
        check_compact_intersection(r.g, r.h, r.l)
    assert built_fact_algebras
    assert all(len(alg.factors) == 1 for alg in built_fact_algebras)
    # a pair of two diagonals is still decided in all of g
    g = product_algebra("so(2,4)", "so(2,4)")
    check_sum(g, diagonal(g), diagonal(g))
    assert built_fact_algebras[-1] is g


def test_identity_diagonal_reads_the_placed_pair_fact_of_g1(monkeypatch):
    # delta(so(4,4)) = {(x, x)} against S1 + S2 meets it in S1 cap S2 of g1:
    # the fact of the placed triple with parts S1 and S2 on factor 0
    monkeypatch.setattr(criteria, "_pair_cache", {})
    g, h, l = _triple("so(4,4)xso(4,4):so(3,4)@blockxso(3,4)@block"
                      "+sp(1,1)@quaternionicxsp(1,1)@quaternionic")
    g1 = g.factors[0][0]
    placed = criteria._facts(g, h, l)[0]
    dg, dh, dl = _triple("so(4,4)xso(4,4):delta(so(4,4))"
                         "+so(3,4)@blockxsp(1,1)@quaternionic")
    assert dg is g and dh.iota is identity_embedding(g1)
    first, second = criteria._facts(dg, dh, dl)
    assert first is placed and second.alg is g1
    assert (second.h.dim, second.l.dim) == (g1.dim, 0)
    assert check_compact_intersection(dg, dh, dl) == CompactCheck(
        True, *placed.meet[:2], True
    )


def test_twisted_diagonal_reads_iota_of_the_second_part(
    twisted_diagonal_triple, monkeypatch
):
    # D = {(iota x, x)} with iota: so(2,4) -> so(4,4) against S1 + S2 is
    # decided from (g1, S1, iota(S2)) and (g2, g2, 0)
    monkeypatch.setattr(criteria, "_pair_cache", {})
    g, h, l = twisted_diagonal_triple
    (g1, _c1, _b1), (g2, _c2, _b2) = g.factors
    first, second = criteria._facts(g, h, l)
    (_i, s1), (_j, s2) = l.parts
    iota_s2 = Subspace.from_rows(
        s2.subspace().matrix().dot(h.iota.coord_rows()), g1.dim
    )
    assert first.alg is g1 and second.alg is g2
    assert np.array_equal(first.h.matrix(), s1.subspace().matrix())
    assert np.array_equal(first.l.matrix(), iota_s2.matrix())
    assert first.meet == (3, (0, 3, 0), True)
    assert second.meet == (0, (0, 0, 0), True) and second.exact_rank == g2.dim
    assert check_sum(g, h, l).holds
    assert len(criteria._pair_cache) == 2
    # a sum that fails has rank dim g2 + dim(S1 + iota(0)) = 15 + 21
    l0 = factor_embedding(g, 0, _lk("so(4,4):so(3,4):spin"))
    want = SumCheck(False, 36, 43, "fraction-free elimination")
    assert check_sum(g, h, l0) == _ref_check_sum(g, h, l0) == want


def test_twist_off_a_positive_killing_multiple_is_an_internal_error(
    twisted_diagonal_triple, monkeypatch
):
    # the g1 meet's signature is the diagonal meet's only when iota* B1 is
    # a positive multiple of B2: a negated source form must be refused
    g, h, l = twisted_diagonal_triple
    src = h.iota.source
    monkeypatch.setattr(src, "_killing_ints", -src.killing_ints)
    monkeypatch.setattr(criteria, "_pair_cache", {})
    with pytest.raises(InternalError, match=(
        r"internal error in criteria\._twist_rows: so\(4,4\):so\(2,4\):block: "
        r"the pulled-back Killing form is not a positive multiple"
    )):
        check_sum(g, h, l)
    assert not criteria._pair_cache


def test_block_certificates_name_the_prime_of_the_whole_stack(monkeypatch):
    # block A = [[1, 1], [1, 1 + p1]] has determinant p1: singular mod p1,
    # not mod p2; block B is the identity, block C has rank 1
    p1, p2 = _CERT_PRIMES
    alg = SimpleNamespace(dim=2)  # the sum facts read only its dim
    A = _PairFacts(alg, Subspace(2, ((1, 1),)), Subspace(2, ((1, 1 + p1),)))
    B = _PairFacts(alg, Subspace(2, ((1, 0),)), Subspace(2, ((0, 1),)))
    C = _PairFacts(alg, Subspace(2, ((1, 1),)), Subspace(2, ((1, 1),)))

    def sum_check(*blocks):
        monkeypatch.setattr(criteria, "_facts", lambda g, h, l: list(blocks))
        return check_sum(SimpleNamespace(dim=4), None, None)

    M = np.zeros((4, 4), dtype=object)
    M[:2, :2] = [[1, 1], [1, 1 + p1]]
    M[2:, 2:] = [[1, 0], [0, 1]]
    assert not rank_at_least_modp(M, 4, p=p1) and rank_at_least_modp(M, 4, p=p2)
    want = SumCheck(True, 4, 4, f"full-rank certificate mod {p2}")
    assert sum_check(A, B) == sum_check(B, A) == want
    # a block singular mod both primes: the exact rank is the sum
    M[:2, :2] = [[1, 1], [1, 1]]
    want = SumCheck(False, rank(M), 4, "fraction-free elimination")
    assert sum_check(C, B) == sum_check(B, C) == want and want.rank == 3


def test_factor_meets_combine_into_the_whole_meet(monkeypatch):
    # a coordinate plane of so(2,1) is no subalgebra, a line is: their sum
    # is no subalgebra, of the summed dim and signature
    alg = build_real_form("so(2,1)")
    plane = Subspace(3, ((1, 0, 0), (0, 1, 0)))
    line = Subspace(3, ((1, 0, 0),))
    A, B = _PairFacts(alg, plane, plane), _PairFacts(alg, line, line)
    assert not A.meet[2] and B.meet[2]
    monkeypatch.setattr(criteria, "_facts", lambda g, h, l: [A, B])
    sig = tuple(x + y for x, y in zip(A.meet[1], B.meet[1]))
    got = check_compact_intersection(None, None, None)
    assert got == CompactCheck(False, 3, sig, False)
