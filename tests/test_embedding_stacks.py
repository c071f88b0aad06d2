"""Integer image stacks against the Fraction loops they replaced.

The reference functions below are the Fraction constructions as they stood
before embeddings held one integer stack: catalog images from the basis
builders (spin images from the Fraction frame of ``test_spin_frames``),
block lifts with ``embed_block``, ``apply`` as a sum of images
weighted by source coordinates, ``a_map`` as one coordinate solve per
source boost, and the split data of a product with each factor's boost
coordinates, Killing Gram and orthogonalization recomputed in place.  Every
new result must equal its reference exactly, and no ``Fraction`` may hold a
numpy integer.
"""
from fractions import Fraction

import numpy as np
import pytest

import ckforms.cartanproj as cartanproj
import ckforms.cli as cli
import ckforms.embeddings as embeddings
from ckforms import realforms
from ckforms.embeddings import (
    AdaptednessError,
    Embedding,
    a_map,
    catalog_lookup,
    product_algebra,
    product_embedding,
)
from ckforms.enumerate import GenerationSpec, generate
from ckforms.exactlin import (
    CoordinateSolver, InternalError, embed_block, fvec, fzeros, int_matmul,
    primitive_rows, scaled_ints, unscaled,
)
from ckforms.rootweyl import FactorSplit, split_data
from test_embeddings import CATALOG_KEYS
from test_spin_frames import ref_spin_frame

# ---------------------------------------------------------------------------
# the Fraction reference
# ---------------------------------------------------------------------------


def _gram(cs, K):
    """Gram matrix of the rational coordinate vectors cs under the integer
    form K, as Fractions."""
    lc, C = scaled_ints(np.array([list(c) for c in cs], dtype=object))
    return unscaled(int_matmul(int_matmul(C, K), C.T), lc * lc)


def _primitive_vector(vec):
    """``primitive_rows`` of one vector, as Fractions."""
    return fvec(primitive_rows([list(vec)])[0])


def _ref_catalog_images(emb):
    """Basis images of a catalog embedding, from the basis builders."""
    amb, sub = emb.target, emb.source
    variant = emb.key.split(":")[-1]
    if variant == "id" or variant in ("complexstruct", "g2in7") or (
        variant == "quaternionic" and amb.meta["family"] == "so"
    ):
        return [m.copy() for m in sub.basis]
    if variant == "quaternionic":
        return realforms.sp_real_basis_c2(sub.meta["p"], sub.meta["q"])
    if variant == "spin":
        return ref_spin_frame(sub.meta["p"], sub.meta["q"])[2]
    assert variant == "block"
    p, q = amb.meta["p"], amb.meta["q"]
    p1, q1 = sub.meta["p"], sub.meta["q"]
    idx = list(range(p1)) + [p + j for j in range(q1)]
    if amb.meta["family"] == "su":
        cidx = dict(enumerate(idx))
        return [
            realforms.complex_to_real(
                {(cidx[a], cidx[b]): v for (a, b), v in e.items()}, p + q
            )
            for e in realforms.su_entries(p1, q1)
        ]
    images = []
    for M in sub.basis:
        out = fzeros((amb.n, amb.n))
        for a in range(sub.n):
            for b in range(sub.n):
                if M[a, b] != 0:
                    out[idx[a], idx[b]] = M[a, b]
        images.append(out)
    return images


def _ref_apply(source, images, M):
    c = source.coords(M)
    out = fzeros(images[0].shape)
    for ci, img in zip(c, images):
        if ci != 0:
            out = out + ci * img
    return out


def _boost_matrices(sd):
    """The a-basis of split data as Fraction matrices."""
    den, A = sd.boosts
    return unscaled(A, den)


def _ref_a_map(emb, images):
    sd_src, sd_tgt = split_data(emb.source), split_data(emb.target)
    flat = np.array(
        [np.asarray(A, dtype=object).reshape(-1) for A in _boost_matrices(sd_tgt)],
        dtype=object,
    )
    solver = CoordinateSolver(flat)
    rows = []
    for A in _boost_matrices(sd_src):
        img = _ref_apply(emb.source, images, A)
        c = solver.try_coords(np.asarray(img, dtype=object).reshape(-1))
        assert c is not None
        rows.append(c)
    return np.array([list(r) for r in rows], dtype=object)


def _ref_split_data(g):
    """(boost matrices, factors, gram, boosts) of g, each factor's boost
    coordinates, Killing Gram and orthogonalization recomputed in place."""
    factors, a_mats, gram_diag = [], [], []
    for alg, _coff, boff in g.factors:
        fam_a = list(alg.meta["a_basis"])
        K = alg.killing_form
        cs = [alg.coords(A) for A in fam_a]
        G = _gram(cs, alg.killing_ints)
        r = len(cs)
        if any(G[i, j] != 0 for i in range(r) for j in range(i + 1, r)):
            for i in range(r):
                for j in range(i):
                    cij = cs[j] @ K @ cs[i]
                    if cij != 0:
                        cs[i] = cs[i] - (cij / (cs[j] @ K @ cs[j])) * cs[j]
                cs[i] = _primitive_vector(cs[i])
            fam_a = [alg.matrix(c) for c in cs]
            G = _gram(cs, alg.killing_ints)
        factors.append(FactorSplit(alg, alg.meta["root_type"], r, len(a_mats)))
        for A in fam_a:
            a_mats.append(embed_block(A, g.n, boff) if boff or alg.n != g.n else A)
        gram_diag.extend(G[i, i] for i in range(r))
    gram = fzeros((len(a_mats), len(a_mats)))
    np.fill_diagonal(gram, gram_diag)
    return a_mats, factors, gram, scaled_ints(np.array(a_mats, dtype=object))


@pytest.fixture
def recorded(monkeypatch):
    """Reference images of every factor, product and diagonal embedding
    built while the fixture is active, by id (the value keeps the embedding
    alive, so its id is not reused)."""
    ref = {}

    def images_of(emb):
        return ref[id(emb)][1] if id(emb) in ref else _ref_catalog_images(emb)

    def lift(g, i, M):
        return embed_block(M, g.n, g.factors[i][2])

    def factor(g, i, emb):
        out = factor_original(g, i, emb)
        ref[id(out)] = (out, [lift(g, i, m) for m in images_of(emb)])
        return out

    def product(g, e1, e2):
        out = product_original(g, e1, e2)
        ref[id(out)] = (out, [lift(g, 0, m) for m in images_of(e1)]
                        + [lift(g, 1, m) for m in images_of(e2)])
        return out

    def diagonal(g, iota=None):
        out = diagonal_original(g, iota)
        (alg1, _c, _b), (alg2, _c2, _b2) = g.factors
        twist = alg1.basis if iota is None else images_of(iota)
        ref[id(out)] = (out, [
            lift(g, 0, t) + lift(g, 1, b) for t, b in zip(twist, alg2.basis)
        ])
        return out

    factor_original = embeddings.factor_embedding
    product_original = embeddings.product_embedding
    diagonal_original = embeddings.diagonal
    monkeypatch.setattr(embeddings, "_lookup_cache", {})
    monkeypatch.setattr(embeddings, "diagonal", diagonal)
    monkeypatch.setattr(cartanproj, "_space_cache", {})
    for mod in (cli, cartanproj):
        monkeypatch.setattr(mod, "factor_embedding", factor)
    monkeypatch.setattr(cli, "product_embedding", product)
    return images_of


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------


def _assert_plain_fractions(M):
    assert all(
        type(x) is Fraction
        and type(x.numerator) is int
        and type(x.denominator) is int
        for x in np.asarray(M).flat
    )


def _assert_equal(got, want):
    assert np.asarray(got).shape == np.asarray(want).shape
    assert (np.asarray(got) == np.asarray(want)).all()


def _assert_matches_reference(emb, images):
    src = emb.source
    _assert_equal(emb.images, images)
    _assert_plain_fractions(np.array(emb.images))
    # coord_rows: the reference coordinates times one positive scale
    rows = emb.coord_rows()
    ref = np.array([emb.target.coords(m) for m in images], dtype=object)
    j = np.flatnonzero(ref[0])[0]
    scale = Fraction(rows[0, j]) / ref[0, j]
    assert scale > 0 and (rows == scale * ref).all()
    assert all(type(x) is int for x in rows.flat)
    # apply on the boosts, the compact basis and a sum of basis elements
    mats = list(_boost_matrices(split_data(src)))
    mats += [src.matrix(row) for row in src.k_subspace().basis]
    mats.append(sum(src.basis[1:], src.basis[0]))
    for M in mats:
        got = emb.apply(M)
        _assert_equal(got, _ref_apply(src, images, M))
        _assert_plain_fractions(got)
    got = a_map(emb)
    _assert_equal(got, _ref_a_map(emb, images))
    _assert_plain_fractions(got)


@pytest.mark.parametrize("key", CATALOG_KEYS)
def test_catalog_stacks_match_the_fraction_reference(key, recorded):
    emb = catalog_lookup(key)
    _assert_matches_reference(emb, recorded(emb))


@pytest.fixture(scope="module")
def product_keys():
    """The keys of the ``products`` benchmark workload: the candidates of
    ``enumerate --max-n 1`` whose ambient has no so(8,8) factor."""
    keys = [r.key for r in generate(GenerationSpec(max_n=1))]
    return [k for k in keys if "so(8,8)" not in k.split(":", 1)[0]]


def _assert_sum_basis(g):
    """A direct sum's basis is its factors' bases placed blockwise."""
    (a, _ca, _ba), (b, _cb, off) = g.factors
    want = [embed_block(m, g.n, 0) for m in a.basis]
    want += [embed_block(m, g.n, off) for m in b.basis]
    _assert_equal(g.basis, want)


def test_product_sides_match_the_fraction_reference(product_keys, recorded):
    assert len(product_keys) == 53
    for key in product_keys:
        g, h, l, _key = cli.parse_triple(key)
        for alg in (g, h.source, l.source):
            if len(alg.factors) == 2:
                _assert_sum_basis(alg)
        for side in (h, l):
            _assert_matches_reference(side, recorded(side))


def test_product_split_data_matches_the_reference(product_keys):
    algebras = {}
    for key in product_keys:
        g, h, l, _key = cli.parse_triple(key)
        for alg in (g, h.source, l.source):
            algebras[id(alg)] = alg
    for space in cartanproj.gap_space_keys():
        sp = cartanproj._get_space(space)
        for alg in [sp.algebra] + [e.source for e in sp.parts]:
            algebras[id(alg)] = alg
    products = [g for g in algebras.values() if len(g.factors) == 2]
    assert len(products) > 20
    for g in products:
        sd = split_data(g)
        a_mats, factors, gram, (den, A) = _ref_split_data(g)
        _assert_equal(_boost_matrices(sd), a_mats)
        assert sd.factors == factors
        _assert_equal(sd.gram, gram)
        assert all(type(x) is int for x in sd.gram.flat)
        assert sd.boosts[0] == den and np.array_equal(sd.boosts[1], A)


@pytest.mark.parametrize("space", cartanproj.gap_space_keys())
def test_gap_parts_match_the_fraction_reference(space, recorded):
    sp = cartanproj._get_space(space)
    for emb in sp.parts + [sp.target]:
        _assert_matches_reference(emb, recorded(emb))


# ---------------------------------------------------------------------------
# edge cases
# ---------------------------------------------------------------------------


def test_apply_outside_the_source_is_a_user_error():
    emb = catalog_lookup("so(4,4):so(1,4):block")
    with pytest.raises(ValueError) as exc:
        emb.apply(np.eye(5, dtype=object))
    assert not isinstance(exc.value, InternalError)


def test_product_embeddings_share_one_source_and_its_split_data():
    g = product_algebra("so(4,4)", "so(2,4)")
    e1 = catalog_lookup("so(4,4):so(3,4):spin")
    e2 = catalog_lookup("so(2,4):so(1,4):block")
    a, b = product_embedding(g, e1, e2), product_embedding(g, e1, e2)
    assert a is not b and a.source is b.source
    assert split_data(a.source) is split_data(b.source)
    assert a.source is product_algebra("so(3,4)", "so(1,4)")


def test_a_non_adapted_stack_is_rejected():
    # the block images conjugated to first order by a compact element, given
    # to the constructor as an integer stack
    emb = catalog_lookup("so(4,4):so(1,4):block")
    g = emb.target
    flat = g.stack.reshape(g.dim, -1).astype(object)
    K = (g.k_subspace().matrix()[0] @ flat).reshape(g.n, g.n)
    IM = emb.IM.astype(object)
    skew = Embedding("test:skewed-stack", emb.source, g,
                     (emb.den, IM + (K @ IM - IM @ K)))
    with pytest.raises(AdaptednessError):
        a_map(skew)
