"""The embedding catalog: constructions, validation, adapted split parts."""
import numpy as np
import pytest

from ckforms.embeddings import (
    AdaptednessError,
    CatalogError,
    Embedding,
    a_map,
    adapted_split_part,
    canonical_iota,
    canonical_variant,
    catalog_lookup,
    compose,
    diagonal,
    factor_embedding,
    identity_embedding,
    normalize_algebra_key,
    product_algebra,
    product_embedding,
    validate_embedding,
)
from ckforms.realforms import build_real_form

CATALOG_KEYS = [
    "su(2,2):sp(1,1):quaternionic",
    "su(2,2):su(1,2):block",
    "so(2,4):su(1,2):complexstruct",
    "so(2,4):so(1,4):block",
    "so(4,4):so(3,4):spin",
    "so(4,4):so(3,4):block",
    "so(4,4):so(2,4):block",
    "so(4,4):so(1,4):block",
    "so(4,4):so(1,4):spin",
    "so(4,4):sp(1,1):quaternionic",
    "so(3,4):g2(2):g2in7",
    "so(3,4):so(1,4):block",
    "so(3,4):so(2,4):block",
]


def test_normalize_algebra_key_accepts_compact_spellings():
    assert normalize_algebra_key("so44") == "so(4,4)"
    assert normalize_algebra_key("SO(4, 4)") == "so(4,4)"
    assert normalize_algebra_key("g22") == "g2(2)"
    with pytest.raises(ValueError):
        normalize_algebra_key("so(" )


@pytest.mark.parametrize("key", CATALOG_KEYS)
def test_catalog_entries_are_injective_homomorphisms(key):
    emb = catalog_lookup(key)
    report = validate_embedding(emb)
    assert all(report.values()), (key, report)


def test_catalog_lookup_caches_and_normalizes():
    a = catalog_lookup("so(4,4):so(3,4):spin")
    assert catalog_lookup("so(4,4):so(3,4):spin") is a
    b = catalog_lookup("SO44 : so(3,4) : spin")
    assert b.key == a.key
    assert all(np.array_equal(x, y) for x, y in zip(a.images, b.images))


def test_catalog_default_variant_resolution():
    assert canonical_variant("so(4,4)", "so(3,4)") == "spin"
    assert canonical_variant("so(8,8)", "so(1,8)") == "spin"
    assert canonical_variant("so(8,8)", "so(7,8)") == "block"
    assert canonical_variant("so(3,4)", "g2(2)") == "g2in7"
    assert canonical_variant("su(2,2)", "sp(1,1)") == "quaternionic"
    assert canonical_variant("so(2,4)", "su(1,2)") == "complexstruct"
    assert canonical_iota("so(4,4)", "so(4,4)") == "id"


def test_unknown_keys_raise_with_suggestions():
    # no 8-dimensional spin module exists over the (2,2) form
    with pytest.raises(CatalogError):
        catalog_lookup("so(4,4):so(2,2):spin")
    with pytest.raises(CatalogError) as exc:
        catalog_lookup("so(4,4):so(3,9)")
    assert "close keys" in str(exc.value)


def test_block_embedding_keeps_leading_coordinates():
    emb = catalog_lookup("so(4,4):so(1,4):block")
    src = emb.source
    # the single boost generator maps to an ambient basis matrix
    X = emb.apply(src.matrix(src.p_subspace().basis[0]))
    assert emb.target.contains_matrix(X)
    assert emb.source.dim == 10 and len(emb.images) == 10


def test_identity_and_compose_round_trip(so44):
    ident = identity_embedding(so44)
    spin = catalog_lookup("so(4,4):so(3,4):spin")
    comp = compose(ident, spin)
    for a, b in zip(comp.images, spin.images):
        assert np.array_equal(a, b)


def test_composition_requires_matching_realizations(so44):
    spin = catalog_lookup("so(4,4):so(3,4):spin")
    blk = catalog_lookup("so(3,4):so(1,4):block")
    comp = compose(spin, blk)
    assert comp.source.name == "so(1,4)"
    assert comp.target.name == "so(4,4)"
    rep = validate_embedding(comp)
    assert all(rep.values())


def test_bracket_check_products_are_bounded_explicitly():
    from fractions import Fraction

    from ckforms.exactlin import fmat
    from ckforms.liealg import LieAlgebra
    from ckforms.realforms import so_basis

    # so(1,2) conjugated by diag(1, 2**12, 2**24): the int64 images (scaled
    # by 2**24) stay below 2**48, their brackets reach 2**72 and would wrap
    src = LieAlgebra("so(1,2)", so_basis(1, 2))
    D = [Fraction(2 ** (12 * i)) for i in range(3)]
    imgs = [
        fmat([[b[i, j] * D[i] / D[j] for j in range(3)] for i in range(3)])
        for b in src.basis
    ]
    tgt = LieAlgebra("conj", [2**24 * m for m in imgs])
    report = validate_embedding(Embedding("conj:so(1,2)", src, tgt, imgs))
    assert report == {
        "injective": True, "homomorphism": True, "theta_compatible": True
    }


def test_product_algebra_and_factor_embeddings(so44xso24):
    g = so44xso24
    assert g.dim == 28 + 15
    left = factor_embedding(g, 0, catalog_lookup("so(4,4):so(3,4):spin"))
    right = factor_embedding(g, 1, catalog_lookup("so(2,4):so(1,4):block"))
    assert len(left.images) == 21 and len(right.images) == 10
    both = product_embedding(
        g,
        catalog_lookup("so(4,4):so(3,4):spin"),
        catalog_lookup("so(2,4):so(1,4):block"),
    )
    assert len(both.images) == 31
    for X in both.images:
        assert g.contains_matrix(X)


def test_diagonal_embedding_with_and_without_twist(so44xso24):
    g34 = product_algebra("so(3,4)", "so(3,4)")
    d = diagonal(g34, None)
    assert len(d.images) == 21
    iota = catalog_lookup("so(4,4):so(2,4):block")
    dt = diagonal(so44xso24, iota)
    assert len(dt.images) == 15
    for X in dt.images:
        assert so44xso24.contains_matrix(X)


def test_diagonal_twist_must_match_the_factors(so44xso24):
    wrong = catalog_lookup("so(3,4):so(1,4):block")
    with pytest.raises((CatalogError, ValueError)):
        diagonal(so44xso24, wrong)


def test_a_map_rows_are_boost_coordinates():
    emb = catalog_lookup("so(4,4):so(1,4):block")
    A = a_map(emb)
    assert A.shape == (1, 4)
    nz = [x for x in A[0] if x != 0]
    assert len(nz) == 1


def test_adapted_split_part_dimensions():
    cases = {
        "so(4,4):so(3,4):spin": 3,
        "so(4,4):so(1,4):block": 1,
        "so(4,4):sp(1,1):quaternionic": 1,
        "so(3,4):g2(2):g2in7": 2,
        "so(2,4):su(1,2):complexstruct": 1,
        "so(8,8):so(7,8):block": 7,
        "so(8,8):so(1,8):spin": 1,
    }
    for key, dim in cases.items():
        assert adapted_split_part(catalog_lookup(key)).dim == dim, key


def test_non_adapted_embeddings_are_rejected():
    # conjugating by a generic rotation destroys adaptedness
    emb = catalog_lookup("so(4,4):so(1,4):block")
    g = emb.target
    K = g.matrix(g.k_subspace().basis[0])
    images = [X + (K @ X - X @ K) for X in emb.images]
    skew = Embedding("test:skewed", emb.source, g, images)
    with pytest.raises(AdaptednessError):
        a_map(skew)


@pytest.mark.parametrize("scale", [2, 2**32])
def test_bracket_check_rejects_scaled_images(scale):
    # a scaled embedding is linear and injective but not a homomorphism:
    # [s x, s y] = s^2 [x, y] != s [x, y].  Images scaled by 2 stay under
    # the int64 bound of the bracket check, by 2**32 they pass it
    emb = catalog_lookup("so(4,4):so(1,4):block")
    scaled = Embedding(
        f"test:scaled{scale}", emb.source, emb.target,
        [scale * m for m in emb.images],
    )
    assert validate_embedding(scaled) == {
        "injective": True, "homomorphism": False, "theta_compatible": True
    }


def test_spin_keys_beyond_the_clifford_bound_are_refused_at_once(monkeypatch):
    import ckforms.realforms as realforms

    def no_search(p, q):
        raise AssertionError(f"spin frame searched for ({p},{q})")

    monkeypatch.setattr(realforms, "spin_frame", no_search)
    # so(3,5) needs a module of dimension 16 > 8; so(3,4) is not split
    for key in ("so(4,4):so(3,5):spin", "so(3,4):so(1,2):spin"):
        with pytest.raises(CatalogError):
            catalog_lookup(key)


def test_spin_refusal_reads_the_clifford_table(monkeypatch):
    import ckforms.realforms as realforms

    def no_search(p, q):
        raise AssertionError(f"spin frame searched for ({p},{q})")

    monkeypatch.setattr(realforms, "spin_frame", no_search)
    # so(2,5) and so(5,2) both need k = 4: a 16-dimensional module does not
    # fit so(4,4), although 2**ceil((p+q-1)/2) = 8 would
    with pytest.raises(CatalogError, match="dimension at least 16"):
        catalog_lookup("so(4,4):so(2,5):spin")


def test_spin_key_with_a_module_of_the_ambient_size_resolves_quickly():
    import subprocess
    import sys

    # so(3,5) has no 16-dimensional module but so(5,3) does: the search for
    # the first is skipped, so the lookup ends instead of searching on
    code = (
        "from ckforms.embeddings import catalog_lookup, validate_embedding\n"
        "e = catalog_lookup('so(8,8):so(3,5):spin')\n"
        "print(e.key, sorted(validate_embedding(e).items()))\n"
    )
    r = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout == (
        "so(8,8):so(3,5):spin [('homomorphism', True), ('injective', True), "
        "('theta_compatible', True)]\n"
    )
