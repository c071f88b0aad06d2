"""The embedding catalog: block inclusions, realification inclusions, spin
embeddings, the g2 inclusion into so(3,4), and product/diagonal assemblies.

Key grammar (catalog_lookup):
    "<ambient>:<sub>"             canonical variant for the pair
    "<ambient>:<sub>:<variant>"   explicit variant
    "<g1>x<g2>:delta-<alg>"       twisted diagonal with the canonical twist
    "<g1>x<g2>:delta(<alg>,<iota>)"  explicit twist (id | block | spin | ...)

Algebra names may be written so(4,4) or, for single digits, so44.  Block
inclusions keep the FIRST p' plus-coordinates and the first q' minus
coordinates; this makes every catalog embedding restrict to the standard
split parts (adaptedness is then a theorem checked exactly, not a choice).
"""
from __future__ import annotations

import difflib
import re
from fractions import Fraction

import numpy as np

from .exactlin import (
    CoordinateSolver,
    Subspace,
    embed_block,
    fzeros,
    primitive_vector,
    rank,
    rank_at_least_modp,
)
from .liealg import LieAlgebra, direct_sum
from . import realforms
from .realforms import build_real_form, canonical_name, parse_form_name
from .rootweyl import split_data

__all__ = [
    "Embedding",
    "CatalogError",
    "AdaptednessError",
    "catalog_lookup",
    "block_embedding",
    "complexstruct_embedding",
    "quaternionic_embedding",
    "spin_embedding",
    "g2in7_embedding",
    "identity_embedding",
    "compose",
    "product_algebra",
    "factor_embedding",
    "product_embedding",
    "diagonal",
    "a_map",
    "adapted_split_part",
    "validate_embedding",
    "canonical_variant",
    "canonical_iota",
    "normalize_algebra_key",
]

class CatalogError(KeyError):
    def __init__(self, msg, suggestions=()):
        self.suggestions = list(suggestions)
        if self.suggestions:
            msg = f"{msg}; close keys: {', '.join(self.suggestions)}"
        super().__init__(msg)
        self.message = msg


class AdaptednessError(RuntimeError):
    """The image of the source split part leaves the ambient split part."""


class Embedding:
    """An injective Lie algebra homomorphism given by basis images.

    modes: plain (single target), factor (into one ideal of a product),
    product (blockwise into both ideals), diagonal (twisted graph over the
    second ideal)."""

    def __init__(self, key, source, target, images, mode="plain", parts=None, iota=None):
        self.key = key
        self.source = source
        self.target = target
        self.images = images
        self.mode = mode
        self.parts = parts or []
        self.iota = iota
        self._coord_rows = None

    def coord_rows(self):
        """Target coordinates of the basis images (rows)."""
        if self._coord_rows is None:
            rows = [
                self.target._sparse_coords(np.asarray(m, dtype=object).reshape(-1))
                for m in self.images
            ]
            self._coord_rows = rows
        return self._coord_rows

    def subspace(self) -> Subspace:
        return Subspace.from_rows(
            [primitive_vector(r) for r in self.coord_rows()], self.target.dim
        )

    def apply(self, M):
        """Image of an arbitrary source matrix."""
        c = self.source.coords(M)
        out = fzeros((self.target.n, self.target.n))
        for ci, img in zip(c, self.images):
            if ci != 0:
                out = out + ci * img
        return out

    def __repr__(self):
        return f"Embedding({self.key}: {self.source.name} -> {self.target.name})"


# ---------------------------------------------------------------------------
# name handling
# ---------------------------------------------------------------------------

_COMPACT = re.compile(r"^(so|su|sp)(\d)(\d)$")


def normalize_algebra_key(tok: str) -> str:
    """Canonical single-algebra key; accepts so(4,4), so44, g2(2), g22."""
    t = tok.replace(" ", "").lower()
    if t in ("g2(2)", "g22", "g2"):
        return "g2(2)"
    m = _COMPACT.match(t)
    if m:
        t = f"{m.group(1)}({m.group(2)},{m.group(3)})"
    fam, p, q = parse_form_name(t)
    return canonical_name(fam, p, q)


def _split_top(s: str, sep: str):
    """Split on a separator at paren depth zero."""
    parts, depth, cur = [], 0, []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and s[i : i + len(sep)] == sep:
            parts.append("".join(cur))
            cur = []
            i += len(sep)
            continue
        cur.append(ch)
        i += 1
    parts.append("".join(cur))
    return parts


def parse_space_key(tok: str):
    """Parse an ambient key: single algebra or '<a>x<b>' product."""
    t = tok.replace(" ", "").lower()
    parts = _split_top(t, "x")
    if len(parts) == 1:
        return (normalize_algebra_key(parts[0]),)
    if len(parts) == 2:
        return (
            normalize_algebra_key(parts[0]),
            normalize_algebra_key(parts[1]),
        )
    raise CatalogError(f"cannot parse ambient key {tok!r}")


# ---------------------------------------------------------------------------
# elementary builders
# ---------------------------------------------------------------------------

def identity_embedding(alg: LieAlgebra) -> Embedding:
    return Embedding(
        f"{alg.name}:{alg.name}:id", alg, alg, [m.copy() for m in alg.basis]
    )


def _keep_first_indices(p1, q1, p, q):
    return [i for i in range(p1)] + [p + j for j in range(q1)]


def block_embedding(amb_key: str, sub_key: str) -> Embedding:
    """Keep-first block inclusion so(p',q') -> so(p,q) or su(p',q') -> su(p,q)."""
    amb = build_real_form(amb_key)
    sub = build_real_form(sub_key)
    fa, p, q = amb.meta["family"], amb.meta["p"], amb.meta["q"]
    fs, p1, q1 = sub.meta["family"], sub.meta["p"], sub.meta["q"]
    if fa != fs or fa not in ("so", "su") or p1 > p or q1 > q:
        raise CatalogError(
            f"no block inclusion {sub_key} -> {amb_key}"
        )
    if fa == "so":
        idx = _keep_first_indices(p1, q1, p, q)
        images = []
        for M in sub.basis:
            out = fzeros((amb.n, amb.n))
            for a in range(sub.n):
                for b in range(sub.n):
                    if M[a, b] != 0:
                        out[idx[a], idx[b]] = M[a, b]
            images.append(out)
    else:
        cidx = {i: i for i in range(p1)}
        cidx.update({p1 + j: p + j for j in range(q1)})
        images = realforms.su_real_basis(p1, q1, idxmap=cidx, total=p + q)
    key = f"{amb.name}:{sub.name}:block"
    return Embedding(key, sub, amb, images)


def complexstruct_embedding(amb_key: str, sub_key: str) -> Embedding:
    """Realified su(a,b) sitting inside so(2a,2b) (same matrices)."""
    amb = build_real_form(amb_key)
    sub = build_real_form(sub_key)
    if (
        amb.meta["family"] != "so"
        or sub.meta["family"] != "su"
        or amb.meta["p"] != 2 * sub.meta["p"]
        or amb.meta["q"] != 2 * sub.meta["q"]
    ):
        raise CatalogError(
            f"no complex-structure inclusion {sub_key} -> {amb_key}"
        )
    images = [m.copy() for m in sub.basis]
    return Embedding(f"{amb.name}:{sub.name}:complexstruct", sub, amb, images)


def quaternionic_embedding(amb_key: str, sub_key: str) -> Embedding:
    """sp(a,b) into su(2a,2b) (via H -> C^2) or into so(4a,4b) (via H -> R^4)."""
    amb = build_real_form(amb_key)
    sub = build_real_form(sub_key)
    if sub.meta["family"] != "sp":
        raise CatalogError(f"quaternionic variant needs an sp source, got {sub_key}")
    a, b = sub.meta["p"], sub.meta["q"]
    if amb.meta["family"] == "su" and (amb.meta["p"], amb.meta["q"]) == (2 * a, 2 * b):
        images = realforms.sp_real_basis_c2(a, b)
    elif amb.meta["family"] == "so" and (amb.meta["p"], amb.meta["q"]) == (4 * a, 4 * b):
        images = [m.copy() for m in sub.basis]
    else:
        raise CatalogError(f"no quaternionic inclusion {sub_key} -> {amb_key}")
    return Embedding(f"{amb.name}:{sub.name}:quaternionic", sub, amb, images)


def spin_embedding(amb_key: str, sub_key: str) -> Embedding:
    """Spin representation of so(p,q) normalized into standard so(r,r)."""
    amb = build_real_form(amb_key)
    sub = build_real_form(sub_key)
    if amb.meta["family"] != "so" or sub.meta["family"] != "so":
        raise CatalogError(f"no spin inclusion {sub_key} -> {amb_key}")
    frame, images = realforms.spin_embedding(sub.meta["p"], sub.meta["q"])
    r = frame.half_dim
    if (amb.meta["p"], amb.meta["q"]) != (r, r):
        raise CatalogError(
            f"spin image of {sub_key} lives in so({r},{r}), not {amb_key}"
        )
    return Embedding(f"{amb.name}:{sub.name}:spin", sub, amb, images)


def g2in7_embedding(amb_key: str, sub_key: str) -> Embedding:
    amb = build_real_form(amb_key)
    sub = build_real_form(sub_key)
    if sub.meta["family"] != "g2" or (amb.meta["family"], amb.meta["p"], amb.meta["q"]) != ("so", 3, 4):
        raise CatalogError(f"no 7-dimensional g2 inclusion {sub_key} -> {amb_key}")
    images = [m.copy() for m in sub.basis]
    return Embedding(f"{amb.name}:{sub.name}:g2in7", sub, amb, images)


def compose(outer: Embedding, inner: Embedding) -> Embedding:
    if inner.target is not outer.source:
        raise ValueError("embeddings do not compose")
    images = [outer.apply(m) for m in inner.images]
    return Embedding(
        f"{outer.key}*{inner.key}", inner.source, outer.target, images
    )


_VARIANT_BUILDERS = {
    "block": block_embedding,
    "complexstruct": complexstruct_embedding,
    "quaternionic": quaternionic_embedding,
    "spin": spin_embedding,
    "g2in7": g2in7_embedding,
}

VARIANTS = tuple(sorted(_VARIANT_BUILDERS)) + ("id",)


def canonical_variant(amb_key: str, sub_key: str) -> str:
    """The catalog's default variant for an (ambient, subalgebra) pair."""
    amb = normalize_algebra_key(amb_key)
    sub = normalize_algebra_key(sub_key)
    if amb == sub:
        return "id"
    fa = parse_form_name(amb)
    fs = parse_form_name(sub)
    if fs[0] == "g2":
        return "g2in7"
    if fs[0] == "sp":
        return "quaternionic"
    if fs[0] == "su" and fa[0] == "so":
        return "complexstruct"
    if fa[0] == fs[0] == "so":
        if (fa[1], fa[2]) == (4, 4) and (fs[1], fs[2]) == (3, 4):
            return "spin"
        if (fa[1], fa[2]) == (8, 8) and (fs[1], fs[2]) == (1, 8):
            return "spin"
    return "block"


def canonical_iota(g1_key: str, g2_key: str) -> str:
    """Default twist for a diagonal of g2 into g1 x g2."""
    g1 = normalize_algebra_key(g1_key)
    g2 = normalize_algebra_key(g2_key)
    if g1 == g2:
        return "id"
    return canonical_variant(g1, g2)


# ---------------------------------------------------------------------------
# products and diagonals
# ---------------------------------------------------------------------------

_product_cache = {}


def product_algebra(k1: str, k2: str) -> LieAlgebra:
    k1 = normalize_algebra_key(k1)
    k2 = normalize_algebra_key(k2)
    key = (k1, k2)
    if key not in _product_cache:
        _product_cache[key] = direct_sum(
            build_real_form(k1), build_real_form(k2)
        )
    return _product_cache[key]


def _block_lift(g: LieAlgebra, factor_index: int, M):
    return embed_block(M, g.n, g.factors[factor_index][2])


def factor_embedding(g: LieAlgebra, factor_index: int, emb: Embedding) -> Embedding:
    """Place an embedding into one ideal of a product (the other gets 0)."""
    if emb.target is not g.factors[factor_index][0]:
        raise ValueError("embedding target is not the chosen factor")
    images = [_block_lift(g, factor_index, m) for m in emb.images]
    key = f"[{factor_index}]{emb.key}"
    return Embedding(
        key, emb.source, g, images, mode="factor", parts=[(factor_index, emb)]
    )


def product_embedding(g: LieAlgebra, emb1: Embedding, emb2: Embedding) -> Embedding:
    """Blockwise product embedding source1 (+) source2 into g1 (+) g2."""
    (alg1, _c1, _b1), (alg2, _c2, _b2) = g.factors
    if emb1.target is not alg1 or emb2.target is not alg2:
        raise ValueError("part targets do not match the product factors")
    src = direct_sum(emb1.source, emb2.source)
    images = [_block_lift(g, 0, m) for m in emb1.images] + [
        _block_lift(g, 1, m) for m in emb2.images
    ]
    key = f"{emb1.key} (+) {emb2.key}"
    return Embedding(
        key, src, g, images, mode="product", parts=[(0, emb1), (1, emb2)]
    )


def diagonal(g: LieAlgebra, iota: Embedding | None = None) -> Embedding:
    """Twisted diagonal of the second ideal: c maps to (iota(c), c).

    iota embeds the second factor into the first; None means both factors
    agree and the twist is the identity."""
    (alg1, _c1, _b1), (alg2, _c2, _b2) = g.factors
    if iota is None:
        if alg1 is not alg2 and alg1.name != alg2.name:
            raise ValueError("identity diagonal needs equal factors")
        iota = identity_embedding(alg1)
    if iota.source.name != alg2.name or iota.target is not alg1:
        raise ValueError("twist must embed the second factor into the first")
    images = []
    for i, b in enumerate(alg2.basis):
        M = _block_lift(g, 0, iota.images[i]) + _block_lift(g, 1, b)
        images.append(M)
    key = f"delta({alg2.name},{iota.key.split(':')[-1]})"
    return Embedding(key, alg2, g, images, mode="diagonal", iota=iota)


# ---------------------------------------------------------------------------
# catalog lookup
# ---------------------------------------------------------------------------

_KNOWN_PAIRS = [
    ("su(2,2)", "sp(1,1)"), ("su(2,2)", "su(1,2)"),
    ("su(2,4)", "sp(1,2)"), ("su(2,4)", "su(1,4)"),
    ("so(2,4)", "su(1,2)"), ("so(2,4)", "so(1,4)"),
    ("so(4,4)", "so(3,4)"), ("so(4,4)", "so(1,4)"), ("so(4,4)", "sp(1,1)"),
    ("so(4,4)", "so(2,4)"),
    ("so(3,4)", "g2(2)"), ("so(3,4)", "so(1,4)"), ("so(3,4)", "so(2,4)"),
    ("so(8,8)", "so(7,8)"), ("so(8,8)", "so(1,8)"),
]


def _suggestions(bad: str):
    cands = [f"{a}:{b}" for a, b in _KNOWN_PAIRS]
    cands += [f"{a}:{b}:{canonical_variant(a, b)}" for a, b in _KNOWN_PAIRS]
    cands += ["so44xso24:delta-so(2,4)", "so34xso24:delta-so(2,4)",
              "so44xso34:delta(so(3,4),spin)"]
    return difflib.get_close_matches(bad, cands, n=3, cutoff=0.3)


_lookup_cache = {}


def catalog_lookup(key: str) -> Embedding:
    """Resolve a catalog key to a validated-on-construction embedding."""
    k = key.replace(" ", "").lower()
    if k in _lookup_cache:
        return _lookup_cache[k]
    parts = _split_top(k, ":")
    try:
        if len(parts) == 2 and parts[1].startswith("delta"):
            amb = parse_space_key(parts[0])
            if len(amb) != 2:
                raise CatalogError(f"diagonal needs a product ambient, got {parts[0]!r}")
            g = product_algebra(*amb)
            spec = parts[1]
            m = re.match(r"^delta-(.+)$", spec) or re.match(r"^delta\((.+)\)$", spec)
            if not m:
                raise CatalogError(f"cannot parse diagonal spec {spec!r}")
            inner = m.group(1)
            pieces = _split_top(inner, ",")
            alg = normalize_algebra_key(pieces[0])
            if alg != amb[1]:
                raise CatalogError(
                    f"diagonal source {alg} must equal the second factor {amb[1]}"
                )
            iota_key = pieces[1] if len(pieces) > 1 else canonical_iota(*amb)
            if iota_key == "id":
                iota = None
            else:
                iota = _pair_lookup(amb[0], amb[1], iota_key)
            emb = diagonal(g, iota)
        elif len(parts) in (2, 3):
            amb = normalize_algebra_key(parts[0])
            sub = normalize_algebra_key(parts[1])
            variant = parts[2] if len(parts) == 3 else canonical_variant(amb, sub)
            emb = _pair_lookup(amb, sub, variant)
        else:
            raise CatalogError(f"cannot parse catalog key {key!r}")
    except ValueError as e:
        raise CatalogError(f"{key!r}: {e}", _suggestions(k)) from e
    except CatalogError as e:
        if not e.suggestions:
            raise CatalogError(e.message, _suggestions(k)) from None
        raise
    _lookup_cache[k] = emb
    return emb


def _pair_lookup(amb: str, sub: str, variant: str) -> Embedding:
    if variant == "id":
        if amb != sub:
            raise CatalogError(f"identity variant needs equal algebras, got {amb}:{sub}")
        return identity_embedding(build_real_form(amb))
    builder = _VARIANT_BUILDERS.get(variant)
    if builder is None:
        raise CatalogError(
            f"unknown variant {variant!r}; valid variants: {', '.join(VARIANTS)}"
        )
    return builder(amb, sub)


# ---------------------------------------------------------------------------
# adaptedness and validation
# ---------------------------------------------------------------------------

def a_map(emb: Embedding) -> np.ndarray:
    """Exact matrix (source rank x ambient rank) sending boost coordinates of
    the source split part to ambient boost coordinates."""
    sd_src = split_data(emb.source)
    sd_tgt = split_data(emb.target)
    flat = np.array(
        [np.asarray(A, dtype=object).reshape(-1) for A in sd_tgt.a_matrices],
        dtype=object,
    )
    solver = CoordinateSolver(flat)
    rows = []
    for A in sd_src.a_matrices:
        img = emb.apply(A)
        c = solver.try_coords(np.asarray(img, dtype=object).reshape(-1))
        if c is None:
            raise AdaptednessError(
                f"{emb.key}: image of a split generator leaves the ambient "
                "split part"
            )
        rows.append(c)
    return np.array([list(r) for r in rows], dtype=object)


def adapted_split_part(emb: Embedding) -> Subspace:
    """Coordinates (in the ambient boost basis) of the image of the source
    split part; raises AdaptednessError if it leaves the ambient split part."""
    sd_src = split_data(emb.source)
    sd_tgt = split_data(emb.target)
    rows = a_map(emb)
    sub = Subspace.from_rows([primitive_vector(r) for r in rows], sd_tgt.rank)
    if sub.dim != len(sd_src.a_matrices):
        raise AdaptednessError(
            f"{emb.key}: split part image has dimension {sub.dim}, expected "
            f"{len(sd_src.a_matrices)}"
        )
    return sub


def _int64_images(images):
    den = 1
    for m in images:
        for x in m.flat:
            d = Fraction(x).denominator
            if den % d:
                den = den * d // np.gcd(den, d)
    arr = np.array(
        [[[int(x * den) for x in row] for row in m] for m in images],
        dtype=np.int64,
    )
    return arr, den


def validate_embedding(emb: Embedding) -> dict:
    """Exact checks: injectivity, bracket intertwining, Cartan compatibility.

    Returns {"injective": bool, "homomorphism": bool, "theta_compatible": bool}.
    """
    src, tgt = emb.source, emb.target
    rows = np.array([list(r) for r in emb.coord_rows()], dtype=object)
    inj = rank_at_least_modp(rows, src.dim) or rank(rows) == src.dim

    tensor = src.tensor
    d = src.dim
    hom = True
    try:
        IM, den = _int64_images(emb.images)
        den2 = den * den
        # [img_i, img_j] computed batched; compare with den^2 * image of the
        # bracket, staying in int64 for the (frequent) zero brackets
        for i in range(d):
            br = IM[i] @ IM - IM @ IM[i]
            for j in range(d):
                if i == j:
                    continue
                ent = tensor.get((i, j))
                if not ent:
                    if br[j].any():
                        hom = False
                        break
                    continue
                expect = np.zeros(IM[i].shape, dtype=object)
                for k, v in ent:
                    expect = expect + v * emb.images[k]
                if not ((br[j] - den2 * expect) == 0).all():
                    hom = False
                    break
            if not hom:
                break
    except (OverflowError, ValueError):
        for i in range(d):
            for j in range(i + 1, d):
                br = emb.images[i] @ emb.images[j] - emb.images[j] @ emb.images[i]
                expect = fzeros(br.shape)
                for k, v in tensor.get((i, j), ()):
                    expect = expect + v * emb.images[k]
                if not ((br - expect) == 0).all():
                    hom = False
                    break
            if not hom:
                break

    theta_ok = True
    if src.theta_conjugator is not None and tgt.theta_conjugator is not None:
        th_src = src.theta
        for i in range(d):
            lhs = tgt.theta_apply_matrix(emb.images[i])
            rhs = fzeros(lhs.shape)
            for k in range(d):
                if th_src[k, i] != 0:
                    rhs = rhs + th_src[k, i] * emb.images[k]
            if not ((lhs - rhs) == 0).all():
                theta_ok = False
                break
    return {
        "injective": bool(inj),
        "homomorphism": bool(hom),
        "theta_compatible": bool(theta_ok),
    }
