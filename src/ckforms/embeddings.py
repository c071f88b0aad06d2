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
from math import lcm

import numpy as np

from .exactlin import (
    InternalError,
    Subspace,
    absmax,
    fit_int64,
    int_matmul,
    int_scale,
    rank,
    rank_at_least_modp,
    scaled_ints,
    unscaled,
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
    "placed_subspace",
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


class AdaptednessError(InternalError):
    """The image of the source split part leaves the ambient split part:
    every catalog embedding is adapted, so this is a defect of the program."""


class Embedding:
    """An injective Lie algebra homomorphism given by its basis images: one
    integer stack ``IM`` (k, n, n), int64 when it fits, over one positive
    ``den`` (image i is IM[i] / den), passed as rational matrices or as the
    pair (den, IM).  ``images`` is the rational view, built on first read.
    ``iota`` is the twist of a diagonal (``diagonal``), None otherwise.

    ``parts`` is ((i, emb), ...), in source-basis order, for a side placed
    into product factors i by ``factor_embedding`` or ``product_embedding``,
    whose exact data is read off its parts; () otherwise.  Memoized:
    ``subspace()``, ``split_part`` (``adapted_split_part``) and ``proj``
    (the factor projection ranks of ``criteria``).  A ``source`` of None is
    the direct sum of the parts' sources, built on first read."""

    def __init__(self, key, source, target, images, iota=None, parts=()):
        self.key, self._source, self.target, self.iota = key, source, target, iota
        if not isinstance(images, tuple):
            images = scaled_ints(np.array(images, dtype=object))
        self.den, self.IM = images[0], fit_int64(images[1])
        self.parts = parts
        self._images = self._coord_rows = self._subspace = None
        self.split_part = self.proj = None

    @property
    def source(self) -> LieAlgebra:
        if self._source is None:
            self._source = _direct_sum(*(e.source for _i, e in self.parts))
        return self._source

    @property
    def images(self) -> list:
        """The basis images as Fraction matrices."""
        if self._images is None:
            self._images = list(unscaled(self.IM, self.den))
        return self._images

    def coord_rows(self) -> np.ndarray:
        """Target coordinates of the basis images, all scaled by one positive
        int to integer rows (object array of Python ints): one batched read
        of the stack."""
        if self._coord_rows is None:
            self._coord_rows = self.target.read_coords(self.IM)[0].astype(object)
        return self._coord_rows

    def subspace(self) -> Subspace:
        """The image: every coordinate row made primitive, in order (an
        injective embedding keeps them all).  A placed side pads its parts'
        rows at their factors' coordinate offsets."""
        if self._subspace is None and self.parts:
            self._subspace = placed_subspace(self.target.dim, [
                (self.target.factors[i][1], e.subspace()) for i, e in self.parts
            ])
        elif self._subspace is None:
            self._subspace = Subspace.from_rows(self.coord_rows(), self.target.dim)
        return self._subspace

    def apply_ints(self, X):
        """(Y, s) with Y / s the images of a stack X (m, n, n) of integer
        source matrices: one batched coordinate read, one product with the
        stack.  ValueError if a matrix lies outside the source."""
        got = self.source.try_read_coords(X)
        if got is None:
            raise ValueError(f"{self.key}: matrix outside {self.source.name}")
        N, L = got
        Y = int_matmul(N, self.IM.reshape(len(self.IM), -1))
        return Y.reshape(len(X), self.target.n, self.target.n), L * self.den

    def apply(self, M):
        """Image of one rational source matrix; ValueError if it lies
        outside the source."""
        lm, X = scaled_ints(M)
        Y, s = self.apply_ints(X[None])
        return unscaled(Y[0], s * lm)

    def __repr__(self):
        return f"Embedding({self.key}: {self.source.name} -> {self.target.name})"


def placed_subspace(width: int, blocks) -> Subspace:
    """The direct sum of subspaces placed at column offsets: each (offset,
    sub) puts sub's basis rows, zero-padded to ``width``, after the rows of
    the blocks before it."""
    M = np.zeros((sum(sub.dim for _o, sub in blocks), width), dtype=object)
    at = 0
    for off, sub in blocks:
        M[at : at + sub.dim, off : off + sub.ambient_dim] = sub.matrix()
        at += sub.dim
    return Subspace(width, tuple(M))


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


# a product separator is an 'x' immediately followed by an algebra atom,
# a diagonal, or the zero part
_ATOM_AHEAD = re.compile(r"(?:so|su|sp|g2|delta)[\d(]|0(?:x|$)")


def _split_at(s: str, cut) -> list:
    """Split s at paren depth zero on each index i where cut(i, start) holds
    (start: the first index of the current part); raises ValueError on
    unbalanced parentheses."""
    parts, depth, start = [], 0, 0
    for i, c in enumerate(s):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {s!r}")
        elif depth == 0 and cut(i, start):
            parts.append(s[start:i])
            start = i + 1
    if depth:
        raise ValueError(f"unbalanced parentheses in {s!r}")
    parts.append(s[start:])
    return parts


def _split_top(s: str, sep: str) -> list:
    """Split on a one-character separator at paren depth zero."""
    return _split_at(s, lambda i, _start: s[i] == sep)


def split_product(s: str) -> list:
    """Split a product at paren depth zero on each 'x' that ends a nonempty
    part and is followed by an algebra atom, so variant names containing x
    (complexstruct) need no escaping; raises ValueError on unbalanced
    parentheses."""
    return _split_at(
        s,
        lambda i, start: s[i] == "x" and i > start and _ATOM_AHEAD.match(s, i + 1),
    )


def parse_space_key(tok: str):
    """Parse an ambient key: single algebra or '<a>x<b>' product."""
    parts = split_product(tok.replace(" ", "").lower())
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
    """The identity of alg: one per algebra, kept in ``alg.meta``."""
    if "_identity" not in alg.meta:
        alg.meta["_identity"] = Embedding(
            f"{alg.name}:{alg.name}:id", alg, alg, (1, alg.stack)
        )
    return alg.meta["_identity"]


def block_embedding(amb_key: str, sub_key: str) -> Embedding:
    """Keep-first block inclusion so(p',q') -> so(p,q) or su(p',q') -> su(p,q)
    (complex coordinate j of su is real coordinates 2j, 2j+1)."""
    amb = build_real_form(amb_key)
    sub = build_real_form(sub_key)
    fa, p, q = amb.meta["family"], amb.meta["p"], amb.meta["q"]
    fs, p1, q1 = sub.meta["family"], sub.meta["p"], sub.meta["q"]
    if fa != fs or fa not in ("so", "su") or p1 > p or q1 > q:
        raise CatalogError(
            f"no block inclusion {sub_key} -> {amb_key}"
        )
    idx = [*range(p1), *range(p, p + q1)]
    if fa == "su":
        idx = [2 * i + u for i in idx for u in (0, 1)]
    idx = np.array(idx)
    IM = np.zeros((sub.dim, amb.n, amb.n), dtype=sub.stack.dtype)
    IM[:, idx[:, None], idx] = sub.stack
    return Embedding(f"{amb.name}:{sub.name}:block", sub, amb, (1, IM))


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
    return Embedding(
        f"{amb.name}:{sub.name}:complexstruct", sub, amb, (1, sub.stack)
    )


def quaternionic_embedding(amb_key: str, sub_key: str) -> Embedding:
    """sp(a,b) into su(2a,2b) (via H -> C^2) or into so(4a,4b) (via H -> R^4)."""
    amb = build_real_form(amb_key)
    sub = build_real_form(sub_key)
    if sub.meta["family"] != "sp":
        raise CatalogError(f"quaternionic variant needs an sp source, got {sub_key}")
    a, b = sub.meta["p"], sub.meta["q"]
    if amb.meta["family"] == "su" and (amb.meta["p"], amb.meta["q"]) == (2 * a, 2 * b):
        images = (1, np.array(realforms.sp_real_basis_c2(a, b)))
    elif amb.meta["family"] == "so" and (amb.meta["p"], amb.meta["q"]) == (4 * a, 4 * b):
        images = (1, sub.stack)
    else:
        raise CatalogError(f"no quaternionic inclusion {sub_key} -> {amb_key}")
    return Embedding(f"{amb.name}:{sub.name}:quaternionic", sub, amb, images)


def spin_embedding(amb_key: str, sub_key: str) -> Embedding:
    """Spin representation of so(p,q) normalized into standard so(r,r).

    Refused before any gamma search unless the ambient is some so(r,r) with
    room for the smallest real Clifford module of the form or of its
    negative (``realforms.clifford_module_k``): 2**k must not exceed 2r."""
    amb = build_real_form(amb_key)
    sub = build_real_form(sub_key)
    if amb.meta["family"] != "so" or sub.meta["family"] != "so":
        raise CatalogError(f"no spin inclusion {sub_key} -> {amb_key}")
    r, p, q = amb.meta["p"], sub.meta["p"], sub.meta["q"]
    if amb.meta["q"] != r:
        raise CatalogError(f"spin images live in a split so(r,r), not {amb_key}")
    k = min(realforms.clifford_module_k(p, q), realforms.clifford_module_k(q, p))
    if 2**k > 2 * r:
        raise CatalogError(
            f"the Clifford modules of {sub.name} have dimension at least "
            f"{2**k}, more than the {2 * r} of {amb.name}"
        )
    frame, images = realforms.spin_embedding(p, q)
    if frame.half_dim != r:
        raise CatalogError(
            f"spin image of {sub_key} lives in so({frame.half_dim},"
            f"{frame.half_dim}), not {amb_key}"
        )
    return Embedding(f"{amb.name}:{sub.name}:spin", sub, amb, images)


def g2in7_embedding(amb_key: str, sub_key: str) -> Embedding:
    amb = build_real_form(amb_key)
    sub = build_real_form(sub_key)
    if sub.meta["family"] != "g2" or (amb.meta["family"], amb.meta["p"], amb.meta["q"]) != ("so", 3, 4):
        raise CatalogError(f"no 7-dimensional g2 inclusion {sub_key} -> {amb_key}")
    return Embedding(f"{amb.name}:{sub.name}:g2in7", sub, amb, (1, sub.stack))


def compose(outer: Embedding, inner: Embedding) -> Embedding:
    if inner.target is not outer.source:
        raise ValueError("embeddings do not compose")
    Y, s = outer.apply_ints(inner.IM)
    return Embedding(
        f"{outer.key}*{inner.key}", inner.source, outer.target,
        (s * inner.den, Y),
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

# direct sums by the pair of factor algebras, shared by ambients and sources
_product_cache = {}


def _direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    if (a, b) not in _product_cache:
        _product_cache[a, b] = direct_sum(a, b)
    return _product_cache[a, b]


def product_algebra(k1: str, k2: str) -> LieAlgebra:
    return _direct_sum(
        build_real_form(normalize_algebra_key(k1)),
        build_real_form(normalize_algebra_key(k2)),
    )


def _placed(g: LieAlgebra, k: int, parts) -> tuple:
    """(den, IM) of k images in the product g: each part (rows, factor
    index, den, stack) puts stack / den into that factor's block."""
    den = lcm(*(d for _r, _i, d, _S in parts))
    stacks = [int_scale(S, den // d) for _r, _i, d, S in parts]
    IM = np.zeros((k, g.n, g.n), dtype=np.result_type(*stacks))
    for (rows, i, _d, _S), S in zip(parts, stacks):
        off, m = g.factors[i][2], S.shape[-1]
        IM[rows, off : off + m, off : off + m] = S
    return den, IM


def factor_embedding(g: LieAlgebra, factor_index: int, emb: Embedding) -> Embedding:
    """Place an embedding into one ideal of a product (the other gets 0)."""
    if emb.target is not g.factors[factor_index][0]:
        raise ValueError("embedding target is not the chosen factor")
    images = _placed(g, len(emb.IM), [(slice(None), factor_index, emb.den, emb.IM)])
    key = f"[{factor_index}]{emb.key}"
    return Embedding(key, emb.source, g, images, parts=((factor_index, emb),))


def product_embedding(g: LieAlgebra, emb1: Embedding, emb2: Embedding) -> Embedding:
    """Blockwise product embedding source1 (+) source2 into g1 (+) g2; the
    source direct sum is built on first read."""
    (alg1, _c1, _b1), (alg2, _c2, _b2) = g.factors
    if emb1.target is not alg1 or emb2.target is not alg2:
        raise ValueError("part targets do not match the product factors")
    k1 = len(emb1.IM)
    images = _placed(g, k1 + len(emb2.IM), [
        (slice(None, k1), 0, emb1.den, emb1.IM),
        (slice(k1, None), 1, emb2.den, emb2.IM),
    ])
    key = f"{emb1.key} (+) {emb2.key}"
    return Embedding(key, None, g, images, parts=((0, emb1), (1, emb2)))


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
    parts = [(slice(None), 0, iota.den, iota.IM), (slice(None), 1, 1, alg2.stack)]
    images = _placed(g, alg2.dim, parts)
    key = f"delta({alg2.name},{iota.key.split(':')[-1]})"
    return Embedding(key, alg2, g, images, iota=iota)


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
    """Resolve a catalog key (normalized: spaces dropped, lower case) to its
    embedding and cache the result by that key.  Nothing is validated here;
    ``test_catalog_entries_are_injective_homomorphisms`` checks that every
    catalog entry is an injective homomorphism."""
    k = key.replace(" ", "").lower()
    if k in _lookup_cache:
        return _lookup_cache[k]
    try:
        parts = _split_top(k, ":")
        if len(parts) == 2 and parts[1].startswith("delta"):
            amb = parse_space_key(parts[0])
            if len(amb) != 2:
                raise CatalogError(f"diagonal needs a product ambient, got {parts[0]!r}")
            spec = parts[1]
            m = re.fullmatch(r"delta(?:-(.+)|\((.+)\))", spec)
            pieces = _split_top(m.group(1) or m.group(2), ",") if m else []
            if not 1 <= len(pieces) <= 2:
                raise CatalogError(f"cannot parse diagonal spec {spec!r}")
            alg = normalize_algebra_key(pieces[0])
            if alg != amb[1]:
                raise CatalogError(
                    f"diagonal source {alg} must equal the second factor {amb[1]}"
                )
            iota_key = pieces[1] if len(pieces) > 1 else canonical_iota(*amb)
            iota = None if iota_key == "id" else catalog_lookup(
                f"{amb[0]}:{amb[1]}:{iota_key}"
            )
            emb = diagonal(product_algebra(*amb), iota)
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
    the source split part to ambient boost coordinates: one batched
    ``apply_ints`` of the source boosts, one checked solve."""
    la, A = split_data(emb.source).boosts
    sd = split_data(emb.target)
    Y, s = emb.apply_ints(A)
    got = sd.solver.solve_checked(Y.reshape(len(Y), -1))
    if got is None:
        raise AdaptednessError(
            "embeddings.a_map",
            f"{emb.key}: image of a split generator leaves the ambient "
            "split part",
        )
    N, L = got
    # N / L are coordinates in the target stack, boosts[0] times the boosts
    return unscaled(N.astype(object) * sd.boosts[0], L * s * la)


def adapted_split_part(emb: Embedding) -> Subspace:
    """Coordinates (in the ambient boost basis) of the image of the source
    split part; raises AdaptednessError if it leaves the ambient split part.
    Memoized on the embedding; a placed side pads its parts' split parts at
    their factors' offsets in the product's boost coordinates."""
    if emb.split_part is None and emb.parts:
        sd = split_data(emb.target)
        emb.split_part = placed_subspace(sd.rank, [
            (sd.factors[i].offset, adapted_split_part(e)) for i, e in emb.parts
        ])
    elif emb.split_part is None:
        sub = Subspace.from_rows(a_map(emb), split_data(emb.target).rank)
        if sub.dim != split_data(emb.source).rank:
            raise AdaptednessError(
                "embeddings.adapted_split_part",
                f"{emb.key}: split part image has dimension {sub.dim}, "
                f"expected {split_data(emb.source).rank}",
            )
        emb.split_part = sub
    return emb.split_part


def validate_embedding(emb: Embedding) -> dict:
    """Exact checks: injectivity, bracket intertwining, Cartan compatibility.

    Returns {"injective": bool, "homomorphism": bool, "theta_compatible": bool}.
    The brackets run on the images scaled to integers by one denominator
    ``den``, against the images of the structure constants c, in int64 under
    the bound max(2 * max|entry|**2 * n, den * max|c| * max|entry| * dim)
    < 2**63 (a bracket subtracts two products of n terms) and on Python ints
    past it.
    """
    src, tgt = emb.source, emb.target
    rows = emb.coord_rows()
    inj = rank_at_least_modp(rows, src.dim) or rank(rows) == src.dim

    T = src.tensor
    d = src.dim
    den, IM = emb.den, emb.IM
    m = absmax(IM)
    # [img_i, img_j], batched over j, against den * sum_k c_ij^k img_k
    if max(2 * m * m * tgt.n, den * absmax(T) * m * d, den) >= 2**63:
        IM, T = IM.astype(object), T.astype(object)
    flat = IM.reshape(d, -1)
    hom = all(
        ((IM[i] @ IM - IM @ IM[i]).reshape(d, -1) == den * (T[i].T @ flat)).all()
        for i in range(d)
    )

    theta_ok = True
    if src.theta_conjugator is not None and tgt.theta_conjugator is not None:
        # lt * (g img g) == lg**2 * (theta^T img) on the integer stack
        (lg, G), (lt, Th) = scaled_ints(tgt.theta_conjugator), scaled_ints(src.theta)
        lhs = int_matmul(int_matmul(G, IM), G).reshape(d, -1).astype(object)
        rhs = int_matmul(Th.T, flat).astype(object)
        theta_ok = bool((lt * lhs == lg * lg * rhs).all())
    return {
        "injective": bool(inj),
        "homomorphism": bool(hom),
        "theta_compatible": bool(theta_ok),
    }
