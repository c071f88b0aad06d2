"""Cartan projections for indefinite-orthogonal realizations and the sampled
linear-gap experiment.

mu(g) is computed from the eigenvalues of g^T g (all catalog realizations are
transpose-stable), mapped to boost coordinates and Weyl-sorted into the closed
chamber.  The gap experiment samples group elements l = k1 exp(X) k2 of a
catalog subgroup L with heavy-tailed radii and measures the distance from
mu(l) to the finite union of Weyl translates of the target split part; the
sampled X pins mu(l) exactly (KAK uniqueness), so huge radii never enter a
floating eigensolver.  Group elements are materialized only for the small
radius cross-check subset, where the eigenvalue path is verified against the
analytic value.

The sampler works in shards of ``_SHARD`` = 1,024 samples, each with its
own spawned seed, in two phases.  Phase 1 makes the RNG draws in three bulk
calls, in this order: ``standard_normal((count, rank))`` for the directions,
``random(count)`` for the log-radii (radius = exp(50 u) by ``math.exp``:
NumPy's SIMD ``exp`` may round differently on another host), and one
``standard_normal((checked, 2 * kdim))`` for the cross-checked samples, each
row holding per part the left, then the right compact coefficients.  Phase 2
does the arithmetic on whole arrays: per shard, row norms, the boost maps and
a row-wise chamber sort (only B, C, BC and D factors occur:
``gap_experiment`` refuses any ambient that is not indefinite-orthogonal);
then the cross-check, once over the checked samples of all shards, pooled
and cut into chunks of at most ``_SHARD`` rows (a few NumPy calls per chunk,
not per shard, with bounded temporaries).  It builds each checked group
element one ambient factor block at a time, from closed-form exponentials: a
part's boost images commute, so exp(X) = V diag(e^(x lam)) V^T on one joint
eigenbasis found once, and a skew compact image K, which lies in
so(p) + so(q), has exp(K) = cos W + K sinc W with W^2 = -K K, one real
``eigh`` on each of those diagonal blocks; ``eigvalsh`` and ``det`` then read
mu off each factor block.  Distances to the translate union are taken over
bounded chunks of samples, the projections summed over the nonzero basis
entries in the order of the ``einsum`` they replace (not by BLAS, whose
blocked sums round differently).  A bulk draw has the bytes of the same draws
made one at a time, and every float operation is the per-sample one applied
row-wise (each LAPACK call works on one matrix at a time), so a report is
bit-identical to that of a loop over samples, however the checked rows are
grouped, as ``test_batched_shard_matches_the_per_sample_loop`` and
``test_pooled_cross_check_equals_the_per_shard_one`` check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exactlin import (
    InternalError, Subspace, echelon_rows, int_matmul,
)
from .liealg import LieAlgebra
from .embeddings import (
    Embedding,
    a_map,
    adapted_split_part,
    catalog_lookup,
    factor_embedding,
    product_algebra,
)
from .rootweyl import SplitData, signed_permutations, split_data

__all__ = [
    "GroupElement",
    "ChamberVector",
    "GapReport",
    "GapSpaceError",
    "cartan_projection",
    "mu_norm",
    "gap_space_keys",
    "gap_union",
    "union_distance",
    "gap_experiment",
]

_CONSISTENCY_RADIUS = 5.0
_CONSISTENCY_TOL = 1e-6
_REL_CLAMP = 1e-9
_DIST_CHUNK = 4096
_SHARD = 1024  # samples per spawned seed, and checked rows per cross-check


class GapSpaceError(KeyError):
    pass


@dataclass(frozen=True)
class GroupElement:
    """Element of an indefinite-orthogonal group (or a product of two), one
    float matrix per simple ideal, in the same realization as the algebra."""

    algebra: LieAlgebra
    factors: tuple

    def __post_init__(self):
        infos = _so_infos(self.algebra)
        if len(infos) != len(self.factors):
            raise ValueError("wrong number of factor matrices")
        for (p, q), M in zip(infos, self.factors):
            n = p + q
            if M.shape != (n, n):
                raise ValueError(f"factor matrix must be {n}x{n}")


@dataclass
class ChamberVector:
    sd: SplitData
    coords: np.ndarray
    normalized: bool = True


def _so_infos(g: LieAlgebra):
    out = []
    for a, _coff, _boff in g.factors:
        if a.meta.get("family") != "so":
            raise ValueError(
                f"{a.name}: Cartan projection supports indefinite-orthogonal "
                "realizations only"
            )
        out.append((a.meta["p"], a.meta["q"]))
    return out


def _factor_mu(M: np.ndarray, p: int, q: int) -> np.ndarray:
    """Boost coordinates of one factor matrix, or of each matrix of a
    stack, sorted into the closed chamber."""
    n = p + q
    eta = np.ones(n)
    eta[p:] = -1.0
    Mt = np.swapaxes(M, -1, -2)
    scale = np.maximum(1.0, np.abs(M).max(axis=(-2, -1)) ** 2)
    gram = (Mt * eta) @ M
    if (np.abs(gram - np.diag(eta)).max(axis=(-2, -1)) > 1e-9 * scale).any():
        raise ValueError("matrix does not preserve the indefinite form")
    ev = np.linalg.eigvalsh(Mt @ M)
    lam = np.sort(ev, axis=-1)[..., ::-1][..., :p]
    lam = np.maximum(lam, 1e-300)
    t = 0.5 * np.log(lam)
    t = np.maximum(t, 0.0)
    if p == q and p > 0:
        # the split even chamber allows one negative coordinate; its sign is
        # the sign of the off-diagonal block determinant (identity component)
        s = np.linalg.det(M[..., :p, p:])
        t[..., -1] = np.where(s < 0, -t[..., -1], t[..., -1])
    return t


def cartan_projection(g: GroupElement) -> ChamberVector:
    sd = split_data(g.algebra)
    infos = _so_infos(g.algebra)
    segs = [
        _factor_mu(np.asarray(M, dtype=float), p, q)
        for (p, q), M in zip(infos, g.factors)
    ]
    return ChamberVector(sd, np.concatenate(segs) if segs else np.zeros(0))


def _gram_floats(sd: SplitData) -> np.ndarray:
    return np.array([float(sd.gram[i, i]) for i in range(sd.rank)])


def mu_norm(v: ChamberVector) -> float:
    g = _gram_floats(v.sd)
    return math.sqrt(float(np.dot(g * v.coords, v.coords)))


# ---------------------------------------------------------------------------
# gap spaces
# ---------------------------------------------------------------------------

@dataclass
class GapSpace:
    key: str
    algebra: LieAlgebra
    sd: SplitData
    parts: list  # embeddings generating the sampled subgroup L
    target: Embedding  # quotient subgroup; its split part generates the union
    description: str


def _space_so44xso24(control=False):
    g = product_algebra("so(4,4)", "so(2,4)")
    target = catalog_lookup("so(4,4)xso(2,4):delta-so(2,4)")
    if control:
        parts = [target]
        key = "so44xso24-delta-control"
        desc = "control: samples drawn from the diagonal itself"
    else:
        parts = [
            factor_embedding(g, 0, catalog_lookup("so(4,4):so(3,4):spin")),
            factor_embedding(g, 1, catalog_lookup("so(2,4):so(1,4):block")),
        ]
        key = "so44xso24-delta"
        desc = "so(4,4)xso(2,4) / delta(so(2,4)), L = so(3,4) x so(1,4)"
    return GapSpace(key, g, split_data(g), parts, target, desc)


def _space_so34xso24():
    g = product_algebra("so(3,4)", "so(2,4)")
    target = catalog_lookup("so(3,4)xso(2,4):delta-so(2,4)")
    parts = [
        factor_embedding(g, 0, catalog_lookup("so(3,4):g2(2)")),
        factor_embedding(g, 1, catalog_lookup("so(2,4):so(1,4):block")),
    ]
    return GapSpace(
        "so34xso24-delta",
        g,
        split_data(g),
        parts,
        target,
        "so(3,4)xso(2,4) / delta(so(2,4)), L = g2(2) x so(1,4)",
    )


_SPACE_BUILDERS = {
    "so44xso24-delta": lambda: _space_so44xso24(False),
    "so44xso24-delta-control": lambda: _space_so44xso24(True),
    "so34xso24-delta": _space_so34xso24,
}

_space_cache: dict = {}


def gap_space_keys():
    return sorted(_SPACE_BUILDERS)


def _get_space(key: str) -> GapSpace:
    k = key.replace(" ", "").lower()
    if k not in _SPACE_BUILDERS:
        raise GapSpaceError(
            f"unknown gap space {key!r}; known: {', '.join(gap_space_keys())}"
        )
    if k not in _space_cache:
        _space_cache[k] = _SPACE_BUILDERS[k]()
    return _space_cache[k]


def gap_union(space) -> list:
    """Deduplicated exact Weyl translates of the target split part."""
    sp = _get_space(space) if isinstance(space, str) else space
    if getattr(sp, "_union", None) is not None:
        return sp._union
    rows = adapted_split_part(sp.target).matrix()
    seen = {}
    for perm, signs in signed_permutations(sp.sd):
        # integer rows of w(V), a column gather and a sign, keyed by their
        # canonical echelon basis
        moved = rows[:, perm] * signs.astype(object)
        key = tuple(map(tuple, echelon_rows(moved)))
        if key not in seen:
            seen[key] = Subspace.from_rows(moved, sp.sd.rank)
    sp._union = list(seen.values())
    return sp._union


def _union_tensor(sp: GapSpace):
    """Stacked orthonormal bases of the translates in the B-metric."""
    if getattr(sp, "_qtensor", None) is not None:
        return sp._qtensor
    scale = np.sqrt(_gram_floats(sp.sd))
    mats = []
    for S in gap_union(sp):
        A = np.array([[float(x) for x in row] for row in S.basis], dtype=float)
        Q, _ = np.linalg.qr((A * scale[None, :]).T)  # columns orthonormal
        mats.append(Q)
    sp._qtensor = (np.stack(mats, axis=0), scale)
    sp._qplan = _support_plan(sp._qtensor[0])  # for _projected_norms2
    return sp._qtensor


def union_distance(space, coords) -> float:
    """B-metric distance from one split-part vector to the translate union."""
    sp = _get_space(space) if isinstance(space, str) else space
    mus = np.asarray(coords, dtype=float).reshape(1, -1)
    return float(_union_distances(sp, mus)[0])


def _union_distances(sp: GapSpace, mus: np.ndarray) -> np.ndarray:
    _Qs, scale = _union_tensor(sp)
    out = np.empty(len(mus))
    # bounded chunks keep the (translates, samples) temporaries small
    for s in range(0, len(mus), _DIST_CHUNK):
        Y = mus[s : s + _DIST_CHUNK] * scale[None, :]
        # cheap, and no other NumPy sum of the squares rounds like it
        norms2 = np.einsum("nr,nr->n", Y, Y)
        best = np.max(_projected_norms2(sp._qplan, np.ascontiguousarray(Y.T)), axis=0)
        out[s : s + len(Y)] = np.sqrt(np.maximum(norms2 - best, 0.0))
    return out


def _support_plan(Qs):
    """``(translates, [(rows, columns), ...])``: the translates grouped by
    the supports of their basis columns, a column as its ``(r, Qs[rows, r,
    k])`` over its nonzero entries in order of r, empty columns left out."""
    groups = {}
    for t, Q in enumerate(Qs):
        groups.setdefault(tuple(tuple(np.flatnonzero(c)) for c in Q.T), []).append(t)
    return len(Qs), [
        (np.array(rows), [[(r, Qs[rows, r, k, None]) for r in supp]
                          for k, supp in enumerate(key) if supp])
        for key, rows in groups.items()
    ]


def _projected_norms2(plan, YT):
    """Squared norm of the projection of each column of YT on each
    translate, as a (translates, samples) array.

    For each basis column k the split coordinates r are summed in order,
    then the squares are added in order of k: the order of ``einsum("mrk,
    rn->mnk")`` and ``einsum("mnk,mnk->mn")`` (not BLAS, whose blocked sums
    round differently), over the nonzero entries of ``_support_plan`` only.
    A term left out is a signed zero, which moves a sum at most in the sign
    of a zero, and the square drops that sign: the result is bit-equal."""
    m, groups = plan
    total = np.zeros((m, YT.shape[1]))
    for rows, cols in groups:
        acc = total[rows]
        for (r0, q0), *rest in cols:
            proj = q0 * YT[r0]
            for r, q in rest:
                proj += q * YT[r]
            proj *= proj
            acc += proj
        total[rows] = acc
    return total


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _floats(N, L):
    """The exact quotients N / L, each rounded once to the nearest float."""
    return (np.asarray(N, dtype=object) / L).astype(float)


def _part_data(sp: GapSpace):
    """Per sampled factor: float boost map into ambient a, and the boost and
    compact-part images cut into the ambient's factor blocks, as
    ``(block, V, lam, compacts)`` for each block the part does not vanish on;
    ``compacts`` holds ``(lo, hi, K)`` for each of the block's so(p) and so(q)
    diagonal blocks that some compact image ``K`` does not vanish on.

    The closed-form exponentials of the cross-check need symmetric boost
    images, skew compact images and nothing off the factor blocks (nor, for
    compact images, off their so(p) + so(q) blocks), checked exactly, and
    commuting boost images with a joint eigenbasis ``V``."""
    if getattr(sp, "_parts_data", None) is not None:
        return sp._parts_data
    n = sp.algebra.n
    spans = [(o, o + a.n) for a, _c, o in sp.algebra.factors]
    # the so(p) and so(q) diagonal blocks of each factor block
    halves = [((0, p), (p, p + q)) for p, q in _so_infos(sp.algebra)]
    off_block = np.ones((n, n), dtype=bool)
    off_compact = np.ones((n, n), dtype=bool)
    for (lo, hi), pair in zip(spans, halves):
        off_block[lo:hi, lo:hi] = False
        for a, b in pair:
            off_compact[lo + a : lo + b, lo + a : lo + b] = False
    out = []
    for e in sp.parts:
        src = e.source
        la, A = split_data(src).boosts
        Ya, sa = e.apply_ints(A)
        K = int_matmul(src.k_subspace().matrix(), src.stack.reshape(src.dim, -1))
        Yk, sk = e.apply_ints(K.reshape(-1, src.n, src.n))
        sym = np.array_equal(Ya, np.swapaxes(Ya, 1, 2))
        skew = np.array_equal(Yk, -np.swapaxes(Yk, 1, 2))
        blockwise = not (Ya[:, off_block].any() or Yk[:, off_compact].any())
        if not (sym and skew and blockwise):
            raise InternalError(
                "cartanproj._part_data",
                f"{e.key}: images unfit for the closed-form exponentials "
                f"(boosts symmetric: {sym}, compacts skew: {skew}, "
                f"within the factor blocks: {blockwise})",
            )
        a_imgs, k_imgs = _floats(Ya, sa * la), _floats(Yk, sk)
        blocks = []
        for f, (lo, hi) in enumerate(spans):
            if Ya[:, lo:hi, lo:hi].any() or Yk[:, lo:hi, lo:hi].any():
                B = a_imgs[:, lo:hi, lo:hi]
                # the powers of pi keep the rational joint weights apart
                V = np.linalg.eigh(np.tensordot(np.pi ** -np.arange(len(B)), B, 1))[1]
                D = V.T @ B @ V
                lam = np.diagonal(D, axis1=1, axis2=2)
                off = np.abs(D - lam[..., None] * np.eye(len(V))).max()
                if off > 1e-12 * max(1.0, np.abs(B).max()):
                    raise InternalError(
                        "cartanproj._part_data", f"{e.key}: boost images on factor "
                        f"block {f} have no joint eigenbasis (off-diagonal {off:.1e})")
                compacts = [
                    (a, b, k_imgs[:, lo + a : lo + b, lo + a : lo + b].copy())
                    for a, b in halves[f]
                    if Yk[:, lo + a : lo + b, lo + a : lo + b].any()
                ]
                blocks.append((f, V, lam, compacts))
        out.append({"a_map": _floats(a_map(e), 1), "kdim": len(Yk), "blocks": blocks})
    sp._parts_data = out
    return out


def _run_shard(sp: GapSpace, seed_seq, count: int):
    """mu of ``count`` samples, then the rows of the samples to cross-check:
    their boost coefficients ``X``, compact coefficients ``co`` and exact mu.
    Three bulk draws, then the arithmetic on whole arrays (see the module
    docstring); the cross-check itself is ``gap_experiment``'s."""
    rng = np.random.default_rng(seed_seq)
    parts = _part_data(sp)
    ranks = [p["a_map"].shape[0] for p in parts]
    U = rng.standard_normal((count, sum(ranks)))
    # libm's exp, not NumPy's SIMD one, which may round differently by host
    radius = np.array(list(map(math.exp, (50.0 * rng.random(count)).tolist())))
    small = radius <= _CONSISTENCY_RADIUS
    checked = int(np.count_nonzero(small))
    # per checked sample and part: left, then right compact coefficients
    co = rng.standard_normal((checked, 2 * sum(p["kdim"] for p in parts)))
    U /= _row_norms(U)[:, None]
    X = radius[:, None] * U
    mus = _chamber_rows(sp.sd, _boost_coords(parts, ranks, X))
    return mus, X[small], co, mus[small]


def _row_norms(U):
    # bit-equal to np.linalg.norm of each row; einsum and sum are not
    return np.sqrt(np.vecdot(U, U))


def _boost_coords(parts, ranks, X):
    """Ambient split-part coordinates of the sampled boosts, one per row."""
    amb = np.zeros((len(X), parts[0]["a_map"].shape[1]))
    off = 0
    for p, r in zip(parts, ranks):
        amb += X[:, off : off + r] @ p["a_map"]
        off += r
    return amb


def _chamber_rows(sd: SplitData, amb):
    """``chamber_sort`` of every row, for the B, C, BC and D factors of an
    indefinite-orthogonal ambient (``gap_experiment`` refuses any other)."""
    out = np.empty_like(amb)
    for f in sd.factors:
        seg = amb[:, f.offset : f.offset + f.rank]
        mags = np.sort(np.abs(seg), axis=1)[:, ::-1]
        if f.root_type == "D":
            odd = np.count_nonzero(seg < 0, axis=1) % 2 == 1
            mags[odd, -1] = -mags[odd, -1]
        out[:, f.offset : f.offset + f.rank] = mags
    return out


def _combine(C, mats):
    """The stack of sums_j C[s, j] * mats[j], accumulated in basis order."""
    out = np.zeros((len(C),) + mats[0].shape)
    for c, A in zip(C.T, mats):
        out += np.multiply.outer(c, A)
    return out


def _boost_expm(V, lam, X):
    """exp of sum_i X[s, i] A[i] for each row of X, for commuting symmetric
    A[i] = V diag(lam[i]) V^T: V diag(e^(X lam)) V^T."""
    return (V * np.exp(_combine(X, lam))[:, None, :]) @ V.T


def _skew_expm(K):
    """exp of each skew K of a stack, cos W + K sinc W with W^2 = K^T K =
    -K K = U diag(w^2) U^T: (U diag(cos w) + K U diag(sinc w)) U^T, one real
    eigh.  For an exactly skew K, as every combination of the compact images
    is, -K K has the terms of K^T K exactly."""
    s, U = np.linalg.eigh(-(K @ K))
    w = np.sqrt(np.maximum(s, 0.0))
    sinc = np.divide(np.sin(w), w, out=np.ones_like(w), where=w > 0.0)
    return (U * np.cos(w)[..., None, :] + (K @ U) * sinc[..., None, :]) @ U.mT


def _group_blocks(sp, parts, ranks, X, co):
    """The group elements k1 exp(X) k2 of the checked samples, one stack per
    ambient factor block (the representation of ``GroupElement``); row s of
    ``co`` holds sample s's left, then right compact coefficients per part."""
    blocks = [
        np.tile(np.eye(a.n), (len(X), 1, 1)) for a, _c, _o in sp.algebra.factors
    ]
    off = koff = 0
    for p, r in zip(parts, ranks):
        k = p["kdim"]
        # left then right draws, stacked for one exponential per block
        c = np.concatenate([co[:, koff : koff + k], co[:, koff + k : koff + 2 * k]])
        c /= _row_norms(c)[:, None]
        for f, V, lam, compacts in p["blocks"]:
            boost = _boost_expm(V, lam, X[:, off : off + r])
            # exp is taken on each so(p), so(q) block; it is 1 off them
            ks = np.tile(np.eye(len(V)), (len(c), 1, 1))
            for a, b, K in compacts:
                ks[:, a:b, a:b] = _skew_expm(_combine(c, K))
            k1, k2 = np.split(ks, 2)
            blocks[f] = blocks[f] @ (k1 @ boost @ k2)
        off += r
        koff += 2 * k
    return blocks


def _consistency_error(sp, parts, ranks, X, co, mu_exact):
    """The worst distance between the eigenvalue route on the checked
    samples' group elements and mu_exact; InternalError if one of those
    elements fails the form test."""
    blocks = _group_blocks(sp, parts, ranks, X, co)
    try:
        mu_num = np.concatenate(
            [_factor_mu(M, p, q) for (p, q), M in zip(_so_infos(sp.algebra), blocks)],
            axis=1,
        )
    except ValueError as exc:  # a group element built here, not the user's
        raise InternalError(
            "cartanproj.gap_experiment", f"cross-checked group element: {exc}"
        ) from exc
    return float(np.abs(mu_num - mu_exact).max())


@dataclass
class GapReport:
    space: str
    samples: int
    seed: int
    fitted_epsilon: float
    fitted_C: float
    min_margin: float
    checked: int
    check_error: float

    def to_json(self):
        return {
            "space": self.space,
            "samples": self.samples,
            "seed": self.seed,
            "fitted_epsilon": self.fitted_epsilon,
            "fitted_C": self.fitted_C,
            "min_margin": self.min_margin,
        }


def gap_experiment(space: str, samples: int, seed: int) -> GapReport:
    """Sample L and report eps, the smallest sampled d / |mu| (d the B-distance
    from mu(l) to the translate union): an upper estimate of its infimum over
    L.  ``fitted_C`` and ``min_margin`` are 0.0: a sample attains eps."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if seed < 0:
        raise ValueError("seed must be at least 0")
    sp = _get_space(space)
    _so_infos(sp.algebra)  # the row-wise chamber sort knows no G factor
    _union_tensor(sp)
    parts = _part_data(sp)
    ranks = [p["a_map"].shape[0] for p in parts]
    seqs = np.random.SeedSequence(seed).spawn(-(-samples // _SHARD))
    mus = np.empty((samples, sp.sd.rank))
    rows = []
    for lo, sq in zip(range(0, samples, _SHARD), seqs):
        shard = _run_shard(sp, sq, min(_SHARD, samples - lo))
        mus[lo : lo + _SHARD] = shard[0]
        rows.append(shard[1:])
    X, co, mu_exact = (np.concatenate(r) for r in zip(*rows))
    checked = len(X)
    worst = max(
        (
            _consistency_error(sp, parts, ranks, X[s : s + _SHARD],
                               co[s : s + _SHARD], mu_exact[s : s + _SHARD])
            for s in range(0, checked, _SHARD)
        ),
        default=0.0,
    )
    if worst > _CONSISTENCY_TOL:
        raise InternalError(
            "cartanproj.gap_experiment",
            f"eigenvalue route disagrees with the exact route by {worst:.2e}",
        )
    dists = _union_distances(sp, mus)
    gram = _gram_floats(sp.sd)
    norms = np.sqrt(np.einsum("nr,r,nr->n", mus, gram, mus))
    keep = norms > 1e-9
    d = dists[keep]
    nm = norms[keep]
    d = np.where(d <= _REL_CLAMP * nm, 0.0, d)
    eps = float(np.min(d / nm)) if len(d) else 0.0
    return GapReport(
        space=sp.key,
        samples=samples,
        seed=seed,
        fitted_epsilon=eps,
        fitted_C=0.0,
        min_margin=0.0,
        checked=checked,
        check_error=worst,
    )
