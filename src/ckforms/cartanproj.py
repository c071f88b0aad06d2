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
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

from .exactlin import Subspace, primitive_vector, rref
from .liealg import LieAlgebra
from .realforms import build_real_form
from .embeddings import (
    Embedding,
    a_map,
    adapted_split_part,
    catalog_lookup,
    factor_embedding,
    product_algebra,
)
from .rootweyl import SplitData, chamber_sort, split_data, weyl_elements

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
    """Boost coordinates of one factor, sorted into the closed chamber."""
    n = p + q
    eta = np.ones(n)
    eta[p:] = -1.0
    scale = max(1.0, float(np.abs(M).max()) ** 2)
    gram = (M.T * eta) @ M
    if np.abs(gram - np.diag(eta)).max() > 1e-9 * scale:
        raise ValueError("matrix does not preserve the indefinite form")
    ev = np.linalg.eigvalsh(M.T @ M)
    lam = np.sort(ev)[::-1][:p]
    lam = np.maximum(lam, 1e-300)
    t = 0.5 * np.log(lam)
    t = np.maximum(t, 0.0)
    if p == q and p > 0:
        # the split even chamber allows one negative coordinate; its sign is
        # the sign of the off-diagonal block determinant (identity component)
        s = np.linalg.det(M[:p, p:])
        if s < 0:
            t[-1] = -t[-1]
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
    V = adapted_split_part(sp.target)
    rows = np.array([list(r) for r in V.basis], dtype=object)
    seen = {}
    for W in weyl_elements(sp.sd):
        moved = rows @ np.array(W, dtype=object).T
        R, _piv = rref(moved)
        key = tuple(tuple(x for x in row) for row in R)
        if key not in seen:
            seen[key] = Subspace.from_rows(
                [primitive_vector(r) for r in moved], sp.sd.rank
            )
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
    return sp._qtensor


def union_distance(space, coords) -> float:
    """B-metric distance from one split-part vector to the translate union."""
    sp = _get_space(space) if isinstance(space, str) else space
    mus = np.asarray(coords, dtype=float).reshape(1, -1)
    return float(_union_distances(sp, mus)[0])


def _union_distances(sp: GapSpace, mus: np.ndarray) -> np.ndarray:
    Qs, scale = _union_tensor(sp)
    Y = mus * scale[None, :]
    norms2 = np.einsum("nr,nr->n", Y, Y)
    proj = np.einsum("mrk,nr->mnk", Qs, Y)
    best = np.max(np.einsum("mnk,mnk->mn", proj, proj), axis=0)
    d2 = np.maximum(norms2 - best, 0.0)
    return np.sqrt(d2)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _part_data(sp: GapSpace):
    """Per sampled factor: float boost map into ambient a, boost matrices and
    compact-part matrices in the ambient realization."""
    if getattr(sp, "_parts_data", None) is not None:
        return sp._parts_data
    out = []
    for e in sp.parts:
        Amap = np.array([[float(x) for x in row] for row in a_map(e)])
        src = e.source
        sd_src = split_data(src)
        a_imgs = [
            np.array([[float(x) for x in row] for row in e.apply(A)])
            for A in sd_src.a_matrices
        ]
        k_imgs = []
        for row in src.k_subspace().basis:
            M = src.matrix(np.array(row, dtype=object))
            k_imgs.append(
                np.array([[float(x) for x in row2] for row2 in e.apply(M)])
            )
        out.append({"a_map": Amap, "a_imgs": a_imgs, "k_imgs": k_imgs})
    sp._parts_data = out
    return out


def _run_shard(sp: GapSpace, seed_seq, count: int):
    rng = np.random.default_rng(seed_seq)
    parts = _part_data(sp)
    ranks = [p["a_map"].shape[0] for p in parts]
    total = sum(ranks)
    R = sp.sd.rank
    mus = np.empty((count, R))
    checked = 0
    worst = 0.0
    for i in range(count):
        u = rng.normal(size=total)
        u /= np.linalg.norm(u)
        radius = math.exp(rng.uniform(0.0, 50.0))
        x = radius * u
        amb = np.zeros(R)
        off = 0
        for p, r in zip(parts, ranks):
            amb += x[off : off + r] @ p["a_map"]
            off += r
        mus[i] = chamber_sort(sp.sd, amb)
        if radius <= _CONSISTENCY_RADIUS:
            err = _consistency_error(sp, parts, ranks, x, rng)
            worst = max(worst, err)
            checked += 1
    return mus, checked, worst


def _consistency_error(sp, parts, ranks, x, rng):
    """Build the actual group element and compare the eigenvalue route."""
    n = sp.algebra.n
    total_mat = np.eye(n)
    off = 0
    for p, r in zip(parts, ranks):
        X = np.zeros((n, n))
        for c, A in zip(x[off : off + r], p["a_imgs"]):
            X += c * A
        def cmat():
            co = rng.normal(size=len(p["k_imgs"]))
            nrm = np.linalg.norm(co)
            if nrm > 0:
                co /= nrm
            Y = np.zeros((n, n))
            for ci, Kimg in zip(co, p["k_imgs"]):
                Y += ci * Kimg
            return expm(Y)
        total_mat = total_mat @ (cmat() @ expm(X) @ cmat())
        off += r
    factors = tuple(
        total_mat[o : o + a.n, o : o + a.n] for a, _c, o in sp.algebra.factors
    )
    mu_num = cartan_projection(GroupElement(sp.algebra, factors)).coords
    amb = np.zeros(sp.sd.rank)
    off = 0
    for p, r in zip(parts, ranks):
        amb += x[off : off + r] @ p["a_map"]
        off += r
    mu_exact = chamber_sort(sp.sd, amb)
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


def gap_experiment(
    space: str, samples: int, seed: int, threads: int | None = None
) -> GapReport:
    """Sample L, measure B-distances from mu(L) to the translate union, and
    fit the best linear gap d >= eps * |mu| - C valid on every sample."""
    sp = _get_space(space)
    _union_tensor(sp)
    _part_data(sp)
    shard = 1024
    nsh = max(1, -(-samples // shard))
    sizes = [shard] * (nsh - 1) + [samples - shard * (nsh - 1)]
    seqs = np.random.SeedSequence(seed).spawn(nsh)
    jobs = list(zip(seqs, sizes))
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(
                ex.map(lambda jb: _run_shard(sp, jb[0], jb[1]), jobs)
            )
    else:
        results = [_run_shard(sp, sq, c) for sq, c in jobs]
    mus = np.concatenate([r[0] for r in results], axis=0)
    checked = sum(r[1] for r in results)
    worst = max((r[2] for r in results), default=0.0)
    if worst > _CONSISTENCY_TOL:
        raise RuntimeError(
            f"eigenvalue route disagrees with the exact route by {worst:.2e}"
        )
    dists = _union_distances(sp, mus)
    gram = _gram_floats(sp.sd)
    norms = np.sqrt(np.einsum("nr,r,nr->n", mus, gram, mus))
    keep = norms > 1e-9
    d = dists[keep]
    nm = norms[keep]
    d = np.where(d <= _REL_CLAMP * nm, 0.0, d)
    # work with ratios so that eps <= ratio_i holds exactly in floats; the
    # raw form eps*|mu| - d loses the sign to rounding at huge radii
    ratios = d / nm
    eps = float(np.min(ratios)) if len(d) else 0.0
    C = max(0.0, float(np.max((eps - ratios) * nm))) if len(d) else 0.0
    margin = float(np.min((ratios - eps) * nm)) + C if len(d) else 0.0
    return GapReport(
        space=sp.key,
        samples=samples,
        seed=seed,
        fitted_epsilon=eps,
        fitted_C=C,
        min_margin=margin,
        checked=checked,
        check_error=worst,
    )
