"""Restricted root data: split parts, little Weyl groups, and the exact
Weyl-orbit disjointness test underlying the properness criterion.

Coordinates on the split part a are coefficients with respect to the standard
boost basis attached by the real form constructors (concatenated over factors
for products).  Weyl elements act on these coordinates: signed permutations
for the classical types (even sign count for type D), and twelve computed
reflection products for the split g2.

The disjointness scan projects V_h onto ker(V_l): w(V_h) meets V_l only at 0
iff H w^T N has full row rank (N an integer basis of ker V_l).  The group is
walked in enumeration order, in chunks of about a thousand elements; each
factor adds its block H_f w_f^T N_f mod p, one batched elimination mod p
certifies the whole chunk, and only the elements that fail mod p are
re-checked exactly, so the witness is the first one in enumeration order.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactlin import (
    MODP_PRIME,
    CoordinateSolver,
    InternalError,
    Subspace,
    embed_block,
    fmat,
    fmatmul,
    fzeros,
    intersect,
    kernel,
    primitive_vector,
    rank,
    rank_modp,
    reduce_modp,
    scaled_ints,
)
from .liealg import LieAlgebra

__all__ = [
    "SplitData",
    "split_data",
    "weyl_order",
    "weyl_elements",
    "weyl_disjoint",
    "WeylCutoffError",
    "chamber_sort",
]

_F0 = Fraction(0)
_F1 = Fraction(1)

DEFAULT_WEYL_CUTOFF = 10**7


class WeylCutoffError(RuntimeError):
    """Raised when a little Weyl group is too large to enumerate; carries the
    exact order so callers can report the refusal."""

    def __init__(self, order: int, cutoff: int):
        super().__init__(
            f"little Weyl group has order {order}, above the enumeration "
            f"cutoff {cutoff}; refusing to scan"
        )
        self.order = order
        self.cutoff = cutoff


@dataclass
class FactorSplit:
    algebra: LieAlgebra
    root_type: str  # B, C, BC, D, G
    rank: int
    offset: int  # first coordinate of this factor inside ambient a


@dataclass
class SplitData:
    algebra: LieAlgebra
    a_matrices: list  # ambient matrices spanning a, factor blocks concatenated
    factors: list
    gram: np.ndarray  # exact Killing Gram of the a-basis (diagonal)
    boosts: tuple  # (den, A): the a-basis as one integer stack A / den
    solver: CoordinateSolver  # coordinates in the flattened rows of A

    @property
    def rank(self) -> int:
        return len(self.a_matrices)


def split_data(g: LieAlgebra) -> SplitData:
    """Assemble the standard split part of g together with the exact Killing
    Gram of its boost basis; a product places its factors' own (cached)
    split data block by block."""
    cached = g.meta.get("_split_data")
    if cached is not None:
        return cached
    if len(g.factors) == 2:
        factors, a_mats, gram_diag = [], [], []
        for alg, _coff, boff in g.factors:
            sd = split_data(alg)
            (f,) = sd.factors
            factors.append(FactorSplit(alg, f.root_type, f.rank, len(a_mats)))
            a_mats.extend(embed_block(A, g.n, boff) for A in sd.a_matrices)
            gram_diag.extend(np.diagonal(sd.gram))
    else:
        a_mats = list(g.meta.get("a_basis") or ())
        if not a_mats:
            raise ValueError(f"{g.name}: no split part data attached")
        K = g.killing_form
        cs = [g.coords(A) for A in a_mats]
        G = _gram(cs, K)
        # orthogonalize exactly when needed (the exceptional factor); the
        # classical boost bases are already Killing-orthogonal
        r = len(cs)
        if any(G[i, j] != 0 for i in range(r) for j in range(i + 1, r)):
            for i in range(len(cs)):
                for j in range(i):
                    cij = cs[j] @ K @ cs[i]
                    if cij != 0:
                        cs[i] = cs[i] - (cij / (cs[j] @ K @ cs[j])) * cs[j]
                cs[i] = primitive_vector(cs[i])
            a_mats = [g.matrix(c) for c in cs]
            G = _gram(cs, K)
        gram_diag = [G[i, i] for i in range(r)]
        rt = g.meta.get("root_type", "?")
        if rt != "G" and any(s != gram_diag[0] for s in gram_diag):
            raise ValueError(f"{g.name}: boost norms differ")
        factors = [FactorSplit(g, rt, r, 0)]
    r = len(a_mats)
    gram = fzeros((r, r))
    np.fill_diagonal(gram, gram_diag)
    den, A = scaled_ints(np.array(a_mats, dtype=object))
    solver = CoordinateSolver(A.reshape(r, -1))
    sd = SplitData(g, a_mats, factors, gram, (den, A), solver)
    g.meta["_split_data"] = sd
    return sd


def _classical_order(root_type: str, k: int) -> int:
    import math

    if root_type == "D":
        return 2 ** (k - 1) * math.factorial(k)
    return 2**k * math.factorial(k)


def weyl_order(sd: SplitData) -> int:
    total = 1
    for f in sd.factors:
        total *= 12 if f.root_type == "G" else _classical_order(f.root_type, f.rank)
    return total


# ---------------------------------------------------------------------------
# g2 reflections from the 7-dimensional representation
# ---------------------------------------------------------------------------

def _exact_eigenvalues(A):
    """Rational eigenvalues of a diagonalizable rational matrix with a
    rational spectrum, float-hinted and exactly verified, with a basis of
    each eigenspace; raises if multiplicities do not exhaust the space."""
    n = A.shape[0]
    fl = np.array([[float(x) for x in row] for row in A])
    hints = np.linalg.eigvals(fl).real
    cands = []
    for h in hints:
        fr = Fraction(float(h)).limit_denominator(24)
        if fr not in cands:
            cands.append(fr)
    out = []
    covered = 0
    for lam in cands:
        M = A.copy()
        for i in range(n):
            M[i, i] = M[i, i] - lam
        vecs = kernel(M)
        if vecs:
            out.append((lam, vecs))
            covered += len(vecs)
    if covered != n:
        raise InternalError(
            "rootweyl._exact_eigenvalues", "eigenvalue reconstruction incomplete"
        )
    return out


def _g2_weyl_matrices(alg: LieAlgebra):
    """The 12 Weyl elements of split g2 acting on its 2-dim split part, built
    from reflections in the computed restricted roots."""
    a1, a2 = alg.meta["a_basis"]
    # joint weights of (a1, a2) on the 7-dim representation
    weights = []
    for lam1, vecs in _exact_eigenvalues(a1):
        space = [np.array(v, dtype=object) for v in vecs]
        # split the lam1 eigenspace under a2
        stacked = np.array([list(v) for v in space], dtype=object)
        sub = np.array(
            [[(a2 @ v)[i] for i in range(7)] for v in space], dtype=object
        )
        # a2 restricted to span(space) in that basis: coords of a2 v rows
        sol = CoordinateSolver(stacked)
        rest = np.array([sol.coords(row) for row in sub], dtype=object).T
        for lam2, cvecs in _exact_eigenvalues(rest):
            weights.append(((lam1, lam2), len(cvecs)))
    roots = [w for w, _m in weights if w != (_F0, _F0)]
    short = sorted(set(roots))
    if len(short) != 6:
        raise ValueError(f"expected 6 short restricted roots, got {short}")
    G = _gram(
        [alg.coords(a) for a in alg.meta["a_basis"]], alg.killing_form
    )
    Ginv = _inv2(G)

    def nrm2(lam):
        v = np.array(lam, dtype=object)
        return v @ Ginv @ v

    s0 = nrm2(short[0])
    longs = set()
    for u in short:
        for v in short:
            d = (u[0] - v[0], u[1] - v[1])
            if d == (_F0, _F0):
                continue
            if nrm2(d) == 3 * s0:
                longs.add(d)
    allroots = list(short) + sorted(longs)
    refl = []
    for lam in allroots:
        lv = np.array(lam, dtype=object)
        t = Ginv @ lv  # coroot direction in a-coordinates
        denom = lv @ t
        S = np.eye(2, dtype=object).astype(object)
        for i in range(2):
            for j in range(2):
                S[i, j] = (
                    (_F1 if i == j else _F0) - 2 * t[i] * lv[j] / denom
                )
        refl.append(S)
    # close under multiplication
    seen = {}
    frontier = [np.eye(2, dtype=object)] + refl
    for M in frontier:
        seen[_mat_key(M)] = M
    changed = True
    while changed:
        changed = False
        cur = list(seen.values())
        for A in cur:
            for B in refl:
                C = A @ B
                k = _mat_key(C)
                if k not in seen:
                    seen[k] = C
                    changed = True
    mats = list(seen.values())
    if len(mats) != 12:
        raise ValueError(f"g2 Weyl closure has order {len(mats)}, expected 12")
    return mats


def _gram(cs, K):
    """Gram matrix of the coordinate vectors cs under the form K."""
    C = np.array([list(c) for c in cs], dtype=object)
    return fmatmul(fmatmul(C, K), C.T)


def _inv2(G):
    det = G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]
    out = np.empty((2, 2), dtype=object)
    out[0, 0] = G[1, 1] / det
    out[1, 1] = G[0, 0] / det
    out[0, 1] = -G[0, 1] / det
    out[1, 0] = -G[1, 0] / det
    return out


def _mat_key(M):
    return tuple(M.reshape(-1))


_g2_weyl_cache = []


def _g2_weyl(alg):
    if not _g2_weyl_cache:
        _g2_weyl_cache.extend(_g2_weyl_matrices(alg))
    return list(_g2_weyl_cache)


# ---------------------------------------------------------------------------
# element enumeration
# ---------------------------------------------------------------------------

def _signed_perm_matrix(perm, signs):
    """Exact matrix of the signed permutation (perm, signs)."""
    k = len(perm)
    M = fzeros((k, k))
    for i in range(k):
        M[i, perm[i]] = Fraction(int(signs[i]))
    return M


class _FactorGroup:
    """The little Weyl group of one factor, indexed in enumeration order:
    mod-p matrices for a batch of indices, the exact matrix for one.

    A classical factor of rank k is every permutation times every sign
    vector (even sign count for type D), permutation-major: element
    (perm, signs) is (w x)_i = signs[i] * x[perm[i]].  A g2 factor is its
    twelve computed matrices, reduced mod p entrywise (a/b as a * b^-1)."""

    def __init__(self, f: FactorSplit):
        self.factor = f
        p = MODP_PRIME
        if f.root_type == "G":
            self.mats = _g2_weyl(f.algebra)
            self.table = np.array(
                [[[x.numerator * pow(x.denominator, -1, p) % p for x in row]
                  for row in M] for M in self.mats],
                dtype=np.int64,
            )
            self.size = len(self.mats)
            return
        k = f.rank
        self.table = None
        self.perms = np.array(list(itertools.permutations(range(k))), dtype=np.int64)
        self.signs = np.array(
            [s for s in itertools.product((1, -1), repeat=k)
             if f.root_type != "D" or s.count(-1) % 2 == 0],
            dtype=np.int64,
        )
        self.size = len(self.perms) * len(self.signs)

    def modp(self, idx):
        """(len(idx), k, k) int64 matrices of the elements idx, mod p."""
        if self.table is not None:
            return self.table[idx]
        k = self.factor.rank
        pi, si = np.divmod(idx, len(self.signs))
        W = np.zeros((len(idx), k, k), dtype=np.int64)
        W[np.arange(len(idx))[:, None], np.arange(k), self.perms[pi]] = (
            self.signs[si] % MODP_PRIME
        )
        return W

    def exact(self, e):
        if self.table is not None:
            return self.mats[e]
        pi, si = divmod(int(e), len(self.signs))
        return _signed_perm_matrix(self.perms[pi], self.signs[si])


def _element_matrix(r: int, groups, idx):
    """Exact r x r matrix of the product element with factor indices idx."""
    M = fzeros((r, r))
    for g, e in zip(groups, idx):
        lo, hi = g.factor.offset, g.factor.offset + g.factor.rank
        M[lo:hi, lo:hi] = g.exact(e)
    return M


def weyl_elements(sd: SplitData, cutoff: int = DEFAULT_WEYL_CUTOFF):
    """Iterate the full little Weyl group as exact matrices on a-coordinates.

    Raises WeylCutoffError (with the exact order) instead of enumerating when
    the order exceeds the cutoff.  The cutoff is checked eagerly, before the
    first element is requested."""
    order = weyl_order(sd)
    if order > cutoff:
        raise WeylCutoffError(order, cutoff)
    return _weyl_element_iter(sd)


def _weyl_element_iter(sd: SplitData):
    groups = [_FactorGroup(f) for f in sd.factors]
    sizes = [g.size for g in groups]
    for flat in range(weyl_order(sd)):
        yield _element_matrix(sd.rank, groups, np.unravel_index(flat, sizes))


# ---------------------------------------------------------------------------
# disjointness scan
# ---------------------------------------------------------------------------

# Weyl elements per step of the batched scan; the per-step stacks, not the
# group order, set the scan's memory
_SCAN_CHUNK = 1024

# a single type-D factor above this order is scanned by ``_d_line_scan``
_LINE_SCAN_ORDER = 10**5


def _d_line_scan(sd: SplitData, U: Subspace, line: Subspace):
    """Vectorized scan for a single type-D factor: does any Weyl translate of
    the hyperplane-dimensional subspace U contain the line?

    Signed permutations are B-orthogonal, so w(U) contains v iff the permuted
    and signed normal of U is orthogonal to v (integer arithmetic, exact:
    int64 under the bound max|n| max|v| k < 2**63, Python ints past it)."""
    k = sd.rank
    normal_kernel = kernel(U.matrix())
    if len(normal_kernel) != 1:
        raise ValueError("scan needs a corank-one subspace")
    nvec = [int(x) for x in primitive_vector(normal_kernel[0])]
    v = list(line.basis[0])
    bound = max(map(abs, nvec)) * max(map(abs, v)) * k
    dtype = np.int64 if bound < 2**63 else object
    nvec, v = np.array(nvec, dtype=dtype), np.array(v, dtype=dtype)
    group = _FactorGroup(sd.factors[0])
    perms = group.perms
    N = nvec[perms]  # each row: n composed with the permutation
    S = group.signs.astype(dtype)  # (m, k)
    dots = (N * v[None, :]) @ S.T  # (perms, signmasks)
    hits = np.argwhere(dots == 0)
    if hits.size == 0:
        return True, None
    pi, si = hits[0]
    return False, (_signed_perm_matrix(perms[pi], S[si]), fmat([list(v)])[0])


def _matmul_modp(A, B):
    """Broadcast ``A @ B mod p`` for int64 stacks with entries in [0, p),
    reduced after every term, so partial sums stay below p**2 + p < 2**63
    for any inner dimension."""
    out = 0
    for j in range(A.shape[-1]):
        out = (out + A[..., :, j, None] * B[..., None, j, :]) % MODP_PRIME
    return out


def weyl_disjoint(
    sd: SplitData,
    V_h: Subspace,
    V_l: Subspace,
    cutoff: int = DEFAULT_WEYL_CUTOFF,
):
    """Certify that w(V_h) meets V_l only at 0 for every Weyl element w.

    Returns (True, None) or (False, (w, witness_vector)); the witness vector
    lies in w(V_h) and V_l, and w is the first such element in enumeration
    order (``weyl_elements``), except on the type-D line scan with dim V_h
    = 1, which scans V_l against the line and returns the inverse.

    With N an integer basis of ker(V_l) (the vectors orthogonal to V_l),
    rank [w(V_h); V_l] = dim V_l + rank(H w^T N), so w(V_h) meets V_l only
    at 0 iff the dim V_h x dim ker(V_l) projection H w^T N has full row
    rank.  The whole group is scanned in chunks of ``_SCAN_CHUNK``
    elements: each factor contributes its block H_f w_f^T N_f mod p, and one
    batched elimination mod p (``rank_modp``) certifies full rank for every
    element of the chunk (a valid proof of rational full rank).  Only the
    elements that fail mod p are re-checked exactly, in enumeration order."""
    r = sd.rank
    if V_h.ambient_dim != r or V_l.ambient_dim != r:
        raise ValueError("subspaces must live in a-coordinates")
    if V_h.dim == 0 or V_l.dim == 0:
        return True, None
    if V_h.dim + V_l.dim > r:
        inter = intersect(V_h, V_l)
        w0 = np.eye(r, dtype=object).astype(object)
        return False, (w0, inter.basis[0] if inter.dim else None)
    order = weyl_order(sd)
    scan_ready = (
        len(sd.factors) == 1
        and sd.factors[0].root_type == "D"
        and 1 in (V_h.dim, V_l.dim)
        and V_h.dim + V_l.dim == r
    )
    if scan_ready and order > _LINE_SCAN_ORDER:
        if V_l.dim == 1:
            return _d_line_scan(sd, V_h, V_l)
        ok, wit = _d_line_scan(sd, V_l, V_h)
        if wit is not None:
            W, v = wit
            # witness came from the transposed roles; map back through w^-1
            Winv = W.T  # signed permutations are orthogonal
            return False, (Winv, Winv @ v)
        return ok, None
    if order > cutoff:
        raise WeylCutoffError(order, cutoff)
    Hm, Lm = V_h.matrix(), V_l.matrix()
    H = reduce_modp(Hm)
    N = reduce_modp(np.array([list(v) for v in kernel(Lm)])).T
    groups = [_FactorGroup(f) for f in sd.factors]

    def blocks(g, idx):
        # H_f w_f^T N_f mod p for the factor elements idx
        sl = slice(g.factor.offset, g.factor.offset + g.factor.rank)
        HW = _matmul_modp(H[:, sl], g.modp(idx).transpose(0, 2, 1))
        return _matmul_modp(HW, N[sl])

    # factors no larger than a chunk are tabulated once; larger ones are
    # formed chunk by chunk, so memory stays bounded by the chunk
    tables = [
        blocks(g, np.arange(g.size)) if g.size <= _SCAN_CHUNK else None
        for g in groups
    ]
    sizes = [g.size for g in groups]
    for start in range(0, order, _SCAN_CHUNK):
        idx = np.unravel_index(
            np.arange(start, min(start + _SCAN_CHUNK, order)), sizes
        )
        stack = sum(
            t[i] if t is not None else blocks(g, i)
            for g, t, i in zip(groups, tables, idx)
        ) % MODP_PRIME
        for j in np.flatnonzero(~rank_modp(stack, V_h.dim)):
            w = _element_matrix(r, groups, [i[j] for i in idx])
            wh = fmatmul(Hm, w.T)
            if rank(np.vstack([wh, Lm])) == V_h.dim + V_l.dim:
                continue  # full rank over Q, deficient only mod p
            moved = Subspace.from_rows(wh, r)
            return False, (w, intersect(moved, V_l).basis[0])
    return True, None


# ---------------------------------------------------------------------------
# chamber representatives
# ---------------------------------------------------------------------------

def chamber_sort(sd: SplitData, vec):
    """Dominant representative of a split-part vector under the little Weyl
    group, factor by factor.  Works on floats or Fractions."""
    out = list(vec)
    for f in sd.factors:
        seg = out[f.offset : f.offset + f.rank]
        if f.root_type == "G":
            best = None
            for w in _g2_weyl(f.algebra):
                cand = [
                    sum(w[i, j] * Fraction(seg[j]) for j in range(2))
                    for i in range(2)
                ]
                key = tuple(cand)
                if best is None or key > best:
                    best = key
            seg = list(best)
        elif f.root_type == "D":
            mags = sorted((abs(x) for x in seg), reverse=True)
            neg = sum(1 for x in seg if x < 0)
            if neg % 2:
                mags[-1] = -mags[-1]
            seg = mags
        else:
            seg = sorted((abs(x) for x in seg), reverse=True)
        out[f.offset : f.offset + f.rank] = seg
    return out
