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

A product g1 + g2 has the little Weyl group W1 x W2, and the scan is first
reduced by that structure (``weyl_disjoint``): two factorwise sides are
scanned factor by factor, a factorwise side that is 0 or all of one
factor's split part holds that factor at the identity, and the graph of a
map A through which every element of W2 lifts (checked exactly on the
generators) is decided by one W1 scan.  A factor's verdicts are kept on its
split data, and a reduced hit still reports the full scan's witness when
the product group is within the cutoff.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exactlin import (
    MODP_PRIME,
    CoordinateSolver,
    InternalError,
    Subspace,
    echelon_rows,
    embed_block,
    fmat,
    fmatmul,
    fzeros,
    int_matmul,
    intersect,
    kernel,
    primitive_vector,
    rank,
    rank_modp,
    reduce_modp,
    scaled_ints,
    unscaled,
)
from .liealg import LieAlgebra

__all__ = [
    "SplitData",
    "split_data",
    "weyl_order",
    "weyl_elements",
    "signed_permutations",
    "weyl_disjoint",
    "WeylCutoffError",
    "chamber_sort",
]

_F0 = Fraction(0)
_F1 = Fraction(1)

DEFAULT_WEYL_CUTOFF = 10**7


class WeylCutoffError(RuntimeError):
    """Raised when a Weyl scan would enumerate more elements than the cutoff;
    carries that exact number (the little Weyl group's order, or on a
    product scan reduced to one factor, that factor's) so callers can report
    the refusal."""

    def __init__(self, order: int, cutoff: int):
        super().__init__(
            f"a Weyl scan of {order} elements is above the enumeration "
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
    # verdicts of the Weyl scans run on this split data as a product's
    # factor, keyed by the bases of the two subspaces
    verdicts: dict = field(default_factory=dict)

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
        a_basis = g.meta.get("a_basis")
        if not a_basis:
            raise ValueError(f"{g.name}: no split part data attached")
        a_mats = list(unscaled(np.array(a_basis), 1))
        K = g.killing_ints
        cs = list(unscaled(*g.read_coords(np.array(a_basis))))
        G = _gram(cs, K)
        # orthogonalize exactly when needed (the exceptional factor); the
        # classical boost bases are already Killing-orthogonal
        r = len(cs)
        if any(G[i, j] != 0 for i in range(r) for j in range(i + 1, r)):
            for i in range(len(cs)):
                for j in range(i):
                    Gji = _gram([cs[j], cs[i]], K)
                    if Gji[0, 1] != 0:
                        cs[i] = cs[i] - (Gji[0, 1] / Gji[0, 0]) * cs[j]
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


def _factor_order(f: FactorSplit) -> int:
    if f.root_type == "G":
        return 12
    if f.root_type == "D":
        return 2 ** (f.rank - 1) * math.factorial(f.rank)
    return 2**f.rank * math.factorial(f.rank)


def weyl_order(sd: SplitData) -> int:
    return math.prod(map(_factor_order, sd.factors))


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
        M = A.astype(object)
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
    G = _gram([alg.coords(a) for a in alg.meta["a_basis"]], alg.killing_ints)
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
    """Gram matrix of the rational coordinate vectors cs under the integer
    form K, as Fractions."""
    lc, C = scaled_ints(np.array([list(c) for c in cs], dtype=object))
    return unscaled(int_matmul(int_matmul(C, K), C.T), lc * lc)


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
    twelve computed matrices, reduced mod p entrywise (a/b as a * b^-1).
    A factor the scan holds ``fixed`` is its identity alone."""

    def __init__(self, f: FactorSplit, fixed: bool = False):
        self.factor = f
        p = MODP_PRIME
        if fixed or f.root_type == "G":
            self.mats = [_identity(f.rank)] if fixed else _g2_weyl(f.algebra)
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


def signed_permutations(sd: SplitData):
    """Iterate the little Weyl group of a split part without a g2 factor as
    signed permutations of the a-coordinates: pairs (perm, signs) of int
    arrays with (w x)_i = signs[i] * x[perm[i]], in the order of
    ``weyl_elements``.  The default cutoff is checked eagerly, as there."""
    if any(f.root_type == "G" for f in sd.factors):
        raise ValueError("a g2 Weyl group is not made of signed permutations")
    order = weyl_order(sd)
    if order > DEFAULT_WEYL_CUTOFF:
        raise WeylCutoffError(order, DEFAULT_WEYL_CUTOFF)
    # per factor, every (perm, signs) on the ambient coordinates, in the
    # factor's enumeration order; the product runs the last factor fastest
    elements = []
    for f in sd.factors:
        g = _FactorGroup(f)
        elements.append([(f.offset + p, s) for p in g.perms for s in g.signs])
    return (
        tuple(map(np.concatenate, zip(*combo)))
        for combo in itertools.product(*elements)
    )


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
    = 1, which scans V_l against the line and returns the inverse, and on a
    reduced hit above the cutoff (below).

    With N an integer basis of ker(V_l) (the vectors orthogonal to V_l),
    rank [w(V_h); V_l] = dim V_l + rank(H w^T N), so w(V_h) meets V_l only
    at 0 iff the dim V_h x dim ker(V_l) projection H w^T N has full row
    rank.  The whole group is scanned in chunks of ``_SCAN_CHUNK``
    elements: each factor contributes its block H_f w_f^T N_f mod p, and one
    batched elimination mod p (``rank_modp``) certifies full rank for every
    element of the chunk (a valid proof of rational full rank).  Only the
    elements that fail mod p are re-checked exactly, in enumeration order.

    On a product g1 + g2 the group is W1 x W2, and three shapes of the two
    split parts need less than the product scan (a side V is factorwise
    when rank pi1(V) + rank pi2(V) = dim V, that is V = V1 + V2):
      (a) both sides factorwise: w(V_h) meets V_l iff some w_f(V_hf) meets
          V_lf, so each factor is scanned alone, on its own split data;
      (b) one side factorwise with its part 0 or all of a_f on a factor f:
          that side is fixed by W_f, so W_f is held at the identity;
      (c) one side the graph {(A b, b)} of a map A: a2 -> a1 and the other
          V_l1 + V_l2, when every w2 lifts through A (some w1 has w1 A =
          A w2, checked exactly on the generators of W2): a hit is a v in
          W1 with v A(V_l2) meeting V_l1, so one W1 scan decides.
    A reduced scan certifies "disjoint" alone.  On a hit the full scan runs
    when the group order is within the cutoff, so the witness is the same;
    above it, the hit is returned as the reduced element with the identity
    on the other factor.  The cutoff counts the elements of the scan that
    runs, and each factor's verdicts are kept on its split data, so
    triples that share a factor pair share its scan."""
    r = sd.rank
    if V_h.ambient_dim != r or V_l.ambient_dim != r:
        raise ValueError("subspaces must live in a-coordinates")
    return _disjoint(sd, V_h, V_l, cutoff)


def _disjoint(sd, V_h, V_l, cutoff, fixed=frozenset(), memo=None):
    """``weyl_disjoint`` past its argument check.  The factors indexed in
    ``fixed`` are held at the identity; a scan that runs is looked up in,
    and stored to, the dict ``memo`` when one is given."""
    r = sd.rank
    if V_h.dim == 0 or V_l.dim == 0:
        return True, None
    if V_h.dim + V_l.dim > r:
        inter = intersect(V_h, V_l)
        w0 = np.eye(r, dtype=object).astype(object)
        return False, (w0, inter.basis[0] if inter.dim else None)
    if len(sd.factors) == 2 and not fixed:
        got = _reduced(sd, V_h, V_l, cutoff)
        if got is not None and (got[0] or weyl_order(sd) > cutoff):
            return got
        # no reduction, or a hit within the cutoff: the full scan decides
    order = math.prod(
        1 if i in fixed else _factor_order(f) for i, f in enumerate(sd.factors)
    )
    line = (
        len(sd.factors) == 1
        and sd.factors[0].root_type == "D"
        and 1 in (V_h.dim, V_l.dim)
        and V_h.dim + V_l.dim == r
        and order > _LINE_SCAN_ORDER
    )
    if not line and order > cutoff:
        raise WeylCutoffError(order, cutoff)
    key = (_rows_key(V_h), _rows_key(V_l))
    if memo is not None and key in memo:
        return memo[key]
    got = _line_scan(sd, V_h, V_l) if line else _batched_scan(sd, V_h, V_l, fixed)
    if memo is not None:
        memo[key] = got
        if got[0]:  # disjointness is symmetric in the two sides
            memo[key[::-1]] = got
    return got


def _rows_key(V: Subspace):
    return tuple(map(tuple, V.basis))


def _line_scan(sd, V_h, V_l):
    """``_d_line_scan`` with the line on either side."""
    if V_l.dim == 1:
        return _d_line_scan(sd, V_h, V_l)
    ok, wit = _d_line_scan(sd, V_l, V_h)
    if wit is not None:
        W, v = wit
        # witness came from the transposed roles; map back through w^-1
        Winv = W.T  # signed permutations are orthogonal
        return False, (Winv, Winv @ v)
    return ok, None


def _batched_scan(sd, V_h, V_l, fixed):
    r = sd.rank
    Hm, Lm = V_h.matrix(), V_l.matrix()
    H = reduce_modp(Hm)
    N = reduce_modp(np.array([list(v) for v in kernel(Lm)])).T
    groups = [_FactorGroup(f, i in fixed) for i, f in enumerate(sd.factors)]

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
    order = math.prod(sizes)
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
            return False, _witness(sd, V_h, V_l, w)
    return True, None


# ---------------------------------------------------------------------------
# reductions by the product structure
# ---------------------------------------------------------------------------

def _reduced(sd, V_h, V_l, cutoff):
    """The scan of a two-factor product reduced by W = W1 x W2 (shapes (a),
    (b) and (c) of ``weyl_disjoint``): (True, None), (False, (w, v)) with w
    acting as the identity on the factor not scanned, or None when no
    reduction applies."""
    parts = [_factor_parts(sd, V) for V in (V_h, V_l)]
    if None not in parts:  # (a)
        for i, f in enumerate(sd.factors):
            sd_f = split_data(f.algebra)
            ok, wit = _disjoint(
                sd_f, parts[0][i], parts[1][i], cutoff, memo=sd_f.verdicts
            )
            if not ok:
                return False, _witness(sd, V_h, V_l, _on_factor(sd, i, wit[0]))
        return True, None
    F = parts[0] or parts[1]
    if F is None:
        return None
    fixed = frozenset(
        i for i, f in enumerate(sd.factors) if F[i].dim in (0, f.rank)
    )
    if fixed:  # (b)
        return _disjoint(sd, V_h, V_l, cutoff, fixed=fixed)
    A_T = _graph_map(sd, V_l if parts[0] else V_h)
    if A_T is None:
        return None
    # (c): one W1 scan of A(F2) against F1, in the orientation of the sides
    image = _span(int_matmul(F[1].matrix(), A_T), sd.factors[0].rank)
    sd_1 = split_data(sd.factors[0].algebra)
    pair = (F[0], image) if parts[0] else (image, F[0])
    ok, wit = _disjoint(sd_1, *pair, cutoff, memo=sd_1.verdicts)
    if ok:
        return True, None
    return False, _witness(sd, V_h, V_l, _on_factor(sd, 0, wit[0]))


def _span(rows, dim: int) -> Subspace:
    """The row span as a subspace with its canonical (echelon) basis, so
    that equal spans give equal verdict keys."""
    return Subspace(dim, tuple(echelon_rows(np.asarray(rows, dtype=object))))


def _factor_parts(sd, V):
    """[V1, V2] in factor coordinates when V = V1 + V2 (V_f = pi_f(V), and V
    is factorwise iff rank pi1(V) + rank pi2(V) = dim V); else None."""
    M = V.matrix()
    parts = [_span(M[:, f.offset : f.offset + f.rank], f.rank) for f in sd.factors]
    return parts if sum(p.dim for p in parts) == V.dim else None


def _graph_map(sd, V):
    """L * A^T (an integer r2 x r1 array, L > 0) when V is the graph
    {(A b, b) : b in a2} of an injective A and every generator of W2 lifts
    through A; else None.  Only classical factors are tried: no catalog
    graph needs a g2 factor."""
    f1, f2 = sd.factors
    if "G" in (f1.root_type, f2.root_type) or V.dim != f2.rank:
        return None
    M = V.matrix()
    M1, M2 = M[:, : f1.rank], M[:, f2.offset :]
    if rank(M2) != f2.rank:
        return None
    # rows (A b_i, b_i) = (M1[i], M2[i]), so A^T = M2^-1 M1
    N, _L = CoordinateSolver(M2).solve(np.eye(f2.rank, dtype=object))
    A_T = int_matmul(N, M1).astype(object)
    return A_T if rank(A_T) == f2.rank and _lifts(f1, A_T.T, f2) else None


def _lifts(f1: FactorSplit, A, f2: FactorSplit) -> bool:
    """Every generator s of W2 has a u in W1 with u A = A s.

    The rows of u A are the rows of A permuted and signed, so such a u
    exists iff A s has the rows of A up to sign, with multiplicity.  The
    signs are then fixed row by row, up to the zero rows; a type-D u must
    change an even number of signs, and when A has no zero row that number
    is even iff the rows of A and of A s that lead with a negative entry
    are even in number together."""

    def classes(M):
        keys, flips = [], 0
        for row in M:
            t = tuple(row)
            neg = next((x for x in t if x), 0) < 0
            keys.append(tuple(-x for x in t) if neg else t)
            flips += neg
        return sorted(keys), flips

    ref, flips = classes(A)
    free = f1.root_type != "D" or any(not any(row) for row in A)
    for S in _generators(f2):
        got, more = classes(A @ S)
        if got != ref or not (free or (flips + more) % 2 == 0):
            return False
    return True


def _generators(f: FactorSplit):
    """Integer matrices of the simple reflections of a classical factor:
    the adjacent transpositions, and the sign change of the last coordinate
    (for type D, the swap of the last two with both signs changed)."""
    k = f.rank
    gens = []
    for i in range(k - 1):
        S = np.eye(k, dtype=object)
        S[[i, i + 1]] = S[[i + 1, i]]
        gens.append(S)
    if f.root_type != "D":
        S = np.eye(k, dtype=object)
        S[k - 1, k - 1] = -1
        gens.append(S)
    elif k > 1:
        S = -gens[-1]
        S[: k - 2, : k - 2] *= -1
        gens.append(S)
    return gens


def _identity(r: int):
    w = fzeros((r, r))
    np.fill_diagonal(w, _F1)
    return w


def _on_factor(sd, i: int, w_f):
    """The product element acting as w_f on factor i and as the identity on
    the other factor."""
    f = sd.factors[i]
    w = _identity(sd.rank)
    w[f.offset : f.offset + f.rank, f.offset : f.offset + f.rank] = w_f
    return w


def _witness(sd, V_h, V_l, w):
    """(w, v) with v a nonzero vector of w(V_h) and V_l."""
    moved = Subspace.from_rows(fmatmul(V_h.matrix(), w.T), sd.rank)
    inter = intersect(moved, V_l)
    if not inter.dim:
        raise InternalError("rootweyl._witness", "Weyl hit without a witness")
    return w, inter.basis[0]


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
