"""Restricted root data: split parts, little Weyl groups, and the exact
Weyl-orbit disjointness test underlying the properness criterion.

Coordinates on the split part a are coefficients with respect to the standard
boost basis attached by the real form constructors (concatenated over factors
for products).  Weyl elements act on these coordinates: signed permutations
for the classical types (even sign count for type D), and for the split g2
the signed permutations +-P of so(3,4)'s three boost coordinates, read into
g2's orthogonal boost basis.  Every element w is held as an integer matrix W
over one positive den (den 2 on a g2 factor, 1 otherwise), as the boost
stack is; the Fraction matrix W / den is built only for the public values,
the elements of ``weyl_elements`` and the witness of ``weyl_disjoint``.

The disjointness scan projects V_h onto ker(V_l): w(V_h) meets V_l only at 0
iff H w^T N has full row rank (N an integer basis of ker V_l).  The group is
walked in enumeration order, in chunks of about a thousand elements; each
factor adds its block H_f w_f^T N_f mod p, one batched elimination mod p
certifies the whole chunk, and only the elements that fail mod p are
re-checked exactly, so the witness is the first one in enumeration order.

A single type-D factor too large for that walk (D8, 5,160,960 elements)
meets a hyperplane U against a line v in ``_d_line_scan``: w(U) contains v
iff <w n, v> = 0 for the normal n of U, so only the orbit W n is scanned,
the distinct rearrangements of n under every even sign vector.  On a hit
the permutations are walked lazily in enumeration order to the first one
that rearranges n into a hitting row, so the witness is the element the
whole-group scan would return.

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
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .exactlin import (
    MODP_PRIME,
    CoordinateSolver,
    InternalError,
    Subspace,
    echelon_rows,
    int_matmul,
    intersect,
    kernel,
    primitive_rows,
    rank,
    rank_modp,
    reduce_modp,
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
    factors: list
    gram: np.ndarray  # Killing Gram of the a-basis (diagonal, Python ints)
    boosts: tuple  # (den, A): the a-basis as one integer stack A / den
    solver: CoordinateSolver  # coordinates in the flattened rows of A
    # verdicts of the Weyl scans run on this split data as a product's
    # factor, keyed by the bases of the two subspaces
    verdicts: dict = field(default_factory=dict)

    @property
    def rank(self) -> int:
        return len(self.boosts[1])


def split_data(g: LieAlgebra) -> SplitData:
    """Assemble the standard split part of g together with the exact Killing
    Gram of its boost basis; a product places its factors' own (cached)
    integer stacks block by block, over one common denominator."""
    cached = g.meta.get("_split_data")
    if cached is not None:
        return cached
    if len(g.factors) == 2:
        parts = [split_data(alg) for alg, _coff, _boff in g.factors]
        r = sum(sd.rank for sd in parts)
        den = math.lcm(*(sd.boosts[0] for sd in parts))
        A = np.zeros((r, g.n, g.n), dtype=object)
        factors, gram_diag = [], []
        for (alg, _coff, boff), sd in zip(g.factors, parts):
            (f,) = sd.factors
            lo, hi = len(gram_diag), len(gram_diag) + f.rank
            factors.append(FactorSplit(alg, f.root_type, f.rank, lo))
            A[lo:hi, boff : boff + alg.n, boff : boff + alg.n] = (
                sd.boosts[1] * (den // sd.boosts[0])
            )
            gram_diag.extend(np.diagonal(sd.gram))
    else:
        a_basis = g.meta.get("a_basis")
        if not a_basis:
            raise ValueError(f"{g.name}: no split part data attached")
        den, A = 1, np.array(a_basis).astype(object)
        K = g.killing_ints
        C, L = g.read_coords(A)
        if L != 1:  # the Gram below is then not B but L**2 * B
            raise InternalError(
                "rootweyl.split_data", f"{g.name}: boosts off the integer span"
            )
        G = int_matmul(int_matmul(C, K), C.T)
        r = len(C)
        if (G - np.diag(np.diagonal(G))).any():
            # orthogonalize on integers (only g2's boosts need it): B > 0 on
            # the split part, so v <- B(u,u) v - B(v,u) u is a positive
            # multiple of the rational projection
            rows = []
            for v in C.astype(object):
                for u in rows:
                    v = (u @ K @ u) * v - (v @ K @ u) * u
                rows.append(primitive_rows([v])[0])
            C = np.array(rows)
            A = int_matmul(C, g.stack.reshape(g.dim, -1)).reshape(A.shape)
            G = int_matmul(int_matmul(C, K), C.T)
        gram_diag = [int(x) for x in np.diagonal(G)]
        rt = g.meta.get("root_type", "?")
        if rt != "G" and any(s != gram_diag[0] for s in gram_diag):
            raise ValueError(f"{g.name}: boost norms differ")
        factors = [FactorSplit(g, rt, r, 0)]
    gram = np.diag(np.array(gram_diag, dtype=object))
    solver = CoordinateSolver(A.reshape(r, -1))
    sd = SplitData(g, factors, gram, (den, A), solver)
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
# the g2 Weyl group
# ---------------------------------------------------------------------------

def _g2_weyl(f: FactorSplit):
    """(den, W): the 12 elements of W(G2) on the a-coordinates of the g2
    factor f as the integer stack W / den, identity first.

    The split part of g2 in so(3,4) is the plane x1 + x2 + x3 = 0 of the
    three boost coordinates, and W(G2) acts on it as +-P, P a permutation of
    the coordinates (Fulton-Harris, Representation Theory, 22.1-22.3;
    Humphreys, Reflection Groups and Coxeter Groups, 2.10).  The Killing
    form of g2 is a multiple of the dot product of boost coordinates, so the
    rows X of boost coordinates of the Killing-orthogonal a-basis are
    orthogonal, and w[i, j] = <X_i, P X_j> / |X_i|^2.  Over the lcm of the
    norms, reduced by the content of the whole stack, den is 2."""
    _den, A = split_data(f.algebra).boosts
    X = A[:, [0, 1, 2], [3, 4, 5]]  # boost i has entries (i, 3+i), (3+i, i)
    norms = (X * X).sum(axis=1)
    L = math.lcm(*norms)
    W = np.array([s * X @ X[:, perm].T for s in (1, -1)
                  for perm in itertools.permutations(range(3))])
    W *= (L // norms)[:, None]
    c = math.gcd(L, *W.flat)
    return L // c, (W // c).astype(np.int64)


# ---------------------------------------------------------------------------
# element enumeration
# ---------------------------------------------------------------------------

def _signed_perm_matrix(perm, signs):
    """Integer matrix of the signed permutation (perm, signs)."""
    k = len(perm)
    M = np.zeros((k, k), dtype=np.int64)
    M[np.arange(k), perm] = signs
    return M


def _sign_table(f: FactorSplit) -> np.ndarray:
    """The sign vectors of a classical factor in enumeration order (even
    sign count for type D), one int64 row each."""
    return np.array(
        [s for s in itertools.product((1, -1), repeat=f.rank)
         if f.root_type != "D" or s.count(-1) % 2 == 0],
        dtype=np.int64,
    )


class _FactorGroup:
    """The little Weyl group of one factor, indexed in enumeration order:
    mod-p matrices for a batch of indices, the exact matrix for one, each
    element w held as the integer matrix den * w.

    A classical factor of rank k is every permutation times every sign
    vector (even sign count for type D), permutation-major: element
    (perm, signs) is (w x)_i = signs[i] * x[perm[i]], and den is 1.  A g2
    factor is its twelve matrices from ``_g2_weyl``, tabulated mod p as
    W * den^-1.  A factor the scan holds ``fixed`` is its identity alone."""

    def __init__(self, f: FactorSplit, fixed: bool = False):
        self.factor = f
        self.den = 1
        if fixed or f.root_type == "G":
            identity = (1, np.eye(f.rank, dtype=np.int64)[None])
            self.den, self.mats = identity if fixed else _g2_weyl(f)
            self.table = self.mats * pow(self.den, -1, MODP_PRIME) % MODP_PRIME
            self.size = len(self.mats)
            return
        k = f.rank
        self.table = None
        self.perms = np.array(list(itertools.permutations(range(k))), dtype=np.int64)
        self.signs = _sign_table(f)
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
        """The integer matrix den * w of the element e."""
        if self.table is not None:
            return self.mats[e]
        pi, si = divmod(int(e), len(self.signs))
        return _signed_perm_matrix(self.perms[pi], self.signs[si])


def _element_matrix(r: int, groups, idx):
    """(den, W) of the product element with factor indices idx: the integer
    r x r matrix W over den, the lcm of the factors' dens."""
    den = math.lcm(*(g.den for g in groups))
    W = np.zeros((r, r), dtype=np.int64)
    for g, e in zip(groups, idx):
        lo, hi = g.factor.offset, g.factor.offset + g.factor.rank
        W[lo:hi, lo:hi] = g.exact(e) * (den // g.den)
    return den, W


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
        den, W = _element_matrix(sd.rank, groups, np.unravel_index(flat, sizes))
        yield unscaled(W, den)


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


def _rearrangements(n) -> list:
    """The distinct rearrangements of the sequence n, as tuples: a multiset
    of k entries with multiplicities m_j has k! / prod(m_j!) of them."""
    counts = Counter(n)

    def extend(prefix):
        if len(prefix) == len(n):
            yield prefix
            return
        for x, c in counts.items():
            if c:
                counts[x] -= 1
                yield from extend(prefix + (x,))
                counts[x] += 1

    return list(extend(()))


def _d_line_scan(sd: SplitData, U: Subspace, line: Subspace):
    """Scan for a single type-D factor: does any Weyl translate of the
    hyperplane-dimensional subspace U contain the line?

    Signed permutations are B-orthogonal, so w(U) contains v iff <w n, v> = 0
    for the primitive integer normal n of U.  That depends on w only through
    the vector w n, so the scan runs on the orbit W n instead of on W: the
    distinct rearrangements A of n, each under every sign vector of the
    factor, decided by (A o v) S^T = 0 (integer arithmetic, exact: int64
    under the bound max|n| max|v| k < 2**63, Python ints past it).  The
    normal e_k of a D8 scan has 8 rearrangements, so 1,024 products replace
    the 5,160,960 of the group.

    On a hit the witness is the first element of the group in enumeration
    order: the permutations are walked lazily until one rearranges n into a
    hitting row of A, which takes that row's first hitting sign vector."""
    k = sd.rank
    normal_kernel = kernel(U.matrix())
    if len(normal_kernel) != 1:
        raise ValueError("scan needs a corank-one subspace")
    n = tuple(primitive_rows(normal_kernel)[0])
    v = list(line.basis[0])
    bound = max(map(abs, n)) * max(map(abs, v)) * k
    dtype = np.int64 if bound < 2**63 else object
    orbit = _rearrangements(n)
    S = _sign_table(sd.factors[0]).astype(dtype)
    hits = (np.array(orbit, dtype=dtype) * np.array(v, dtype=dtype)) @ S.T == 0
    rows = {orbit[i]: i for i in np.flatnonzero(hits.any(axis=1))}
    if not rows:
        return True, None
    perm = next(
        p for p in itertools.permutations(range(k)) if tuple(n[j] for j in p) in rows
    )
    si = np.argmax(hits[rows[tuple(n[j] for j in perm)]])
    return False, ((1, _signed_perm_matrix(perm, S[si])), line.basis[0])


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
    reduced hit above the cutoff (below).  The scan holds w as an integer
    pair (den, W); the Fraction matrix W / den is built only here.

    A single type-D factor above ``_LINE_SCAN_ORDER`` elements, with one
    side a line and the other a hyperplane, bypasses the cutoff: the line
    scan decides on the orbit of the hyperplane's normal, a few rows for
    the catalog normals instead of the group, and reads a hit's witness as
    the first permutation in enumeration order that reaches a hitting row.

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
    ok, wit = _disjoint(sd, V_h, V_l, cutoff)
    if ok:
        return True, None
    (den, W), v = wit
    return False, (unscaled(W, den), v)


def _disjoint(sd, V_h, V_l, cutoff, fixed=frozenset(), memo=None):
    """``weyl_disjoint`` past its argument check, with a hit's element as
    the pair (den, W) of ``_element_matrix``.  The factors indexed in
    ``fixed`` are held at the identity; a scan that runs is looked up in,
    and stored to, the dict ``memo`` when one is given."""
    r = sd.rank
    if V_h.dim == 0 or V_l.dim == 0:
        return True, None
    if V_h.dim + V_l.dim > r:  # then V_h meets V_l (Grassmann)
        identity = (1, np.eye(r, dtype=np.int64))
        return False, (identity, intersect(V_h, V_l).basis[0])
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
        (den, W), v = wit
        # witness came from the transposed roles; map back through w^-1
        Winv = W.T  # signed permutations are orthogonal
        return False, ((den, Winv), Winv @ v)
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
            wh = int_matmul(Hm, w[1].T)
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


def _on_factor(sd, i: int, w_f):
    """(den, W) of the product element acting as w_f = (den, W_f) on factor
    i and as the identity on the other factor."""
    den, W_f = w_f
    f = sd.factors[i]
    W = den * np.eye(sd.rank, dtype=np.int64)
    W[f.offset : f.offset + f.rank, f.offset : f.offset + f.rank] = W_f
    return den, W


def _witness(sd, V_h, V_l, w):
    """(w, v) with v a nonzero vector of w(V_h) and V_l, for w = (den, W):
    the rows of V_h W^T span w(V_h)."""
    moved = Subspace.from_rows(int_matmul(V_h.matrix(), w[1].T), sd.rank)
    inter = intersect(moved, V_l)
    if not inter.dim:
        raise InternalError("rootweyl._witness", "Weyl hit without a witness")
    return w, inter.basis[0]


# ---------------------------------------------------------------------------
# chamber representatives
# ---------------------------------------------------------------------------

def chamber_sort(sd: SplitData, vec):
    """Dominant representative of a split-part vector under the little Weyl
    group, factor by factor.  Works on floats or Fractions; a g2 factor
    takes the largest image den * w(x) over its integer stack and divides it
    by den."""
    out = list(vec)
    for f in sd.factors:
        seg = out[f.offset : f.offset + f.rank]
        if f.root_type == "G":
            den, W = _g2_weyl(f)
            seg = [x / den for x in max(
                tuple(sum(w[i][j] * seg[j] for j in range(2)) for i in range(2))
                for w in W.tolist()
            )]
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
