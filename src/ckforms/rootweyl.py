"""Restricted root data: split parts, little Weyl groups, and the exact
Weyl-orbit disjointness test underlying the properness criterion.

Coordinates on the split part a are coefficients with respect to the standard
boost basis attached by the real form constructors (concatenated over factors
for products).  Weyl elements act on these coordinates: signed permutations
for the classical types (even sign count for type D), and twelve computed
reflection products for the split g2.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactlin import (
    CoordinateSolver,
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
    gram_scale: Fraction  # B(A_i, A_i), constant on the boost basis


@dataclass
class SplitData:
    algebra: LieAlgebra
    a_matrices: list  # ambient matrices spanning a, factor blocks concatenated
    factors: list
    gram: np.ndarray  # exact Killing Gram of the a-basis (diagonal)

    @property
    def rank(self) -> int:
        return len(self.a_matrices)

    def order(self) -> int:
        return weyl_order(self)


def split_data(g: LieAlgebra) -> SplitData:
    """Assemble the standard split part of g (product-aware) together with
    the exact Killing Gram of its boost basis."""
    cached = g.meta.get("_split_data")
    if cached is not None:
        return cached
    factors = []
    a_mats = []
    gram_diag = []
    coord = 0
    for alg, _coff, boff in g.factors:
        fam_a = list(alg.meta.get("a_basis") or ())
        if not fam_a:
            raise ValueError(f"{alg.name}: no split part data attached")
        K = alg.killing_form
        cs = [alg.coords(A) for A in fam_a]
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
            fam_a = [alg.matrix(c) for c in cs]
            G = _gram(cs, K)
        scales = [G[i, i] for i in range(r)]
        rt = alg.meta.get("root_type", "?")
        if rt != "G" and any(s != scales[0] for s in scales):
            raise ValueError(f"{alg.name}: boost norms differ")
        factors.append(
            FactorSplit(
                alg,
                alg.meta.get("root_type", "?"),
                len(fam_a),
                coord,
                scales[0] if scales else _F0,
            )
        )
        for A in fam_a:
            a_mats.append(embed_block(A, g.n, boff) if boff or alg.n != g.n else A)
        gram_diag.extend(scales)
        coord += len(fam_a)
    r = len(a_mats)
    gram = fzeros((r, r))
    for i, s in enumerate(gram_diag):
        gram[i, i] = s
    sd = SplitData(g, a_mats, factors, gram)
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
        raise ValueError("eigenvalue reconstruction incomplete")
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

def _perms_and_signs(root_type: str, k: int):
    """The little Weyl group of a classical factor of rank k as all
    permutations times all sign vectors (even sign count for type D): each
    pair (perm, signs) is the element (w x)_i = signs[i] * x[perm[i]], and
    the group is enumerated permutation-major."""
    perms = list(itertools.permutations(range(k)))
    signs = [
        s for s in itertools.product((1, -1), repeat=k)
        if root_type != "D" or s.count(-1) % 2 == 0
    ]
    return perms, signs


def _signed_perm_matrix(perm, signs):
    """Exact matrix of the signed permutation (perm, signs)."""
    k = len(perm)
    M = fzeros((k, k))
    for i in range(k):
        M[i, perm[i]] = Fraction(int(signs[i]))
    return M


def _factor_elements(f: FactorSplit):
    """Yield the little Weyl group of one factor as exact k x k matrices."""
    if f.root_type == "G":
        yield from _g2_weyl(f.algebra)
        return
    perms, signs = _perms_and_signs(f.root_type, f.rank)
    for perm, sg in itertools.product(perms, signs):
        yield _signed_perm_matrix(perm, sg)


def _iter_product(makers):
    """Cartesian product of regenerable iterators, fully streaming."""
    if not makers:
        yield ()
        return
    head, rest = makers[0], makers[1:]
    for h in head():
        for tail in _iter_product(rest):
            yield (h,) + tail


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
    r = sd.rank
    facs = sd.factors
    makers = [functools.partial(_factor_elements, f) for f in facs]
    for combo in _iter_product(makers):
        M = fzeros((r, r))
        for f, block in zip(facs, combo):
            M[f.offset : f.offset + f.rank, f.offset : f.offset + f.rank] = block
        yield M


def _classical_perm_signs(sd: SplitData):
    """For split data whose factors are all classical, yield Weyl elements in
    structured form (perm, signs): (w x)_i = signs[i] * x[perm[i]]."""
    r = sd.rank
    makers = [
        functools.partial(
            itertools.product, *_perms_and_signs(f.root_type, f.rank)
        )
        for f in sd.factors
    ]
    for combo in _iter_product(makers):
        perm = np.empty(r, dtype=np.int64)
        signs = np.empty(r, dtype=np.int64)
        for f, (p, s) in zip(sd.factors, combo):
            for i in range(f.rank):
                perm[f.offset + i] = f.offset + p[i]
                signs[f.offset + i] = s[i]
        yield perm, signs


# ---------------------------------------------------------------------------
# disjointness scan
# ---------------------------------------------------------------------------

def _int_rows(sub: Subspace):
    return np.array(
        [[int(x) for x in primitive_vector(v)] for v in sub.basis],
        dtype=np.int64,
    )


def _d_line_scan(sd: SplitData, U: Subspace, line: Subspace):
    """Vectorized scan for a single type-D factor: does any Weyl translate of
    the hyperplane-dimensional subspace U contain the line?

    Signed permutations are B-orthogonal, so w(U) contains v iff the permuted
    and signed normal of U is orthogonal to v (integer arithmetic, exact)."""
    k = sd.rank
    normal_kernel = kernel(U.matrix())
    if len(normal_kernel) != 1:
        raise ValueError("scan needs a corank-one subspace")
    nvec = np.array([int(x) for x in primitive_vector(normal_kernel[0])], dtype=np.int64)
    v = _int_rows(line)[0]
    perm_list, sign_list = _perms_and_signs("D", k)
    perms = np.array(perm_list, dtype=np.int64)
    N = nvec[perms]  # each row: n composed with the permutation
    S = np.array(sign_list, dtype=np.int64)  # (m, k)
    dots = (N * v[None, :]) @ S.T  # (perms, signmasks)
    hits = np.argwhere(dots == 0)
    if hits.size == 0:
        return True, None
    pi, si = hits[0]
    return False, (_signed_perm_matrix(perms[pi], S[si]), fmat([list(v)])[0])


def weyl_disjoint(
    sd: SplitData,
    V_h: Subspace,
    V_l: Subspace,
    cutoff: int = DEFAULT_WEYL_CUTOFF,
):
    """Certify that w(V_h) meets V_l only at 0 for every Weyl element w.

    Returns (True, None) or (False, (w, witness_vector)); the witness vector
    lies in w(V_h) and V_l.  Exact: full-rank claims are certified modulo a
    large prime (a valid proof of rational full rank), shortfalls re-checked
    with exact elimination."""
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
    if scan_ready and order > 10**5:
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
    target = V_h.dim + V_l.dim
    classical = all(f.root_type != "G" for f in sd.factors)
    if classical:
        Hm_int = _int_rows(V_h)
        Lm_int = _int_rows(V_l)
        for perm, signs in _classical_perm_signs(sd):
            # rows of V_h transformed: (w x)_i = s_i x_{perm(i)}
            wh = Hm_int[:, perm] * signs[None, :]
            stacked = np.vstack([wh, Lm_int])
            if rank_modp(stacked, target):
                continue
            moved = Subspace.from_rows(
                [primitive_vector(list(row)) for row in wh], r
            )
            inter = intersect(moved, V_l)
            if inter.dim:
                return False, (_signed_perm_matrix(perm, signs), inter.basis[0])
        return True, None
    Hm = V_h.matrix()
    Lm = V_l.matrix()
    for w in weyl_elements(sd, cutoff):
        wh = Hm @ w.T
        stacked = np.vstack([wh, Lm])
        if rank_modp(reduce_modp(stacked), target):
            continue
        if rank(stacked) == target:
            continue
        moved = Subspace.from_rows([primitive_vector(row) for row in wh], r)
        inter = intersect(moved, V_l)
        if inter.dim:
            return False, (w, inter.basis[0])
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
