"""Integer spin frames against the Fraction frame they replaced.

The reference below is the Fraction construction as it stood before the
frame ran on integers: the spin images ``phi`` as Fraction matrices, the
joint ±1/2 eigenspaces of the boost images by ``kernel`` on Fraction
columns, Gram-Schmidt with Fraction quotients, columns scaled by the
rational square root of 2|v|^2, and every check on Fraction products.
The integer frame must give the same gamma words, the same T (up to its
stored scale) and the same image stack over the same denominator, and it
must refuse the keys the reference refuses.
"""
import itertools
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import numpy as np
import pytest

from ckforms import realforms
from ckforms.embeddings import Embedding, catalog_lookup
from ckforms.exactlin import (
    fmat, fvec, fzeros, kernel, primitive_rows, rank, scaled_ints, unscaled,
)
from ckforms.realforms import clifford_candidates

_F0 = Fraction(0)
_F1 = Fraction(1)
_FH = Fraction(1, 2)


def _primitive_vector(vec):
    """``primitive_rows`` of one vector, as Fractions."""
    return fvec(primitive_rows([list(vec)])[0])


def _fmatmul(A, B):
    """Exact ``A @ B`` for rational arrays, on Python ints scaled by one
    common denominator per factor."""
    (la, na), (lb, nb) = scaled_ints(A), scaled_ints(B)
    return unscaled(na @ nb, la * lb)


# ---------------------------------------------------------------------------
# the Fraction reference
# ---------------------------------------------------------------------------


def _ref_phi(gam, eps, p, q):
    """(a, b) -> eps/2 gamma_a gamma_b as Fraction matrices."""
    return {
        (a, b): fmat(gam[a] @ gam[b]) * Fraction(eps, 2)
        for a in range(p + q) for b in range(a + 1, p + q)
    }


def _ref_symmetric_form(gam, phi):
    spin = [scaled_ints(m)[1].astype(np.int64) for m in phi.values()]
    nn = gam[0].shape[0]
    for rr in range(len(gam) + 1):
        for idx in itertools.combinations(range(len(gam)), rr):
            M = np.eye(nn, dtype=np.int64)
            for i in idx:
                M = M @ gam[i]
            if not np.array_equal(M, M.T):
                continue
            if all(not (x.T @ M + M @ x).any() for x in spin):
                return fmat(M)
    return None


def _ref_eig_split(space, X, lam):
    cols = []
    n = len(space[0])
    for v in space:
        v = np.array(v, dtype=object)
        cols.append(list(X @ v - lam * v))
    out = []
    for c in kernel(np.array(cols, dtype=object).T):
        vec = np.zeros(n, dtype=object)
        for ci, v in zip(c, space):
            vec = vec + ci * np.array(v, dtype=object)
        out.append([Fraction(x) for x in vec])
    return out


def _ref_is_square(x):
    x = Fraction(x)
    return x >= 0 and all(
        isqrt(k) ** 2 == k for k in (x.numerator, x.denominator)
    )


def _ref_sqrt(x):
    x = Fraction(x)
    return Fraction(isqrt(x.numerator), isqrt(x.denominator))


def _ref_boosts(h):
    out = []
    for i in range(h):
        M = fzeros((2 * h, 2 * h))
        M[i, h + i] = M[h + i, i] = _F1
        out.append(M)
    return out


def _ref_build_frame(gam, eps, Smat, p, q):
    """(T, images) for this ordering of the gammas, or None."""
    n = gam[0].shape[0]
    r = min(p, q)
    phi = _ref_phi(gam, eps, p, q)
    X = [-phi[(i, p + i)] for i in range(r)]
    basis0 = [[_F1 if i == j else _F0 for j in range(n)] for i in range(n)]
    weights = [(tuple(), basis0)]
    for Xi in X:
        new = []
        for lam_prefix, segs in weights:
            for lam in (_FH, -_FH):
                sub = _ref_eig_split(segs, Xi, lam)
                if sub:
                    new.append((lam_prefix + (lam,), sub))
        weights = new
    if sum(len(s) for _, s in weights) != n:
        return None
    wd = dict(weights)
    pos_cols, neg_cols = [], []
    used = set()
    for lam in sorted(wd.keys(), reverse=True):
        if lam in used:
            continue
        mlam = tuple(-x for x in lam)
        if mlam not in wd or mlam == lam:
            return None
        used.update((lam, mlam))
        vs = []
        for v in wd[lam]:
            v = np.array(v, dtype=object)
            for u in vs:
                v = v - (v @ u) / (u @ u) * u
            vs.append(v)
        for v in vs:
            v = np.array(_primitive_vector(list(v)), dtype=object)
            a = v @ v
            if not _ref_is_square(2 * a):
                return None
            w = Smat @ v
            alpha = _F1 / _ref_sqrt(2 * a)
            pos_cols.append(alpha * (v + w))
            neg_cols.append(alpha * (v - w))
    T = np.array(pos_cols + neg_cols, dtype=object).T
    eta_t = np.diag([_F1] * (n // 2) + [-_F1] * (n // 2)).astype(object)
    if not (_fmatmul(_fmatmul(T.T, Smat), T) == eta_t).all():
        return None
    TTt = _fmatmul(T.T, T)
    c = TTt[0, 0]
    if not (TTt == c * np.eye(n, dtype=object)).all():
        return None
    Tinv = T.T / c
    arows = [list(M.reshape(-1)) for M in _ref_boosts(n // 2)]
    for i in range(r):
        XT = _fmatmul(_fmatmul(Tinv, X[i]), T)
        if rank(np.array(arows + [list(XT.reshape(-1))], dtype=object)) != n // 2:
            return None
    images = []
    for (a, b), M in phi.items():
        Y = _fmatmul(_fmatmul(Tinv, M), T)
        if not ((_fmatmul(Y.T, eta_t) + _fmatmul(eta_t, Y)) == 0).all():
            return None
        images.append(Y if b < p else -Y)
    return T, images


@lru_cache(maxsize=None)
def ref_spin_frame(p, q):
    """(gammas, T, images) of the first ordering that builds, or None."""
    r = min(p, q)
    for gam0, eps in clifford_candidates(p, q):
        Smat = _ref_symmetric_form(gam0, _ref_phi(gam0, eps, p, q))
        if Smat is None:
            continue
        plus_idx, minus_idx = list(range(p)), list(range(p, p + q))
        for psel in itertools.permutations(plus_idx, r if p > q else p):
            prest = [i for i in plus_idx if i not in psel]
            for msel in itertools.permutations(minus_idx, r if q > p else q):
                mrest = [i for i in minus_idx if i not in msel]
                gam = [gam0[i] for i in list(psel) + prest + list(msel) + mrest]
                res = _ref_build_frame(gam, eps, Smat, p, q)
                if res:
                    return (gam, *res)
    return None


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------

# every (p, q) with p <= q (the orientation the catalog builds), 3 <= p + q
# <= 9 and a boost whose reference frame builds in under 0.5 s, the catalog
# keys (1,4), (3,4) and (1,8) among them, and three cheap keys with p > q;
# (2,6), (2,7) and (3,6) take 1.4-5.7 s in the reference
_BUILT = [
    (1, 2), (1, 3), (1, 4), (2, 3), (1, 5), (2, 4), (3, 3), (1, 6), (2, 5),
    (3, 4), (1, 7), (3, 5), (4, 4), (1, 8), (4, 5), (2, 1), (3, 1), (4, 3),
]


@pytest.mark.parametrize("pq", _BUILT)
def test_integer_frames_equal_the_fraction_frames(pq):
    gam, T, images = ref_spin_frame(*pq)
    frame = realforms.spin_frame(*pq)
    assert len(frame.gammas) == len(gam)
    assert all(np.array_equal(a, b) for a, b in zip(frame.gammas, gam))
    assert all(type(x) is int for x in frame.T.flat)
    assert (unscaled(frame.T, frame.scale) == T).all()
    den, IM = scaled_ints(np.array(images, dtype=object))
    assert frame.den == den and np.array_equal(frame.IM, IM)
    got_den, got_IM = realforms.spin_embedding(*pq)[1]
    assert got_den == den and got_IM is frame.IM


def test_keys_the_reference_refuses_stay_refused():
    assert ref_spin_frame(2, 2) is None
    with pytest.raises(ValueError, match=r"no normalized spin frame found for \(2,2\)"):
        realforms.spin_frame(2, 2)


@pytest.mark.parametrize(
    "key", ["so(4,4):so(3,4):spin", "so(8,8):so(1,8):spin"]
)
def test_catalog_spin_stacks_equal_the_fraction_reference(key):
    emb = catalog_lookup(key)
    src = emb.source
    _gam, _T, images = ref_spin_frame(src.meta["p"], src.meta["q"])
    ref = Embedding(key, src, emb.target, images)
    assert emb.den == ref.den and np.array_equal(emb.IM, ref.IM)
