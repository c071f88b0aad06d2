"""Constructors for the real forms used by the catalog: so(p,q), realified
su(p,q) and sp(p,q), and the split g2 as octonion derivations.

Also hosts the real Clifford machinery: gamma matrices as signed tensor words
over {I, X, Z, J}, the symmetric spinor form, and the exact congruence frame
that normalizes a spin representation into a standard so(r,r).  The spin map
sends the rotation generator on coordinates (a,b) to one half the product of
the corresponding gammas.

Everything here is exact rational arithmetic.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactlin import (
    fmat,
    fmatmul,
    fzeros,
    is_rational_square,
    kernel,
    primitive_vector,
    rank,
    rational_sqrt,
    scaled_ints,
)
from .liealg import LieAlgebra

__all__ = [
    "build_real_form",
    "spin_embedding",
    "SpinFrame",
    "parse_form_name",
    "so_basis",
    "su_real_basis",
    "sp_real_basis_c2",
    "sp_real_basis_r4",
    "sp_entries",
    "g2_basis",
]

_F0 = Fraction(0)
_F1 = Fraction(1)
_FH = Fraction(1, 2)


# ---------------------------------------------------------------------------
# classical matrix bases
# ---------------------------------------------------------------------------

def so_basis(p: int, q: int):
    """Basis of so(p,q) w.r.t. diag(+1 x p, -1 x q): rotations E_ab - E_ba on
    same-sign pairs, boosts E_ab + E_ba on mixed pairs, ordered by (a,b) lex."""
    n = p + q
    eta = [1] * p + [-1] * q
    out = []
    for a in range(n):
        for b in range(a + 1, n):
            M = fzeros((n, n))
            if eta[a] == eta[b]:
                M[a, b] = _F1
                M[b, a] = -_F1
            else:
                M[a, b] = _F1
                M[b, a] = _F1
            out.append(M)
    return out


def complex_to_real(entries, n: int):
    """Realify a complex matrix given as {(a,b): (re, im)}; complex coordinate
    j occupies real coordinates (2j, 2j+1), a+bi -> [[a,-b],[b,a]]."""
    M = fzeros((2 * n, 2 * n))
    for (a, b), (re, im) in entries.items():
        M[2 * a, 2 * b] += re
        M[2 * a, 2 * b + 1] += -im
        M[2 * a + 1, 2 * b] += im
        M[2 * a + 1, 2 * b + 1] += re
    return M


def su_entries(p: int, q: int):
    """Basis of su(p,q) as complex entry dicts {(a,b): (re, im)}."""
    n = p + q
    eta = [1] * p + [-1] * q
    out = []
    for a in range(n):
        for b in range(a + 1, n):
            if eta[a] == eta[b]:
                out.append({(a, b): (_F1, _F0), (b, a): (-_F1, _F0)})
                out.append({(a, b): (_F0, _F1), (b, a): (_F0, _F1)})
            else:
                out.append({(a, b): (_F1, _F0), (b, a): (_F1, _F0)})
                out.append({(a, b): (_F0, _F1), (b, a): (_F0, -_F1)})
    for a in range(n - 1):
        out.append({(a, a): (_F0, _F1), (a + 1, a + 1): (_F0, -_F1)})
    return out


def su_real_basis(p: int, q: int):
    """Realified su(p,q)."""
    return [complex_to_real(e, p + q) for e in su_entries(p, q)]


def sp_entries(p: int, q: int):
    """Basis of sp(p,q) as quaternion entry dicts {(a,b): (a,b,c,d)}."""
    n = p + q
    eta = [1] * p + [-1] * q
    one = (_F1, _F0, _F0, _F0)
    qi = (_F0, _F1, _F0, _F0)
    qj = (_F0, _F0, _F1, _F0)
    qk = (_F0, _F0, _F0, _F1)

    def neg(u):
        return tuple(-x for x in u)

    out = []
    for a in range(n):
        for b in range(a + 1, n):
            if eta[a] == eta[b]:
                out.append({(a, b): one, (b, a): neg(one)})
                for u in (qi, qj, qk):
                    out.append({(a, b): u, (b, a): u})
            else:
                out.append({(a, b): one, (b, a): one})
                for u in (qi, qj, qk):
                    out.append({(a, b): u, (b, a): neg(u)})
    for a in range(n):
        for u in (qi, qj, qk):
            out.append({(a, a): u})
    return out


def _quat_entry_to_complex(co):
    a, b, c, d = co
    return {(0, 0): (a, b), (0, 1): (c, d), (1, 0): (-c, d), (1, 1): (a, -b)}


def sp_real_basis_c2(p: int, q: int):
    """Realify sp(p,q) via H -> C^2 (quaternionic coordinate a becomes complex
    coordinates 2a, 2a+1), then C -> R.  Lands inside realified su(2p,2q)."""
    n = p + q
    out = []
    for e in sp_entries(p, q):
        ce = {}
        for (a, b), co in e.items():
            for (u, v), val in _quat_entry_to_complex(co).items():
                key = (2 * a + u, 2 * b + v)
                if key in ce:
                    re, im = ce[key]
                    ce[key] = (re + val[0], im + val[1])
                else:
                    ce[key] = val
        out.append(complex_to_real(ce, 2 * n))
    return out


def _qmat(co):
    a, b, c, d = co
    return np.array(
        [
            [a, -b, -c, -d],
            [b, a, -d, c],
            [c, d, a, -b],
            [d, -c, b, a],
        ],
        dtype=object,
    )


def sp_real_basis_r4(p: int, q: int):
    """Realify sp(p,q) via H -> R^4 (left multiplication); lands inside
    so(4p,4q) w.r.t. the standard diagonal form."""
    n = p + q
    out = []
    for e in sp_entries(p, q):
        M = fzeros((4 * n, 4 * n))
        for (aa, bb), co in e.items():
            Q = _qmat(co)
            for u in range(4):
                for v in range(4):
                    M[4 * aa + u, 4 * bb + v] += Q[u, v]
        out.append(M)
    return out


# ---------------------------------------------------------------------------
# split g2 as derivations of the split octonions
# ---------------------------------------------------------------------------

_QI = {"1": 0, "i": 1, "j": 2, "k": 3}


def _quat_table():
    T = {}
    mul = {
        ("1", "1"): ("1", 1), ("1", "i"): ("i", 1), ("1", "j"): ("j", 1),
        ("1", "k"): ("k", 1), ("i", "1"): ("i", 1), ("j", "1"): ("j", 1),
        ("k", "1"): ("k", 1), ("i", "i"): ("1", -1), ("j", "j"): ("1", -1),
        ("k", "k"): ("1", -1), ("i", "j"): ("k", 1), ("j", "i"): ("k", -1),
        ("j", "k"): ("i", 1), ("k", "j"): ("i", -1), ("k", "i"): ("j", 1),
        ("i", "k"): ("j", -1),
    }
    for (a, b), (c, s) in mul.items():
        T[(_QI[a], _QI[b])] = (_QI[c], s)
    return T


_QT = _quat_table()


def _quat_mul(a, b):
    out = np.zeros(4, dtype=np.int64)
    for x in range(4):
        if not a[x]:
            continue
        for y in range(4):
            if not b[y]:
                continue
            c, s = _QT[(x, y)]
            out[c] += s * a[x] * b[y]
    return out


def _quat_conj(a):
    out = a.copy()
    out[1:] = -out[1:]
    return out


def _oct_mul_table():
    # split octonions as quaternion pairs, Cayley-Dickson with unit parameter:
    # (a,b)(c,d) = (ac + conj(d) b, d a + b conj(c))
    OT = np.zeros((8, 8, 8), dtype=np.int64)
    for u in range(8):
        for v in range(8):
            a = np.zeros(4, dtype=np.int64)
            b = np.zeros(4, dtype=np.int64)
            c = np.zeros(4, dtype=np.int64)
            d = np.zeros(4, dtype=np.int64)
            (a if u < 4 else b)[u % 4] = 1
            (c if v < 4 else d)[v % 4] = 1
            first = _quat_mul(a, c) + _quat_mul(_quat_conj(d), b)
            second = _quat_mul(d, a) + _quat_mul(b, _quat_conj(c))
            OT[u, v, :4] = first
            OT[u, v, 4:] = second
    return OT


_g2_cache = None


def g2_basis():
    """Basis of the split g2: derivations of the split octonions, restricted
    to the imaginary part, ordered so the norm form is diag(+1 x 3, -1 x 4).

    Imaginary basis order: (i, j, k, il, jl, kl, l)."""
    global _g2_cache
    if _g2_cache is not None:
        return [m.copy() for m in _g2_cache]
    OT = _oct_mul_table()
    rows = []
    # derivation condition D(e_p e_q) = D(e_p) e_q + e_p D(e_q), unknowns D[c,r]
    for p in range(8):
        for q in range(p + 1, 8):
            for c in range(8):
                row = np.zeros(64, dtype=np.int64)
                for r in range(8):
                    row[c * 8 + r] += OT[p, q, r]
                    row[r * 8 + p] -= OT[r, q, c]
                    row[r * 8 + q] -= OT[p, r, c]
                rows.append(row)
    ker = kernel(np.array(rows, dtype=object))
    ordr = [1, 2, 3, 5, 6, 7, 4]
    out = []
    for v in ker:
        v = primitive_vector(v)
        D = np.array(v, dtype=object).reshape(8, 8)
        D7 = np.empty((7, 7), dtype=object)
        for a in range(7):
            for b in range(7):
                D7[a, b] = D[ordr[a], ordr[b]]
        out.append(D7)
    _g2_cache = [m.copy() for m in out]
    return out


# ---------------------------------------------------------------------------
# gamma matrices as tensor words
# ---------------------------------------------------------------------------

_I2 = np.array([[1, 0], [0, 1]], dtype=np.int64)
_X = np.array([[0, 1], [1, 0]], dtype=np.int64)
_Z = np.array([[1, 0], [0, -1]], dtype=np.int64)
_J = np.array([[0, 1], [-1, 0]], dtype=np.int64)
_LETTERS = {"I": _I2, "X": _X, "Z": _Z, "J": _J}
_ANTI = {
    ("X", "Z"), ("Z", "X"), ("X", "J"), ("J", "X"), ("Z", "J"), ("J", "Z"),
}


def word_matrix(word: str):
    if word == "":
        return np.array([[1]], dtype=np.int64)
    m = _LETTERS[word[0]]
    for c in word[1:]:
        m = np.kron(m, _LETTERS[c])
    return m


def word_square(word: str) -> int:
    return -1 if sum(c == "J" for c in word) % 2 else 1


def words_anticommute(w1: str, w2: str) -> bool:
    n = sum((a, b) in _ANTI for a, b in zip(w1, w2))
    return n % 2 == 1


def search_gammas(p: int, q: int, k: int):
    """First (lexicographic) family of p+q pairwise anticommuting tensor words
    on k slots with squares +1 x p then -1 x q, or None."""
    words = ["".join(w) for w in itertools.product("IXZJ", repeat=k)]
    plus = [w for w in words if word_square(w) == 1]
    minus = [w for w in words if word_square(w) == -1]
    sig = [1] * p + [-1] * q
    chosen = []

    def ok(w):
        return all(words_anticommute(w, c) for c in chosen)

    def rec(i):
        if i == len(sig):
            return True
        pool = plus if sig[i] == 1 else minus
        for w in pool:
            if (
                chosen
                and pool is (plus if sig[i - 1] == 1 else minus)
                and w <= chosen[-1]
            ):
                continue  # same-square words in increasing order only
            if ok(w):
                chosen.append(w)
                if rec(i + 1):
                    return True
                chosen.pop()
        return False

    if rec(0):
        return list(chosen)
    return None


# (p - q) mod 8 -> 2 * clifford_module_k(p, q) - (p + q)
_CLIFFORD_PERIOD = (0, -1, 0, 1, 2, 1, 2, 1)


def clifford_module_k(p: int, q: int) -> int:
    """Smallest k for which Cl(p, q), with p generators squaring to +1 and q
    to -1, has a real module of dimension 2**k.

    By (p - q) mod 8, Cl(p, q) is a full matrix algebra over R (0, 2), a sum
    of two over R (1), over C (3, 7), over H (4, 6) or a sum of two over H
    (5) (Lawson-Michelsohn, Spin Geometry, I.4); its smallest real module
    has dimension 2**k with 2k - (p + q) given by ``_CLIFFORD_PERIOD``, and
    every module is a sum of those."""
    return (p + q + _CLIFFORD_PERIOD[(p - q) % 8]) // 2


def clifford_candidates(p: int, q: int, kmax: int = 6):
    """Yield (gammas, eta_sign), smallest representation first.

    eta_sign=+1 means gamma_i^2 = eta_ii; eta_sign=-1 means the generators
    realize the negated form (valid since so(eta) = so(-eta)).  A word
    search runs only for k at least ``clifford_module_k``: below it no
    module exists and the exhaustive search would only fail, slowly."""
    if p + q == 1:
        yield [np.array([[1]], dtype=np.int64)], (1 if p == 1 else -1)
        return
    for k in range(1, kmax + 1):
        words = k >= clifford_module_k(p, q) and search_gammas(p, q, k)
        if words:
            yield [word_matrix(w) for w in words], 1
        words = k >= clifford_module_k(q, p) and search_gammas(q, p, k)
        if words:
            yield [word_matrix(w) for w in words[q:] + words[:q]], -1


def make_phi(gam, eps: int, p: int, q: int):
    """Spin images of the rotation generators: (a,b) -> eps/2 gamma_a gamma_b."""
    phi = {}
    for a in range(p + q):
        for b in range(a + 1, p + q):
            phi[(a, b)] = fmat(gam[a] @ gam[b]) * Fraction(eps, 2)
    return phi


def symmetric_monomial_form(gam, phi):
    """First symmetric gamma-subset product S with x^T S = -S x for all spin
    images x, or None.

    The condition is homogeneous in x, so each image is scaled to integers
    and the test runs in int64 (entries stay below nn * max|x|)."""
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


# ---------------------------------------------------------------------------
# exact congruence frame for the spin representation
# ---------------------------------------------------------------------------

def _eig_split(space, X, lam):
    """Basis of ker(X - lam) intersected with span(space), exact."""
    cols = []
    n = len(space[0])
    for v in space:
        v = np.array(v, dtype=object)
        w = X @ v - lam * v
        cols.append(list(w))
    A = np.array(cols, dtype=object).T
    out = []
    for c in kernel(A):
        vec = np.zeros(n, dtype=object)
        for ci, v in zip(c, space):
            vec = vec + ci * np.array(v, dtype=object)
        out.append([Fraction(x) for x in vec])
    return out


@dataclass
class SpinFrame:
    """Normalized spin embedding data for so(p,q) into so(r,r), r = dim/2.

    T congruence-normalizes the spinor form to diag(+1 x r, -1 x r); since
    T^t T is scalar, conjugation by T also intertwines the Cartan involutions.
    phi maps generator coordinates (a,b) to pre-frame spin matrices; use
    image(a,b) for the normalized so(r,r) matrices.
    """

    p: int
    q: int
    T: np.ndarray
    Tinv: np.ndarray
    phi: dict
    gammas: list

    @property
    def half_dim(self) -> int:
        return int(self.T.shape[0]) // 2

    def image(self, a: int, b: int) -> np.ndarray:
        if a > b:
            return -self.image(b, a)
        M = fmatmul(fmatmul(self.Tinv, self.phi[(a, b)]), self.T)
        # phi represents eta_bb E_ab - eta_aa E_ba; the standard basis element
        # (E_ab - E_ba or E_ab + E_ba) differs by a sign unless a, b are both
        # plus coordinates
        return M if b < self.p else -M

    def all_images(self):
        n = self.p + self.q
        return [
            self.image(a, b) for a in range(n) for b in range(a + 1, n)
        ]


def _build_frame_from(gam, eps, Smat, p, q):
    """(T, Tinv, phi) for this ordering of the gammas, or None."""
    n = gam[0].shape[0]
    r = min(p, q)
    phi = make_phi(gam, eps, p, q)
    X = [-phi[(i, p + i)] for i in range(r)]
    basis0 = [[_F1 if i == j else _F0 for j in range(n)] for i in range(n)]
    weights = [(tuple(), basis0)]
    for Xi in X:
        Xi = np.array(Xi, dtype=object)
        new = []
        for lam_prefix, segs in weights:
            for lam in (_FH, -_FH):
                sub = _eig_split(segs, Xi, lam)
                if sub:
                    new.append((lam_prefix + (lam,), sub))
        weights = new
    if sum(len(s) for _, s in weights) != n:
        return None
    wd = {lam: segs for lam, segs in weights}
    pos_cols, neg_cols = [], []
    used = set()
    for lam in sorted(wd.keys(), reverse=True):
        if lam in used:
            continue
        mlam = tuple(-x for x in lam)
        if mlam not in wd or mlam == lam:
            return None
        used.add(lam)
        used.add(mlam)
        vs = []
        for v in wd[lam]:
            v = np.array(v, dtype=object)
            for u in vs:
                v = v - (v @ u) / (u @ u) * u
            vs.append(v)
        for v in vs:
            v = np.array(primitive_vector(list(v)), dtype=object)
            a = v @ v
            if not is_rational_square(2 * a):
                return None
            w = Smat @ v
            alpha = _F1 / rational_sqrt(2 * a)
            pos_cols.append(alpha * (v + w))
            neg_cols.append(alpha * (v - w))
    T = np.array(pos_cols + neg_cols, dtype=object).T
    eta_t = np.diag([_F1] * (n // 2) + [-_F1] * (n // 2)).astype(object)
    if not (fmatmul(fmatmul(T.T, Smat), T) == eta_t).all():
        return None
    TTt = fmatmul(T.T, T)
    c = TTt[0, 0]
    if not (TTt == c * np.eye(n, dtype=object)).all():
        return None
    Tinv = T.T / c
    arows = [list(M.reshape(-1)) for M in _boost_basis(n // 2, n // 2, 1)]
    for i in range(r):
        XT = fmatmul(fmatmul(Tinv, X[i]), T)
        if rank(np.array(arows + [list(XT.reshape(-1))], dtype=object)) != n // 2:
            return None
    for M in phi.values():
        Y = fmatmul(fmatmul(Tinv, M), T)
        if not ((fmatmul(Y.T, eta_t) + fmatmul(eta_t, Y)) == 0).all():
            return None
    return T, Tinv, phi


_frame_cache = {}


def spin_frame(p: int, q: int) -> SpinFrame:
    """Exact normalized spin embedding frame for so(p,q); deterministic first
    success over gamma candidates and boost assignments."""
    key = (p, q)
    if key in _frame_cache:
        return _frame_cache[key]
    r = min(p, q)
    if r < 1 or p + q < 3:
        raise ValueError(f"spin frame needs a boost and dim >= 3, got ({p},{q})")
    for gam0, eps in clifford_candidates(p, q):
        phi0 = make_phi(gam0, eps, p, q)
        Smat = symmetric_monomial_form(gam0, phi0)
        if Smat is None:
            continue
        plus_idx = list(range(p))
        minus_idx = list(range(p, p + q))
        for psel in itertools.permutations(plus_idx, r if p > q else p):
            prest = [i for i in plus_idx if i not in psel]
            for msel in itertools.permutations(minus_idx, r if q > p else q):
                mrest = [i for i in minus_idx if i not in msel]
                order = list(psel) + prest + list(msel) + mrest
                gam = [gam0[i] for i in order]
                res = _build_frame_from(gam, eps, Smat, p, q)
                if res:
                    frame = SpinFrame(p, q, *res, gam)
                    _frame_cache[key] = frame
                    return frame
    raise ValueError(f"no normalized spin frame found for ({p},{q})")


def spin_embedding(p: int, q: int):
    """Images of the so(p,q) basis (so_basis order) inside standard so(r,r).

    Returns (frame, images); images[i] corresponds to so_basis(p,q)[i]."""
    frame = spin_frame(p, q)
    return frame, frame.all_images()


# ---------------------------------------------------------------------------
# algebra construction
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"^(so|su|sp|g2)\((\d+)(?:,(\d+))?\)$")


def parse_form_name(name: str):
    """Parse 'so(p,q)', 'su(p,q)', 'sp(p,q)', 'g2(2)' into (family, p, q),
    normalized to p <= q.  Raises ValueError on anything else."""
    s = name.replace(" ", "")
    m = _NAME_RE.match(s)
    if not m:
        raise ValueError(f"unrecognized real form name: {name!r}")
    fam = m.group(1)
    if fam == "g2":
        if m.group(2) != "2" or m.group(3) is not None:
            raise ValueError(f"the split g2 is written g2(2), got {name!r}")
        return ("g2", 2, 2)
    if m.group(3) is None:
        raise ValueError(f"{fam} needs a signature (p,q), got {name!r}")
    p, q = int(m.group(2)), int(m.group(3))
    if p > q:
        p, q = q, p
    if p + q < 2 or (fam == "so" and p + q < 3):
        raise ValueError(f"{name!r} is not semisimple")
    return (fam, p, q)


def canonical_name(family: str, p: int, q: int) -> str:
    return "g2(2)" if family == "g2" else f"{family}({p},{q})"


def _root_type(family: str, p: int, q: int) -> str:
    if family == "so":
        return "D" if p == q else "B"
    if family in ("su", "sp"):
        return "C" if p == q else "BC"
    return "G"


def _boost_basis(p, q, width):
    """Symmetric boosts pairing plus-coordinate i with minus-coordinate i,
    i < p, where each coordinate is a block of ``width`` real ones (1 for
    so, 2 for realified su, 4 for realified sp)."""
    n = width * (p + q)
    out = []
    for i in range(p):
        M = fzeros((n, n))
        for t in range(width):
            M[width * i + t, width * (p + i) + t] = _F1
            M[width * (p + i) + t, width * i + t] = _F1
        out.append(M)
    return out


def _g2_split_part():
    """Intersection of g2 with the standard split part of so(3,4)."""
    g2 = g2_basis()
    astd = _boost_basis(3, 4, 1)
    rows_h = [list(M.reshape(-1)) for M in g2]
    rows_l = [[-x for x in M.reshape(-1)] for M in astd]
    A = np.array(rows_h + rows_l, dtype=object).T
    out = []
    for c in kernel(A):
        M = fzeros((7, 7))
        for ci, B in zip(c[: len(g2)], g2):
            if ci != 0:
                M = M + ci * B
        out.append(M)
    # primitive integer representatives, deterministic order
    prim = []
    for M in out:
        v = primitive_vector(list(M.reshape(-1)))
        prim.append(np.array(v, dtype=object).reshape(7, 7))
    return prim


_form_cache = {}


def build_real_form(name: str) -> LieAlgebra:
    """Construct the named real form as a rational matrix Lie algebra with its
    Cartan involution and split-part data attached.

    Realification conventions: complex coordinate j occupies real coordinates
    (2j, 2j+1); quaternionic coordinate a occupies (4a..4a+3) via left
    multiplication.  The split part is spanned by the standard symmetric
    boost matrices pairing plus-coordinate i with minus-coordinate i.
    """
    fam, p, q = parse_form_name(name)
    key = canonical_name(fam, p, q)
    if key in _form_cache:
        return _form_cache[key]
    if fam == "so":
        basis = so_basis(p, q)
        eta = [1] * p + [-1] * q
        a_basis = _boost_basis(p, q, 1)
        rank_r = p
    elif fam == "su":
        basis = su_real_basis(p, q)
        eta = [1] * (2 * p) + [-1] * (2 * q)
        a_basis = _boost_basis(p, q, 2)
        rank_r = p
    elif fam == "sp":
        basis = sp_real_basis_r4(p, q)
        eta = [1] * (4 * p) + [-1] * (4 * q)
        a_basis = _boost_basis(p, q, 4)
        rank_r = p
    else:
        basis = g2_basis()
        eta = [1] * 3 + [-1] * 4
        a_basis = _g2_split_part()
        rank_r = 2
    conj = np.diag([Fraction(x) for x in eta]).astype(object)
    meta = {
        "family": fam,
        "p": p,
        "q": q,
        "real_rank": rank_r,
        "root_type": _root_type(fam, p, q),
        "a_basis": a_basis,
    }
    alg = LieAlgebra(key, basis, conj, meta)
    _form_cache[key] = alg
    return alg
