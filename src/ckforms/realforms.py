"""Constructors for the real forms used by the catalog: so(p,q), realified
su(p,q) and sp(p,q), and the split g2 as octonion derivations.

Also hosts the real Clifford machinery: gamma matrices as signed tensor words
over {I, X, Z, J}, the symmetric spinor form, and the exact congruence frame
that normalizes a spin representation into a standard so(r,r).  The spin map
sends the rotation generator on coordinates (a,b) to one half the product of
the corresponding gammas.

Everything here is exact integer arithmetic: the bases are int64 matrices
with small entries, and the spin frame runs on Python ints and on
``int_matmul``, which falls back to them past int64.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from math import gcd, isqrt, lcm

import numpy as np

from .exactlin import int_matmul, kernel, primitive_rows, rank
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

# ---------------------------------------------------------------------------
# classical matrix bases
# ---------------------------------------------------------------------------

def so_basis(p: int, q: int):
    """Basis of so(p,q) w.r.t. diag(+1 x p, -1 x q) as int64 matrices:
    rotations E_ab - E_ba on same-sign pairs, boosts E_ab + E_ba on mixed
    pairs, ordered by (a,b) lex."""
    n = p + q
    eta = [1] * p + [-1] * q
    out = []
    for a in range(n):
        for b in range(a + 1, n):
            M = np.zeros((n, n), dtype=np.int64)
            M[a, b] = 1
            M[b, a] = -1 if eta[a] == eta[b] else 1
            out.append(M)
    return out


def complex_to_real(entries, n: int):
    """Realify a complex integer matrix given as {(a,b): (re, im)} to an
    int64 matrix; complex coordinate j occupies real coordinates (2j, 2j+1),
    a+bi -> [[a,-b],[b,a]]."""
    M = np.zeros((2 * n, 2 * n), dtype=np.int64)
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
                out.append({(a, b): (1, 0), (b, a): (-1, 0)})
                out.append({(a, b): (0, 1), (b, a): (0, 1)})
            else:
                out.append({(a, b): (1, 0), (b, a): (1, 0)})
                out.append({(a, b): (0, 1), (b, a): (0, -1)})
    for a in range(n - 1):
        out.append({(a, a): (0, 1), (a + 1, a + 1): (0, -1)})
    return out


def su_real_basis(p: int, q: int):
    """Realified su(p,q)."""
    return [complex_to_real(e, p + q) for e in su_entries(p, q)]


def sp_entries(p: int, q: int):
    """Basis of sp(p,q) as quaternion entry dicts {(a,b): (a,b,c,d)}."""
    n = p + q
    eta = [1] * p + [-1] * q
    one = (1, 0, 0, 0)
    qi = (0, 1, 0, 0)
    qj = (0, 0, 1, 0)
    qk = (0, 0, 0, 1)

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
        dtype=np.int64,
    )


def sp_real_basis_r4(p: int, q: int):
    """Realify sp(p,q) via H -> R^4 (left multiplication); lands inside
    so(4p,4q) w.r.t. the standard diagonal form."""
    n = p + q
    out = []
    for e in sp_entries(p, q):
        M = np.zeros((4 * n, 4 * n), dtype=np.int64)
        for (aa, bb), co in e.items():
            M[4 * aa : 4 * aa + 4, 4 * bb : 4 * bb + 4] += _qmat(co)
        out.append(M)
    return out


# ---------------------------------------------------------------------------
# split g2 as derivations of the split octonions
# ---------------------------------------------------------------------------

def _quat_table():
    """Q[x, y] = e_x e_y for the quaternion units (1, i, j, k)."""
    Q = np.zeros((4, 4, 4), dtype=np.int64)
    Q[0, range(4), range(4)] = 1  # 1 e = e
    Q[1:, 0, 1:] = np.eye(3, dtype=np.int64)  # e 1 = e
    Q[range(1, 4), range(1, 4), 0] = -1  # ii = jj = kk = -1
    for x, y, z in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):  # ij = k, jk = i, ki = j
        Q[x, y, z], Q[y, x, z] = 1, -1
    return Q


def _oct_mul_table():
    """OT[u, v] = e_u e_v for the split octonions as quaternion pairs, units
    0-3 the (e, 0) and 4-7 the (0, e): Cayley-Dickson with unit parameter,
    (a,b)(c,d) = (ac + conj(d) b, da + b conj(c))."""
    Q = _quat_table()
    Qt = Q.transpose(1, 0, 2)  # Qt[x, y] = e_y e_x
    conj = np.array([1, -1, -1, -1])[:, None]  # conj(e_y) = conj[y] e_y
    OT = np.zeros((8, 8, 8), dtype=np.int64)
    OT[:4, :4, :4] = Q  # (a,0)(c,0) = (ac, 0)
    OT[:4, 4:, 4:] = Qt  # (a,0)(0,d) = (0, da)
    OT[4:, :4, 4:] = Q * conj  # (0,b)(c,0) = (0, b conj(c))
    OT[4:, 4:, :4] = Qt * conj  # (0,b)(0,d) = (conj(d) b, 0)
    return OT


_g2_cache = None


def g2_basis():
    """Basis of the split g2: derivations of the split octonions, restricted
    to the imaginary part, ordered so the norm form is diag(+1 x 3, -1 x 4).

    The derivation condition D(e_p e_q) = D(e_p) e_q + e_p D(e_q), p < q,
    on the unknowns D[a, b] is one int64 array of 224 rows (pairs (p, q) in
    lex order, then the component c), whose exact ``kernel`` is the
    algebra.  Imaginary basis order: (i, j, k, il, jl, kl, l)."""
    global _g2_cache
    if _g2_cache is not None:
        return [m.copy() for m in _g2_cache]
    OT = _oct_mul_table()
    I = np.eye(8, dtype=np.int64)
    # R[p, q, c, a, b]: the coefficient of D[a, b] in component c, a sum of
    # three table entries in {-1, 0, 1}, so int64 is exact
    R = (np.einsum("ca,pqb->pqcab", I, OT)
         - np.einsum("bp,aqc->pqcab", I, OT)
         - np.einsum("bq,pac->pqcab", I, OT))
    rows = R[np.triu_indices(8, 1)].reshape(-1, 64)
    ker = primitive_rows(kernel(rows))
    ordr = [1, 2, 3, 5, 6, 7, 4]
    D = ker.astype(np.int64).reshape(-1, 8, 8)[:, ordr][:, :, ordr]
    _g2_cache = list(D)
    return [m.copy() for m in _g2_cache]


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


def gamma_products(gam, p: int, q: int) -> np.ndarray:
    """G_ab = gamma_a gamma_b for a < b in so_basis order, as one int64
    stack.  Every gamma word is a signed permutation matrix, so every
    product is one too: its entries are 0 and +-1, with no int64 bound to
    check.  The spin image of the rotation generator (a, b) is eps/2 G_ab."""
    n = p + q
    return np.array(
        [gam[a] @ gam[b] for a in range(n) for b in range(a + 1, n)]
    )


def symmetric_monomial_form(gam, G):
    """First symmetric gamma-subset product S with x^T S = -S x for all spin
    images x, or None.

    The condition is homogeneous in x, so it is tested on the integer
    products G (``gamma_products``); S and G are signed permutations, so
    the int64 products have entries 0 and +-1."""
    nn = gam[0].shape[0]
    for rr in range(len(gam) + 1):
        for idx in itertools.combinations(range(len(gam)), rr):
            M = np.eye(nn, dtype=np.int64)
            for i in idx:
                M = M @ gam[i]
            if not np.array_equal(M, M.T):
                continue
            if all(not (x.T @ M + M @ x).any() for x in G):
                return M
    return None


# ---------------------------------------------------------------------------
# exact congruence frame for the spin representation
# ---------------------------------------------------------------------------

def _eig_split(space, Y, s):
    """Integer basis of ker(Y - s) within the row span of ``space``
    (Python-int rows): the primitive kernel of the columns Y v - s v, mapped
    back to the space."""
    C = kernel(Y @ space.T - s * space.T)
    return np.array(C, dtype=object).reshape(len(C), len(space)) @ space


@dataclass
class SpinFrame:
    """Normalized spin embedding data for so(p,q) into so(r,r), r = dim/2,
    on integers.

    T / scale congruence-normalizes the spinor form to diag(+1 x r, -1 x r);
    since T^t T is scalar, conjugation by T also intertwines the Cartan
    involutions.  IM / den stacks the normalized so(r,r) images of the
    so_basis(p,q) elements, in that order."""

    p: int
    q: int
    gammas: list
    T: np.ndarray
    scale: int
    den: int
    IM: np.ndarray

    @property
    def half_dim(self) -> int:
        return int(self.T.shape[0]) // 2


def _build_frame_from(gam, eps, S, p, q):
    """(T, scale, den, IM) of ``SpinFrame`` for this ordering of the
    gammas, or None.

    With G_ab = gamma_a gamma_b, the boost image X_i = -eps/2 G_{i,p+i} is
    Y_i / 2 for the integer Y_i = -eps G_{i,p+i}, so its joint +-1/2
    eigenspaces are those of the Y_i for +-1.  Each frame column is
    (v +- S v) / m with m**2 = 2|v|^2, and T = T_int / scale for the lcm
    ``scale`` of the m, so every check runs on T_int: T_int^t S T_int =
    scale**2 eta, T_int^t T_int = c I, each boost image lies in the standard
    split part, and every Z_ab = T_int^t G_ab T_int is eta-antisymmetric.
    The image of (a, b) is +-eps Z_ab / (2c), reduced to lowest terms over
    the whole stack.  Vectors are Python ints and the products run on
    ``int_matmul``; no float enters."""
    n = gam[0].shape[0]
    h, r = n // 2, min(p, q)
    G = gamma_products(gam, p, q)
    pairs = [(a, b) for a in range(p + q) for b in range(a + 1, p + q)]
    boosts = [pairs.index((i, p + i)) for i in range(r)]
    Y = [-eps * G[k].astype(object) for k in boosts]
    weights = [((), np.eye(n, dtype=object))]
    for Yi in Y:
        new = []
        for prefix, space in weights:
            for s in (1, -1):
                sub = _eig_split(space, Yi, s)
                if len(sub):
                    new.append((prefix + (s,), sub))
        weights = new
    if sum(len(space) for _, space in weights) != n:
        return None
    wd = dict(weights)
    pos_cols, neg_cols, norms = [], [], []
    used = set()
    for lam in sorted(wd.keys(), reverse=True):
        if lam in used:
            continue
        mlam = tuple(-x for x in lam)
        if mlam not in wd or mlam == lam:
            return None
        used.update((lam, mlam))
        # Gram-Schmidt on integers: v <- (u.u) v - (v.u) u is a positive
        # multiple of the rational projection, so the primitive rows agree
        vs = []
        for v in wd[lam]:
            for u in vs:
                v = (u @ u) * v - (v @ u) * u
            vs.append(primitive_rows([v])[0])
        for v in vs:
            two_a = 2 * (v @ v)
            m = isqrt(two_a)
            if m * m != two_a:
                return None
            w = S @ v
            pos_cols.append(v + w)
            neg_cols.append(v - w)
            norms.append(m)
    scale = lcm(*norms)
    cols = [scale // m * col for col, m in zip(pos_cols + neg_cols, norms * 2)]
    T = np.array(cols, dtype=object).T
    eta = np.array([1] * h + [-1] * h, dtype=object)
    if not (int_matmul(int_matmul(T.T, S), T) == scale**2 * np.diag(eta)).all():
        return None
    TT = int_matmul(T.T, T)
    c = int(TT[0, 0])
    if not (TT == c * np.eye(n, dtype=object)).all():
        return None
    Z = int_matmul(int_matmul(T.T, G), T)
    arows = np.array([M.reshape(-1) for M in _boost_basis(h, h, 1)])
    for k in boosts:
        if rank(np.vstack([arows, Z[k].reshape(1, -1)])) != h:
            return None
    if (np.swapaxes(Z, 1, 2) * eta + eta[:, None] * Z).any():
        return None
    # so_basis holds E_ab - E_ba (both plus) or E_ab +- E_ba, and eps/2 G_ab
    # represents eta_bb E_ab - eta_aa E_ba: the signs differ unless b < p
    signs = np.array([eps if b < p else -eps for _a, b in pairs])
    IM = signs[:, None, None] * Z
    g = gcd(2 * c, *map(int, IM.flat))
    return T, scale, 2 * c // g, IM // g


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
        S = symmetric_monomial_form(gam0, gamma_products(gam0, p, q))
        if S is None:
            continue
        plus_idx = list(range(p))
        minus_idx = list(range(p, p + q))
        for psel in itertools.permutations(plus_idx, r if p > q else p):
            prest = [i for i in plus_idx if i not in psel]
            for msel in itertools.permutations(minus_idx, r if q > p else q):
                mrest = [i for i in minus_idx if i not in msel]
                order = list(psel) + prest + list(msel) + mrest
                gam = [gam0[i] for i in order]
                res = _build_frame_from(gam, eps, S, p, q)
                if res:
                    frame = SpinFrame(p, q, gam, *res)
                    _frame_cache[key] = frame
                    return frame
    raise ValueError(f"no normalized spin frame found for ({p},{q})")


def spin_embedding(p: int, q: int):
    """Images of the so(p,q) basis (so_basis order) inside standard so(r,r).

    Returns (frame, (den, IM)): image i is IM[i] / den."""
    frame = spin_frame(p, q)
    return frame, (frame.den, frame.IM)


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
    so, 2 for realified su, 4 for realified sp), as int64 matrices."""
    n = width * (p + q)
    out = []
    for i in range(p):
        M = np.zeros((n, n), dtype=np.int64)
        for t in range(width):
            M[width * i + t, width * (p + i) + t] = 1
            M[width * (p + i) + t, width * i + t] = 1
        out.append(M)
    return out


def _g2_split_part():
    """Intersection of g2 with the standard split part of so(3,4), as
    primitive int64 matrices in the order of the kernel."""
    g2 = np.array(g2_basis()).reshape(14, -1)
    astd = np.array(_boost_basis(3, 4, 1)).reshape(3, -1)
    C = np.array(kernel(np.vstack([g2, -astd]).T), dtype=object)[:, :14]
    return list(primitive_rows(C @ g2).astype(np.int64).reshape(-1, 7, 7))


_form_cache = {}


def build_real_form(name: str) -> LieAlgebra:
    """Construct the named real form as an integer matrix Lie algebra with
    its Cartan involution and split-part data attached.

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
    conj = np.diag(eta).astype(object)
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
