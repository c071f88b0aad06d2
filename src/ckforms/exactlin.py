"""Exact rational linear algebra: ranks, kernels, subspace intersections and
signatures of symmetric forms.

Matrices are 2-D numpy arrays with ``fractions.Fraction`` entries (dtype
object).  Every verdict-facing computation here is tolerance-free; floating
point never enters this module.  Elimination and products run on Python ints
after scaling by common denominators (``scaled_ints``).

The mod-p rank certificate has one eliminator, ``rank_modp``, which takes an
int64 array.  ``rank_at_least_modp`` accepts any rational matrix: it scales
each row to integers and reduces the entries mod p on Python ints before the
int64 cast, so entries of any size are accepted.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

import numpy as np

__all__ = [
    "RationalMatrix",
    "Subspace",
    "fmat",
    "fvec",
    "rank",
    "kernel",
    "intersect",
    "signature",
    "rref",
    "CoordinateSolver",
    "rank_at_least_modp",
    "rank_modp",
    "reduce_modp",
    "fzeros",
    "fmatmul",
    "scaled_ints",
    "embed_block",
    "is_rational_square",
    "rational_sqrt",
    "primitive_vector",
]

# A RationalMatrix is simply an object-dtype numpy array of Fractions; the
# alias documents intent in signatures.
RationalMatrix = np.ndarray

_F0 = Fraction(0)
_F1 = Fraction(1)

# default prime of the mod-p certificate; below 2**30, so the products in
# ``rank_modp`` stay below 2**60
MODP_PRIME = 999999937


def fzeros(shape) -> RationalMatrix:
    """Object array of the given shape filled with Fraction(0)."""
    out = np.empty(shape, dtype=object)
    out[...] = _F0
    return out


def _frac(x) -> Fraction:
    """Fraction(x), numpy integers taken as Python ints first (a numpy
    numerator would wrap silently in later arithmetic)."""
    return Fraction(int(x)) if isinstance(x, np.integer) else Fraction(x)


def scaled_ints(M):
    """(L, N) with N an object array of Python ints and M = N / L exactly;
    L is the lcm of the entry denominators."""
    M = np.asarray(M)
    if M.dtype.kind in "iu":
        return 1, M.astype(object)
    fr = [x if type(x) in (int, Fraction) else _frac(x) for x in M.flat]
    L = lcm(*[x.denominator for x in fr])
    N = np.empty(M.shape, dtype=object)
    N.flat[:] = [x.numerator * (L // x.denominator) for x in fr]
    return L, N


def _unscaled(N, L):
    """Fraction array N / L for an object array N of ints."""
    out = np.empty(N.shape, dtype=object)
    out.flat[:] = [Fraction(x, L) for x in N.flat]
    return out


def fmatmul(A, B):
    """Exact ``A @ B`` for rational arrays (1-D or 2-D): each factor is
    scaled to Python ints by one common denominator, so the product costs
    integer operations instead of Fraction ones."""
    la, na = scaled_ints(A)
    lb, nb = scaled_ints(B)
    return _unscaled(na @ nb, la * lb)


def embed_block(M, size: int, off: int) -> RationalMatrix:
    """size x size zero matrix with the square matrix M placed at (off, off)."""
    out = fzeros((size, size))
    m = M.shape[0]
    out[off : off + m, off : off + m] = M
    return out


def fmat(rows) -> RationalMatrix:
    """Build a rational matrix from any nested iterable of numbers."""
    rows = [list(r) for r in rows]
    m, n = len(rows), len(rows[0]) if rows else 0
    out = np.empty((m, n), dtype=object)
    for i, r in enumerate(rows):
        if len(r) != n:
            raise ValueError("ragged rows")
        for j, x in enumerate(r):
            out[i, j] = _frac(x)
    return out


def fvec(entries) -> np.ndarray:
    return fmat([entries])[0]


def _as_frac_array(m) -> RationalMatrix:
    if isinstance(m, np.ndarray) and m.dtype == object:
        return m
    return fmat(m)


def rank(m) -> int:
    """Exact rank over the rationals (``_rref_ints`` on integer rows)."""
    rows = [scaled_ints(row)[1] for row in _as_frac_array(m)]
    return len(_rref_ints(rows))


def reduce_modp(m, p: int = MODP_PRIME) -> np.ndarray:
    """Scale each row of a rational matrix to integers (per-row lcm) and
    reduce mod p on Python ints; returns an int64 array for ``rank_modp``."""
    rows = [scaled_ints(row)[1] for row in _as_frac_array(m)]
    return np.array([[x % p for x in row] for row in rows], dtype=np.int64)


def rank_modp(M: np.ndarray, target: int, p: int = MODP_PRIME) -> bool:
    """Certify rank(M) >= target for an int64 array by elimination mod p.

    A full-rank witness mod p is a valid exact certificate (minors that are
    nonzero mod p are nonzero over Q); a shortfall proves nothing.
    """
    M = M % p
    rows, cols = M.shape
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if M[i, c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            M[[r, piv]] = M[[piv, r]]
        inv = pow(int(M[r, c]), p - 2, p)
        M[r] = (M[r] * inv) % p
        if r + 1 < rows:
            f = M[r + 1 :, c : c + 1]
            M[r + 1 :] = (M[r + 1 :] - f * M[r]) % p
        r += 1
        if r >= target or r == rows:
            break
    return r >= target


def rank_at_least_modp(m, target: int, p: int = MODP_PRIME) -> bool:
    """``rank_modp`` for any rational matrix (see ``reduce_modp``)."""
    if not len(m):
        return target <= 0
    return rank_modp(reduce_modp(m, p), target, p)


def _rref_ints(M) -> list:
    """Fraction-free Gauss-Jordan elimination, in place, on a list of
    Python-int rows (object arrays), each kept primitive.  Returns the pivot
    columns; row i of the RREF is M[i] / M[i][pivots[i]]."""
    rows = len(M)
    piv_cols = []
    for c in range(len(M[0]) if rows else 0):
        r = len(piv_cols)
        piv = next((i for i in range(r, rows) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        top = M[r]
        a = top[c]
        for i in range(rows):
            b = M[i][c]
            if i != r and b:
                g = gcd(a, b)
                row = (a // g) * M[i] - (b // g) * top
                M[i] = row // (gcd(*row) or 1)
        piv_cols.append(c)
        if r + 1 == rows:
            break
    return piv_cols


def rref(m):
    """Reduced row echelon form.  Returns (R, pivot_columns).

    The elimination runs on rows scaled to integers (``_rref_ints``); the
    RREF is unique, so R is the exact one."""
    A = _as_frac_array(m)
    M = [scaled_ints(row)[1] for row in A]
    piv_cols = _rref_ints(M)
    R = fzeros(A.shape)
    for i, c in enumerate(piv_cols):
        R[i] = [Fraction(x, M[i][c]) for x in M[i]]
    return R, piv_cols


def kernel(m) -> list[np.ndarray]:
    """Basis of the right kernel {x : m x = 0}, exact."""
    A = _as_frac_array(m)
    rows, cols = A.shape
    R, piv_cols = rref(A)
    free = [c for c in range(cols) if c not in piv_cols]
    out = []
    for fc in free:
        v = fzeros(cols)
        v[fc] = _F1
        for i, pc in enumerate(piv_cols):
            v[pc] = -R[i, fc]
        out.append(v)
    return out


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^ambient_dim given by an independent basis (rows)."""

    ambient_dim: int
    basis: tuple  # tuple of object-dtype vectors

    @staticmethod
    def from_rows(rows, ambient_dim: int | None = None) -> "Subspace":
        rows = [fvec(r) for r in rows]
        if ambient_dim is None:
            if not rows:
                raise ValueError("ambient_dim required for empty basis")
            ambient_dim = len(rows[0])
        if rows:
            mat = np.array([list(r) for r in rows], dtype=object)
            if rank(mat) != len(rows):
                # keep an independent subset, deterministic (first-seen pivots)
                R, piv = rref(mat.T)
                rows = [rows[i] for i in piv]
        return Subspace(ambient_dim, tuple(rows))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def matrix(self) -> RationalMatrix:
        if not self.basis:
            return np.empty((0, self.ambient_dim), dtype=object)
        return np.array([list(r) for r in self.basis], dtype=object)

    def contains(self, vec) -> bool:
        v = fvec(vec)
        if self.dim == 0:
            return all(x == 0 for x in v)
        stacked = np.vstack([self.matrix(), v.reshape(1, -1)])
        return rank(stacked) == self.dim


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of two subspaces of the same ambient space."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError(
            f"ambient dimension mismatch: {a.ambient_dim} vs {b.ambient_dim}"
        )
    if a.dim == 0 or b.dim == 0:
        return Subspace(a.ambient_dim, ())
    # x = c.A = d.B  =>  [A^T | -B^T] (c,d)^T = 0
    M = np.hstack([a.matrix().T, -b.matrix().T])
    vecs = []
    for k in kernel(M):
        coeffs = k[: a.dim]
        x = np.zeros(a.ambient_dim, dtype=object)
        for ci, row in zip(coeffs, a.basis):
            if ci != 0:
                x = x + ci * row
        vecs.append(primitive_vector(x))
    return Subspace.from_rows(vecs, a.ambient_dim) if vecs else Subspace(a.ambient_dim, ())


def signature(form) -> tuple[int, int, int]:
    """Sylvester signature (positive, negative, null) of a symmetric rational
    matrix, by exact congruence diagonalization."""
    A = _as_frac_array(form)
    n = A.shape[0]
    if A.shape[0] != A.shape[1] or not (A == A.T).all():
        raise ValueError("form must be symmetric")
    A = [[Fraction(x) for x in row] for row in A]
    plus = minus = null = 0
    size = n
    while size > 0:
        d = next((i for i in range(size) if A[i][i] != 0), None)
        if d is None:
            od = None
            for i in range(size):
                for j in range(i + 1, size):
                    if A[i][j] != 0:
                        od = (i, j)
                        break
                if od:
                    break
            if od is None:
                null += size
                break
            i, j = od
            # fold row/col j into i so the diagonal picks up 2*A[i][j]
            for k in range(size):
                A[i][k] = A[i][k] + A[j][k]
            for k in range(size):
                A[k][i] = A[k][i] + A[k][j]
            d = i
        pv = A[d][d]
        if pv > 0:
            plus += 1
        else:
            minus += 1
        rest = [i for i in range(size) if i != d]
        A = [
            [A[i][j] for j in rest]
            if A[i][d] == 0
            else [A[i][j] - A[i][d] * A[d][j] / pv for j in rest]
            for i in rest
        ]
        size -= 1
    return plus, minus, null


class CoordinateSolver:
    """Solve for coordinates in a fixed independent basis of row vectors.

    Precomputes an RREF transform once; each solve is a small matrix-vector
    product plus an exact membership check.
    """

    def __init__(self, basis_rows: RationalMatrix):
        B = _as_frac_array(basis_rows)
        d, n = B.shape
        self._basis_den, self._basis_int = scaled_ints(B)
        # rref([B | I]) = [R | C] with R = C @ B, on the integer rows of
        # basis_den * [B | I]
        eye = np.eye(d, dtype=object) * self._basis_den
        M = list(np.hstack([self._basis_int, eye]).astype(object))
        piv = _rref_ints(M)
        # [B | I] has rank d; B has it iff every pivot lies in B
        if d and piv[-1] >= n:
            raise ValueError("basis rows are dependent")
        self.basis = B
        self.pivots = piv
        self.dim = d
        self.ambient = n
        # C = transform_int / transform_den
        self._transform_den = lcm(*[M[i][c] for i, c in enumerate(piv)])
        self._transform_int = np.array(
            [M[i][n:] * (self._transform_den // M[i][c])
             for i, c in enumerate(piv)], dtype=object,
        ).reshape(d, d)

    def solve(self, vec):
        """(xn, lx): Python-int numerators and common denominator of the
        coordinates x = xn / lx that reproduce vec if it lies in the span
        (unchecked); only the rows of nonzero pivot entries are summed."""
        ly, y = scaled_ints(np.asarray(vec)[self.pivots])
        xn = np.zeros(self.dim, dtype=object)
        for yi, row in zip(y, self._transform_int):
            if yi:
                xn = xn + yi * row
        return xn, ly * self._transform_den

    def coords(self, vec, check: bool = True) -> np.ndarray:
        v = vec if isinstance(vec, np.ndarray) else fvec(vec)
        xn, lx = self.solve(v)
        if check:
            # x @ basis == v  <=>  (xn @ basis_int) * lv == vn * lx * basis_den
            lv, vn = scaled_ints(v)
            recon = np.zeros(self.ambient, dtype=object)
            for xi, row in zip(xn, self._basis_int):
                if xi:
                    recon = recon + xi * row
            s = lx * self._basis_den
            if not all(a * lv == b * s for a, b in zip(recon, vn)):
                raise ValueError("vector not in span")
        return _unscaled(xn, lx)

    def try_coords(self, vec):
        try:
            return self.coords(vec, check=True)
        except ValueError:
            return None


def primitive_vector(vec) -> np.ndarray:
    """Clear denominators, divide by content, normalize leading sign."""
    _l, ints = scaled_ints(list(vec))
    g = gcd(*ints)
    lead = next((x for x in ints if x), 0)
    if lead < 0:
        g = -g
    return fvec(ints // g if g else ints)


def is_rational_square(x) -> bool:
    x = Fraction(x)
    if x < 0:
        return False
    return (
        isqrt(x.numerator) ** 2 == x.numerator
        and isqrt(x.denominator) ** 2 == x.denominator
    )


def rational_sqrt(x) -> Fraction:
    x = Fraction(x)
    if not is_rational_square(x):
        raise ValueError(f"{x} is not a rational square")
    return Fraction(isqrt(x.numerator), isqrt(x.denominator))
