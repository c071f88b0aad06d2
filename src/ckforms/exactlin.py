"""Exact rational linear algebra: ranks, kernels, subspace intersections and
signatures of symmetric forms.

Rational matrices are 2-D numpy arrays with ``fractions.Fraction`` entries
(dtype object); integer ones hold Python ints (dtype object) or int64 under
an explicit bound.  Every verdict-facing computation here is tolerance-free;
floating point never enters this module.  Elimination and products run on
Python ints after scaling by common denominators (``scaled_ints``); the
eliminations (``rank``, ``kernel``, ``rref``, ``reduce_modp``) take an
integer matrix as one copy to Python ints and scale a rational one row by
row (``_int_rows``).

A ``Subspace`` is a tuple of independent primitive integer rows
(``primitive_rows``: content divided out, leading entry positive), and
``kernel`` returns primitive integer vectors read from the fraction-free
elimination, so ``intersect`` runs on integers throughout: one kernel, one
integer product and one ``from_rows``.

The mod-p rank certificate has one eliminator, ``rank_modp``, which takes an
int64 matrix or a stack of them (the Weyl-orbit scan certifies a whole chunk
of group elements in one call).  ``rank_at_least_modp`` accepts any rational
matrix: it scales each row to integers and reduces the entries mod p on
Python ints before the int64 cast, so entries of any size are accepted.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

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
    "check_int64",
    "InternalError",
    "fmatmul",
    "scaled_ints",
    "unscaled",
    "absmax",
    "int_matmul",
    "fit_int64",
    "embed_block",
    "primitive_vector",
    "primitive_rows",
    "echelon_rows",
]

# A RationalMatrix is simply an object-dtype numpy array of Fractions; the
# alias documents intent in signatures.
RationalMatrix = np.ndarray

_F0 = Fraction(0)

# default prime of the mod-p certificate; below 2**30, so a product of two
# reduced entries stays below 2**60
MODP_PRIME = 999999937


class InternalError(Exception):
    """A broken invariant of the program itself, not a fault of its input;
    ``stage`` names the function that found it."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"internal error in {stage}: {message}")
        self.stage = stage


def check_int64(name, what, bound):
    """Refuse an int64 computation whose entries are bounded only by
    ``bound`` when that reaches 2**63 (numpy would wrap silently)."""
    if bound >= 2**63:
        raise ValueError(
            f"{name}: {what} entries may reach {bound} >= 2**63, "
            "beyond int64"
        )


def fzeros(shape) -> RationalMatrix:
    """Object array of the given shape filled with Fraction(0)."""
    out = np.empty(shape, dtype=object)
    out[...] = _F0
    return out


def _frac(x) -> Fraction:
    """Fraction(x), numpy integers taken as Python ints first (a numpy
    numerator would wrap silently in later arithmetic)."""
    return Fraction(int(x)) if isinstance(x, np.integer) else Fraction(x)


def _all_int(M) -> bool:
    """True when every entry of an array is a Python int (one C-level pass
    over the entry types)."""
    return set(map(type, M.flat)) <= {int}


def scaled_ints(M):
    """(L, N) with N an object array of Python ints and M = N / L exactly;
    L is the lcm of the entry denominators."""
    M = np.asarray(M)
    if M.dtype.kind in "iu":
        return 1, M.astype(object)
    if _all_int(M):
        return 1, M.copy()
    fr = [x if type(x) in (int, Fraction) else _frac(x) for x in M.flat]
    L = lcm(*[x.denominator for x in fr])
    N = np.empty(M.shape, dtype=object)
    N.flat[:] = [x.numerator * (L // x.denominator) for x in fr]
    return L, N


def unscaled(N, L):
    """Fraction array N / L for an integer array N (int64 entries become
    Python ints first, so no Fraction holds a numpy integer); zeros share
    one Fraction."""
    out = np.empty(N.shape, dtype=object)
    out.flat[:] = [Fraction(x, L) if x else _F0 for x in N.astype(object).flat]
    return out


def absmax(A) -> int:
    """Largest absolute entry of an integer array as a Python int, 0 if
    empty: the factor of an int64 overflow bound.  One NumPy pass; on an
    object array it runs on the Python ints, so it is exact past 2**63."""
    return int(np.abs(A).max()) if A.size else 0


def int_matmul(A, B):
    """Exact ``A @ B`` for integer arrays: in int64 when max|A| * max|B| *
    (inner dimension) < 2**63 and each factor fits int64 (one may be empty
    or zero), on Python ints past it."""
    a, b = absmax(A), absmax(B)
    if max(a * b * A.shape[-1], a, b) < 2**63:
        return A.astype(np.int64, copy=False) @ B.astype(np.int64, copy=False)
    return A.astype(object) @ B.astype(object)


def fit_int64(A):
    """An integer array in int64 when its entries fit, else as is."""
    return A.astype(np.int64) if A.dtype == object and absmax(A) < 2**63 else A


def fmatmul(A, B):
    """Exact ``A @ B`` for rational arrays (1-D or 2-D): each factor is
    scaled to Python ints by one common denominator, so the product costs
    integer operations instead of Fraction ones."""
    la, na = scaled_ints(A)
    lb, nb = scaled_ints(B)
    return unscaled(na @ nb, la * lb)


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


def _as_array(m) -> np.ndarray:
    """An ndarray as is; any other nested iterable through ``fmat``."""
    return m if isinstance(m, np.ndarray) else fmat(m)


def _int_rows(A) -> list:
    """The rows of a 2-D rational array as Python-int object rows, made once
    per matrix: an integer dtype or an all-int object array (one ``_all_int``
    for the whole matrix) is copied to Python ints; any other matrix scales
    each row by the lcm of its own denominators (``scaled_ints``)."""
    if A.dtype.kind in "iu" or _all_int(A):
        return list(A.astype(object))
    return [scaled_ints(row)[1] for row in A]


def rank(m) -> int:
    """Exact rank over the rationals (``_rref_ints`` on integer rows)."""
    return len(_rref_ints(_int_rows(_as_array(m))))


def reduce_modp(m, p: int = MODP_PRIME) -> np.ndarray:
    """The integer rows of a rational matrix (``_int_rows``) reduced mod p on
    Python ints; returns an int64 array for ``rank_modp``."""
    rows = _int_rows(_as_array(m))
    return np.array([[x % p for x in row] for row in rows], dtype=np.int64)


def rank_modp(M: np.ndarray, target: int, p: int = MODP_PRIME):
    """Certify rank(M) >= target by elimination mod p, for one int64 matrix
    (returns a bool) or a stack ``(..., rows, cols)`` of them (returns one
    bool per matrix).

    Fraction-free, row by row: the first nonzero entry of each row is its
    pivot and clears its column from the rows below (row <- pivot * row -
    entry * pivot_row), with no inverse and no row swap; a row left zero is
    dependent.  Entries stay in [0, p), so for p < 2**30 every product is
    below 2**60.
    A full-rank witness mod p is a valid exact certificate (minors that are
    nonzero mod p are nonzero over Q); a shortfall proves nothing.
    """
    M = np.asarray(M, dtype=np.int64)
    batch = M.shape[:-2]
    rows, cols = M.shape[-2:]
    M = M.reshape(prod(batch), rows, cols) % p
    at = np.arange(len(M))
    found = np.zeros(len(M), dtype=np.int64)
    for i in range(rows if cols else 0):
        row = M[:, i]
        nonzero = row != 0
        has = nonzero.any(axis=1)
        found += has
        if i + 1 == rows or (found >= target).all():
            break
        col = nonzero.argmax(axis=1)
        piv = np.where(has, row[at, col], 1)
        lead = M[at, i + 1 :, col]
        M[:, i + 1 :] = (
            M[:, i + 1 :] * piv[:, None, None] - lead[:, :, None] * row[:, None]
        ) % p
    ok = (found >= target).reshape(batch)
    return bool(ok) if not batch else ok


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
    A = _as_array(m)
    M = _int_rows(A)
    piv_cols = _rref_ints(M)
    R = fzeros(A.shape)
    for i, c in enumerate(piv_cols):
        R[i] = [Fraction(x, M[i][c]) for x in M[i]]
    return R, piv_cols


def kernel(m) -> list[np.ndarray]:
    """Basis of the right kernel {x : m x = 0}, exact: one primitive integer
    vector (object array of Python ints) per free column, the positive
    multiple of the RREF kernel vector whose free entry is 1.  It is read
    from the fraction-free elimination: the free entry is the lcm of the
    pivots, then the positive content is divided out."""
    A = _as_array(m)
    cols = A.shape[1]
    M = _int_rows(A)
    piv_cols = _rref_ints(M)
    L = lcm(*[M[i][c] for i, c in enumerate(piv_cols)])
    out = []
    for fc in (c for c in range(cols) if c not in piv_cols):
        v = np.zeros(cols, dtype=object)
        v[fc] = L
        for i, pc in enumerate(piv_cols):
            v[pc] = -M[i][fc] * (L // M[i][pc])
        out.append(v // gcd(*v))
    return out


def primitive_rows(rows) -> np.ndarray:
    """Each rational or integer row scaled to its primitive integer multiple
    (denominators cleared, content divided out, leading entry positive; a
    zero row stays zero), stacked as an object array of Python ints."""
    out = []
    for row in rows:
        _l, ints = scaled_ints(row)
        g = gcd(*ints)
        if next((x for x in ints if x), 0) < 0:
            g = -g
        out.append(ints // g if g else ints)
    return np.array(out, dtype=object)


def echelon_rows(rows) -> np.ndarray:
    """The primitive rows of the reduced row echelon form of integer rows,
    each pivot positive: one canonical integer basis per row space."""
    M = list(np.asarray(rows, dtype=object))
    return primitive_rows(M[: len(_rref_ints(M))])


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^ambient_dim given by an independent basis of primitive
    integer rows (object arrays of Python ints); ``from_rows`` builds it."""

    ambient_dim: int
    basis: tuple  # tuple of primitive integer rows

    @staticmethod
    def from_rows(rows, ambient_dim: int | None = None) -> "Subspace":
        """The span of rational or integer rows: each row is made primitive
        (``primitive_rows``) and the first-seen independent rows are kept."""
        P = primitive_rows(rows)
        if ambient_dim is None:
            if not len(P):
                raise ValueError("ambient_dim required for empty basis")
            ambient_dim = P.shape[1]
        if not len(P):
            return Subspace(ambient_dim, ())
        # the first-seen independent rows are the pivot columns of the
        # transpose
        return Subspace(ambient_dim, tuple(P[_rref_ints(list(P.T))]))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def matrix(self) -> np.ndarray:
        """The basis rows stacked: an integer object array (dim, ambient)."""
        return np.array(self.basis, dtype=object).reshape(self.dim, self.ambient_dim)

    def contains(self, vec) -> bool:
        return rank(np.vstack([self.matrix(), primitive_rows([vec])])) == self.dim


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of two subspaces of the same ambient space."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError(
            f"ambient dimension mismatch: {a.ambient_dim} vs {b.ambient_dim}"
        )
    if a.dim == 0 or b.dim == 0:
        return Subspace(a.ambient_dim, ())
    # x = c.A = d.B  <=>  [A^T | -B^T] (c, d)^T = 0; the c parts of the
    # kernel meet A in one integer product
    A = a.matrix()
    ker = kernel(np.hstack([A.T, -b.matrix().T]))
    C = np.array([k[: a.dim] for k in ker], dtype=object).reshape(len(ker), a.dim)
    return Subspace.from_rows(int_matmul(C, A), a.ambient_dim)


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

    Precomputes an RREF transform once; a solve gathers the pivot entries
    and multiplies them by the integer transform.
    """

    def __init__(self, basis_rows: RationalMatrix):
        self._basis_den, self._basis_int = scaled_ints(basis_rows)
        d, n = self._basis_int.shape
        # rref([B | I]) = [R | C] with R = C @ B, on the integer rows of
        # basis_den * [B | I]
        eye = np.eye(d, dtype=object) * self._basis_den
        M = list(np.hstack([self._basis_int, eye]).astype(object))
        piv = _rref_ints(M)
        # [B | I] has rank d; B has it iff every pivot lies in B
        if d and piv[-1] >= n:
            raise ValueError("basis rows are dependent")
        self.pivots = piv
        self.dim = d
        # C = transform / transform_den, kept in int64 when it fits
        self._transform_den = lcm(*[M[i][c] for i, c in enumerate(piv)])
        T = np.array(
            [M[i][n:] * (self._transform_den // M[i][c])
             for i, c in enumerate(piv)], dtype=object,
        ).reshape(d, d)
        self._transform = fit_int64(T)
        self._basis_int = fit_int64(self._basis_int)

    @classmethod
    def block_sum(cls, a, b, cols_a, cols_b, basis_int):
        """The solver of the direct sum of two integer bases, placed from
        theirs instead of eliminated again: ``basis_int`` holds a's rows on
        the columns ``cols_a`` and b's rows on ``cols_b``, every column of
        ``cols_a`` before every one of ``cols_b``.  The reduced echelon form
        of a block-diagonal basis is the two factors' side by side, so the
        pivots are the factors' at their placed columns, and the transform
        is the factors' block-diagonal over L = lcm(L_a, L_b): the solver a
        fresh elimination of ``basis_int`` would build."""
        if a._basis_den != 1 or b._basis_den != 1:
            raise ValueError("block_sum needs integer bases")
        out = cls.__new__(cls)
        out._basis_den = 1
        out._basis_int = fit_int64(basis_int)
        out.pivots = [int(cols_a[c]) for c in a.pivots]
        out.pivots += [int(cols_b[c]) for c in b.pivots]
        out.dim = a.dim + b.dim
        L = out._transform_den = lcm(a._transform_den, b._transform_den)
        T = np.zeros((out.dim, out.dim), dtype=object)
        T[: a.dim, : a.dim] = a._transform.astype(object) * (L // a._transform_den)
        T[a.dim :, a.dim :] = b._transform.astype(object) * (L // b._transform_den)
        out._transform = fit_int64(T)
        return out

    def solve(self, Y):
        """(N, L): integer numerators (m, dim) and common denominator of the
        coordinates N / L that reproduce the rows of the integer array Y
        (m, ambient) if they lie in the span (unchecked)."""
        return (
            int_matmul(np.asarray(Y)[:, self.pivots], self._transform),
            self._transform_den,
        )

    def solve_checked(self, Y):
        """``solve``, None if a row of Y leaves the span: the rebuild runs on
        ``int_matmul``, Y * L * basis_den in int64 below 2**63."""
        Y = np.asarray(Y)
        N, L = self.solve(Y)
        s = L * self._basis_den
        if s * max(absmax(Y), 1) >= 2**63:
            Y = Y.astype(object)
        return (N, L) if (int_matmul(N, self._basis_int) == s * Y).all() else None

    def coords(self, vec) -> np.ndarray:
        """Coordinates of one vector; ValueError if it is not in the span."""
        lv, vn = scaled_ints(vec)
        got = self.solve_checked(vn.reshape(1, -1))
        if got is None:
            raise ValueError("vector not in span")
        return unscaled(got[0][0], got[1] * lv)

    def try_coords(self, vec):
        try:
            return self.coords(vec)
        except ValueError:
            return None


def primitive_vector(vec) -> np.ndarray:
    """``primitive_rows`` of one vector, as Fractions."""
    return fvec(primitive_rows([list(vec)])[0])
