"""Exact rational linear algebra: ranks, kernels, subspace intersections and
signatures of symmetric forms.

Exact matrices are integer arrays, of Python ints (dtype object) or of
int64 under an explicit bound, and a rational matrix is an integer one over
a positive denominator: ``scaled_ints`` reads Fraction input as such a pair,
``unscaled`` builds the Fraction view of one for output, and products run
on the integers (``int_matmul``).  Every verdict-facing computation here is
tolerance-free; floating point never enters this module.

``int_matmul`` runs a large 2-D product with an operand at most 1/16
nonzero (catalog bases and solver transforms are 0.04-6% nonzero) over that
operand's nonzero entries only (``sparse_product``, also the rebuild of
``liealg``'s coordinate read), and every other product on the dense ``@``.

Every elimination is one sparse row reducer, ``_reduce``, on the integer
rows of a matrix as ``{column: int}`` dicts (``_sparse_rows``).  ``rank``,
``kernel``, ``rref``, ``echelon_rows`` and ``CoordinateSolver`` read their
results off its reduced rows; ``Subspace.from_rows`` keeps the rows that add
a pivot.  A ``Subspace`` is a tuple of independent primitive integer rows
(content divided out, leading entry positive) and ``kernel`` returns
primitive integer vectors, so ``intersect`` runs on integers throughout.
``rank_at_least_modp`` runs the same reducer mod p; ``rank_modp`` is its
NumPy form for the Weyl-orbit scan's stacks of small dense matrices.
``signature`` is a fraction-free symmetric elimination on Python ints.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
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
    "scaled_ints",
    "unscaled",
    "absmax",
    "int_matmul",
    "fit_int64",
    "embed_block",
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
    L is the lcm of the entry denominators.  A nested list is read as
    objects (NumPy would read big ints beside negative ones as floats)."""
    M = M if isinstance(M, np.ndarray) else np.array(M, dtype=object)
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


def column_nonzeros(B):
    """(rows, vals, cols, starts) of a 2-D integer array: its nonzero entries
    ``vals = B[rows, c]`` grouped by column (rows ascending within a group),
    the columns ``cols`` that hold one, ascending, and where each group
    starts.  ``sparse_product`` multiplies by B from these."""
    at, rows = np.nonzero(B.T)
    cols, starts = np.unique(at, return_index=True)
    return rows, B[rows, at], cols, starts


def sparse_product(A, nz):
    """``(A @ B)[:, cols]`` from ``nz = column_nonzeros(B)``: the columns of A
    that meet B's nonzero entries are gathered, scaled by them, and summed
    per column of B by ``np.add.reduceat``; A's dtype is kept (the caller
    bounds int64)."""
    rows, vals, _cols, starts = nz
    return np.add.reduceat(A[:, rows] * vals, starts, axis=1)


def int_matmul(A, B):
    """Exact ``A @ B`` for integer arrays: in int64 when max|A| * max|B| *
    (inner dimension) < 2**63 and each factor fits int64 (one may be empty
    or zero), on Python ints past it.

    NumPy's integer ``@`` has no BLAS, so a 2-D product (m x k) (k x n) of
    at least 2**18 multiply-adds whose sparser operand is at most 1/16
    nonzero multiplies only that operand's nonzero entries
    (``sparse_product``; a sparse A through Bᵀ Aᵀ), nnz * n or m * nnz
    multiply-adds instead of m * k * n; every other product runs on ``@``.
    Measured on int64, one core, random operands: below 2**18 multiply-adds
    the sparse form mostly loses; from 2**18 to 2**22 it takes 0.2-0.6 of
    the dense time at 1/32 nonzero, about as long at 1/16, and longer from
    1/12 on.  In ``table --which table1`` every product past 2**18 has a
    sparser operand 0.04-6.2% nonzero (median 0.7%): a catalog basis has at
    most 4 nonzeros per row, and the solver transforms are close to signed
    permutations."""
    a, b = absmax(A), absmax(B)
    dtype = np.int64 if max(a * b * A.shape[-1], a, b) < 2**63 else object
    A, B = A.astype(dtype, copy=False), B.astype(dtype, copy=False)
    if A.ndim != 2 or B.ndim != 2 or A.size * B.shape[1] < 2**18:
        return A @ B
    m, n = A.shape[0], B.shape[1]
    # the multiply-adds of the sparse form through A's or B's nonzeros
    via_a, via_b = np.count_nonzero(A) * n, np.count_nonzero(B) * m
    if min(via_a, via_b) * 16 > A.size * n:
        return A @ B
    out = np.zeros((m, n), dtype=dtype)
    if via_b <= via_a:
        nz = column_nonzeros(B)
        out[:, nz[2]] = sparse_product(A, nz)
    else:
        nz = column_nonzeros(A.T)
        out.T[:, nz[2]] = sparse_product(B.T, nz)
    return out


def fit_int64(A):
    """An integer array in int64 when its entries fit, else as is."""
    return A.astype(np.int64) if A.dtype == object and absmax(A) < 2**63 else A


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


def _sparse_rows(m):
    """(rows, n): the rows of a rational matrix (or nested list) as
    ``{column: int}`` dicts of their nonzero entries, and its column count.
    Integer entries are read as Python ints; a row with other entries is
    scaled by the lcm of its own denominators."""
    A = m if isinstance(m, np.ndarray) else np.array(m, dtype=object)
    rows = [dict(compress(enumerate(r), r)) for r in A.tolist()]
    values = chain.from_iterable(map(dict.values, rows))
    if A.dtype.kind not in "iu" and not set(map(type, values)) <= {int}:
        rows = list(map(_scaled, rows))
    return rows, A.shape[1] if A.ndim == 2 else 0


def _scaled(row: dict) -> dict:
    """A sparse rational row times the lcm of its denominators."""
    values = np.array(list(row.values()), dtype=object)
    return dict(zip(row, scaled_ints(values)[1].tolist()))


def _dense(rows, n: int) -> np.ndarray:
    """Sparse rows as an (len(rows), n) object array of Python ints."""
    out = np.zeros(len(rows) * n, dtype=object)
    out[[i * n + j for i, r in enumerate(rows) for j in r]] = [
        x for r in rows for x in r.values()
    ]
    return out.reshape(len(rows), n)


def _combine(row: dict, piv: dict, c: int, p: int) -> dict:
    """``a * row - b * piv`` with a = piv[c], b = row[c], which clears column
    c of row; over the integers (p = 0) a and b lose their gcd first and the
    result is made primitive, mod p its entries are reduced to [0, p)."""
    a, b = piv[c], row[c]
    if not p:
        g = gcd(a, b)
        a, b = a // g, b // g
    out = {k: a * x for k, x in row.items()} if a != 1 else dict(row)
    for k, y in piv.items():
        v = out.get(k, 0) - b * y
        if p:
            v %= p
        if v:
            out[k] = v
        else:
            del out[k]
    return out if p else _primitive(out)


def _primitive(row: dict) -> dict:
    """A sparse integer row divided by its content, leading entry positive
    (an empty row stays empty)."""
    g = gcd(*row.values())
    if row and row[min(row)] < 0:
        g = -g
    return {k: x // g for k, x in row.items()} if g not in (0, 1) else row


def _reduce(rows, stop: int, p: int = 0):
    """Gauss-Jordan elimination of ``{column: int}`` rows without zero entries
    (in [1, p) when p > 0), one row at a time: a row is reduced against the
    pivot rows (``_combine``), and if anything is left its leading column
    becomes a pivot that is cleared from the other pivot rows.  Stops once
    ``stop`` pivots are found.  Returns ``(pivots, kept)``: pivot column ->
    pivot row, and the indices of the rows that added a pivot.  Over the
    integers the pivot rows are primitive with positive pivots: the unique
    such multiples of the reduced row echelon form's rows."""
    pivots, kept = {}, []
    for i, row in enumerate(rows):
        for c in [c for c in row if c in pivots]:
            row = _combine(row, pivots[c], c, p)
        if not row:
            continue
        c = min(row)
        row = row if p else _primitive(row)
        for pc, prow in pivots.items():
            if c in prow:
                pivots[pc] = _combine(prow, row, c, p)
        pivots[c] = row
        kept.append(i)
        if len(kept) >= stop:
            break
    return pivots, kept


def _pivot_rows(m):
    """(sorted pivot columns, pivot column -> pivot row, column count) of
    the exact elimination of a rational matrix."""
    rows, n = _sparse_rows(m)
    pivots = _reduce(rows, n)[0]
    return sorted(pivots), pivots, n


def rank(m) -> int:
    """Exact rank over the rationals (``_reduce`` on integer rows)."""
    return len(_pivot_rows(m)[0])


def reduce_modp(m, p: int = MODP_PRIME) -> np.ndarray:
    """The integer rows of a rational matrix (``_sparse_rows``) reduced mod p
    on Python ints; returns an int64 array for ``rank_modp``."""
    rows, n = _sparse_rows(m)
    rows = [{j: x % p for j, x in r.items()} for r in rows]
    return _dense(rows, n).astype(np.int64)


def rank_modp(M: np.ndarray, target: int, p: int = MODP_PRIME):
    """Certify rank(M) >= target by elimination mod p, for one int64 matrix
    (returns a bool) or a stack ``(..., rows, cols)`` of them (returns one
    bool per matrix).

    This is the certificate of ``rank_at_least_modp`` in NumPy form, kept for
    the Weyl-orbit scan alone: its traffic is thousands of dense matrices of
    at most 4 x 4 per call, which one vectorized pass over the stack
    eliminates faster than a per-row Python loop can.

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
    """Certify rank(m) >= target for any rational matrix: its integer rows
    (``_sparse_rows``) are reduced mod p on Python ints and eliminated by
    ``_reduce`` mod p, which stops at ``target`` pivots.  A shortfall proves
    nothing."""
    rows = [{j: y for j, x in r.items() if (y := x % p)}
            for r in _sparse_rows(m)[0]]
    return len(_reduce(rows, target, p)[1]) >= target


def rref(m):
    """Reduced row echelon form.  Returns (R, pivot_columns), read off the
    pivot rows of ``_reduce``; the RREF is unique, so R is the exact one."""
    cols, pivots, n = _pivot_rows(m)
    R = fzeros((len(m), n))
    for i, c in enumerate(cols):
        a = pivots[c][c]
        for j, x in pivots[c].items():
            R[i, j] = Fraction(x, a)
    return R, cols


def kernel(m) -> list[np.ndarray]:
    """Basis of the right kernel {x : m x = 0}, exact: one primitive integer
    vector (object array of Python ints) per free column, the positive
    multiple of the RREF kernel vector whose free entry is 1.  It is read
    off the pivot rows of ``_reduce``: the free entry is the lcm of the
    pivots, then the positive content is divided out."""
    cols, pivots, n = _pivot_rows(m)
    free = [c for c in range(n) if c not in pivots]
    L = lcm(*[pivots[c][c] for c in cols])
    K = np.zeros((len(free), n), dtype=object)
    K[range(len(free)), free] = L
    at = {c: i for i, c in enumerate(free)}
    for pc in cols:
        s = L // pivots[pc][pc]
        for c, x in pivots[pc].items():
            if c != pc:
                K[at[c], pc] = -x * s
    return [v // gcd(*v) for v in K]


def primitive_rows(rows) -> np.ndarray:
    """Each rational or integer row scaled to its primitive integer multiple
    (denominators cleared, content divided out, leading entry positive; a
    zero row stays zero), stacked as an object array of Python ints."""
    rows, n = _sparse_rows(rows)
    return _dense(list(map(_primitive, rows)), n)


def echelon_rows(rows) -> np.ndarray:
    """The primitive rows of the reduced row echelon form of integer rows,
    each pivot positive: one canonical integer basis per row space."""
    cols, pivots, n = _pivot_rows(rows)
    return _dense([pivots[c] for c in cols], n)


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
        P, n = _sparse_rows(rows)
        if ambient_dim is None:
            if not P:
                raise ValueError("ambient_dim required for empty basis")
            ambient_dim = n
        P = list(map(_primitive, P))
        kept = _reduce(P, ambient_dim)[1]
        return Subspace(ambient_dim, tuple(_dense([P[i] for i in kept], n)))

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
    matrix, by congruence diagonalization on Python ints: fraction-free
    symmetric (Bareiss) elimination of its integer multiple.  The pivot is
    the first nonzero diagonal entry; if the diagonal is zero, the column of
    the first nonzero off-diagonal entry (i, j) is folded into column i.
    After a pivot the remaining block is the last pivot times the Schur
    complement, and each entry is a minor, so the division is exact and a
    pivot's sign relative to the last one is the sign of the Schur pivot."""
    _l, N = scaled_ints(form)
    if N.ndim != 2 or N.shape[0] != N.shape[1] or not (N == N.T).all():
        raise ValueError("form must be symmetric")
    A = N.tolist()
    plus = minus = null = 0
    last = 1
    while A:
        size = len(A)
        d = next((i for i in range(size) if A[i][i]), None)
        if d is None:
            od = next(((i, j) for i in range(size) for j in range(i + 1, size)
                       if A[i][j]), None)
            if od is None:
                null += size
                break
            i, j = od
            # fold row/col j into i so the diagonal picks up 2*A[i][j]
            A[i] = [x + y for x, y in zip(A[i], A[j])]
            for row in A:
                row[i] += row[j]
            d = i
        pv = A[d][d]
        if (pv > 0) == (last > 0):
            plus += 1
        else:
            minus += 1
        rest = [i for i in range(size) if i != d]
        A = [[(pv * A[i][j] - A[i][d] * A[d][j]) // last for j in rest]
             for i in rest]
        last = pv
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
        rows = _sparse_rows(self._basis_int)[0]
        for i, row in enumerate(rows):
            row[n + i] = self._basis_den
        pivots = _reduce(rows, n + d)[0]
        piv = sorted(pivots)
        # [B | I] has rank d; B has it iff every pivot lies in B
        if d and piv[-1] >= n:
            raise ValueError("basis rows are dependent")
        self.pivots = piv
        self.dim = d
        # C = transform / transform_den, kept in int64 when it fits
        L = self._transform_den = lcm(*[pivots[c][c] for c in piv])
        T = [{j - n: x * (L // pivots[c][c]) for j, x in pivots[c].items()
              if j >= n} for c in piv]
        self._transform = fit_int64(_dense(T, d))
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

    def solve_rows(self, Y):
        """(N, L, inside): ``solve`` and one bool per row of Y, true where
        the row lies in the span.  The rebuild runs on ``int_matmul``, Y * L
        * basis_den in int64 below 2**63."""
        Y = np.asarray(Y)
        N, L = self.solve(Y)
        s = L * self._basis_den
        if s * max(absmax(Y), 1) >= 2**63:
            Y = Y.astype(object)
        return N, L, (int_matmul(N, self._basis_int) == s * Y).all(axis=1)

    def solve_checked(self, Y):
        """``solve``, None if a row of Y leaves the span (``solve_rows``)."""
        N, L, inside = self.solve_rows(Y)
        return (N, L) if inside.all() else None

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
