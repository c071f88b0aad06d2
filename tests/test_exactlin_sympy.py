"""Differential tests of the exact kernel against sympy's exact ``Matrix``."""
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckforms.exactlin import (
    CoordinateSolver,
    Subspace,
    fmat,
    intersect,
    kernel,
    rank,
    rref,
    signature,
)
from test_exactlin import sparse_traffic

sympy = pytest.importorskip("sympy")

_FEW = settings(max_examples=30, deadline=None, derandomize=True)


def _sym(rows):
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows]
    )


@st.composite
def _matrices(draw, max_size=6):
    """A rational matrix of at most max_size x max_size, drawn as a product
    of two small factors so that rank deficiency is common."""
    m = draw(st.integers(1, max_size))
    n = draw(st.integers(1, max_size))
    k = draw(st.integers(0, min(m, n)))
    small = st.integers(-2, 2)
    A = [[draw(small) for _ in range(k)] for _ in range(m)]
    B = [[draw(small) for _ in range(n)] for _ in range(k)]
    den = draw(st.integers(1, 3))
    noise = draw(st.booleans())
    out = []
    for i in range(m):
        row = []
        for j in range(n):
            x = sum(A[i][t] * B[t][j] for t in range(k))
            if noise and i == j:
                x += 1
            row.append(Fraction(x, den))
        out.append(row)
    return out


@given(_matrices())
@_FEW
def test_rank_agrees_with_sympy(rows):
    assert rank(fmat(rows)) == _sym(rows).rank()


@given(_matrices())
@_FEW
def test_kernel_spans_the_sympy_nullspace(rows):
    ours = [list(v) for v in kernel(fmat(rows))]
    theirs = _sym(rows).nullspace()
    assert len(ours) == len(theirs)
    if ours:
        assert all(x == 0 for x in _sym(rows) * _sym(ours).T)
        stacked = _sym(ours).col_join(sympy.Matrix.hstack(*theirs).T)
        assert stacked.rank() == len(theirs)


def _rref_kernel(rows):
    """Reference kernel: plain Fraction Gauss-Jordan, one vector per free
    column with free entry 1."""
    R = [[Fraction(x) for x in r] for r in rows]
    n = len(R[0])
    piv = []
    for c in range(n):
        r = len(piv)
        p = next((i for i in range(r, len(R)) if R[i][c]), None)
        if p is None:
            continue
        R[r], R[p] = R[p], R[r]
        R[r] = [x / R[r][c] for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [a - f * b for a, b in zip(R[i], R[r])]
        piv.append(c)
    out = []
    for fc in (c for c in range(n) if c not in piv):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(piv):
            v[pc] = -R[i][fc]
        out.append(v)
    return out


@given(_matrices())
@_FEW
def test_kernel_vectors_are_primitive_positive_multiples_of_the_rref_kernel(rows):
    ours = kernel(fmat(rows))
    ref = _rref_kernel(rows)
    # the reference is sympy's nullspace, vector for vector
    assert [list(v) for v in ref] == [list(v) for v in _sym(rows).nullspace()]
    assert len(ours) == len(ref)
    for v, w in zip(ours, ref):
        assert all(type(x) is int for x in v)
        assert gcd(*v) == 1
        t = next(Fraction(a) / b for a, b in zip(v, w) if b)
        assert t > 0
        assert all(a == t * b for a, b in zip(v, w))


@given(_matrices(), _matrices())
@_FEW
def test_intersection_agrees_with_sympy(a_rows, b_rows):
    n = min(len(a_rows[0]), len(b_rows[0]))
    a_rows = [r[:n] for r in a_rows]
    b_rows = [r[:n] for r in b_rows]
    A = Subspace.from_rows(a_rows, n)
    B = Subspace.from_rows(b_rows, n)
    inter = intersect(A, B)
    SA, SB = _sym(a_rows), _sym(b_rows)
    # dim(A n B) = dim A + dim B - dim(A + B)
    assert inter.dim == SA.rank() + SB.rank() - SA.col_join(SB).rank()
    for v in inter.basis:
        assert any(x != 0 for x in v)
        assert SA.col_join(_sym([v])).rank() == SA.rank()
        assert SB.col_join(_sym([v])).rank() == SB.rank()


def _sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


@given(_matrices())
@_FEW
def test_signature_agrees_with_sympy(rows):
    S = _sym(rows)
    S = S[: min(S.shape), : min(S.shape)]
    S = S + S.T
    x = sympy.Symbol("x")
    coeffs = S.charpoly(x).all_coeffs()
    null = len(coeffs) - 1 - max(i for i, c in enumerate(coeffs) if c != 0)
    # every root of a symmetric matrix's characteristic polynomial is real,
    # so Descartes' rule of signs counts the positive roots exactly
    plus = _sign_changes(coeffs)
    minus = _sign_changes([c * (-1) ** i for i, c in enumerate(reversed(coeffs))])
    form = fmat([[Fraction(int(e.p), int(e.q)) for e in S.row(i)] for i in range(S.rows)])
    assert signature(form) == (plus, minus, null)


def _greedy_rows(rows):
    """Indices of the first-seen independent rows: a row is kept when
    reducing it against the rows kept before it (a Fraction echelon basis)
    leaves something."""
    basis, kept = [], []
    for i, row in enumerate(rows):
        v = [Fraction(x) for x in row]
        for c, b in basis:
            if v[c]:
                f = v[c] / b[c]
                v = [x - f * y for x, y in zip(v, b)]
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is not None:
            basis.append((lead, v))
            kept.append(i)
    return kept


def _primitive(row):
    g = gcd(*row)
    if next(x for x in row if x) < 0:
        g = -g
    return [x // g for x in row]


@given(sparse_traffic())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_sparse_reducer_agrees_with_sympy_on_coordinate_traffic(A):
    m, n = A.shape
    S = sympy.Matrix(A.tolist())
    R_ref, piv_ref = S.rref()
    assert rank(A) == len(piv_ref)
    R, piv = rref(A)
    assert piv == list(piv_ref)
    assert [Fraction(int(x.p), int(x.q)) for x in R_ref] == list(R.flat)
    # kernel: per free column, the positive primitive multiple of sympy's
    # RREF kernel vector (free entry 1)
    ker, ker_ref = kernel(A), S.nullspace()
    free = [c for c in range(n) if c not in piv_ref]
    assert len(ker) == len(ker_ref) == len(free)
    for v, w, fc in zip(ker, ker_ref, free):
        assert v[fc] > 0 and gcd(*v) == 1
        assert all(x == v[fc] * y for x, y in zip(v, w))
    # from_rows keeps the first-seen independent rows, made primitive
    sub = Subspace.from_rows(A, n)
    kept = _greedy_rows(A.tolist())
    assert [list(r) for r in sub.basis] == [_primitive(list(A[i])) for i in kept]
    # coordinates in that basis, and a vector outside its span
    if sub.dim:
        B = sub.matrix()
        c = np.array([Fraction(k - 2, 3) for k in range(sub.dim)], dtype=object)
        sol = CoordinateSolver(B)
        assert list(sol.coords(c @ B)) == list(c)
        if free:
            e = np.zeros(n, dtype=object)
            e[free[0]] = 1
            assert sol.try_coords(e) is None
