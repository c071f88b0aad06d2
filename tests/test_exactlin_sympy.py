"""Differential tests of the exact kernel against sympy's exact ``Matrix``."""
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckforms.exactlin import Subspace, fmat, intersect, kernel, rank, signature

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
