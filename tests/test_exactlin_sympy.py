"""Differential tests of the exact kernel against sympy's exact ``Matrix``."""
from fractions import Fraction

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
