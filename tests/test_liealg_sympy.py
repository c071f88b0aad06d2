"""Differential test of the integer structure tensor against a sympy solve."""
import numpy as np
import pytest

from ckforms.realforms import build_real_form

sympy = pytest.importorskip("sympy")
from sympy import QQ  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402


def _dm(rows):
    return DomainMatrix.from_list(
        [[QQ(int(x)) for x in r] for r in rows], QQ
    ).to_sparse()


@pytest.mark.parametrize(
    "key", ["so(1,2)", "so(3,4)", "su(1,2)", "su(2,4)", "sp(1,2)", "g2(2)"]
)
def test_tensor_agrees_with_a_sympy_coordinate_solve(key):
    g = build_real_form(key)
    d = g.dim
    B = np.array([b.astype(np.int64) for b in g.basis])
    # every bracket [b_i, b_j] as a plain matrix product, row i * d + j
    C = (B[:, None] @ B[None] - B[None] @ B[:, None]).reshape(d * d, -1)
    F, Cd = _dm(B.reshape(d, -1)), _dm(C)
    # X F = C, solved on the pivot columns of F and then checked on all
    _, piv = F.rref()
    piv = list(piv)
    X = Cd.extract(list(range(d * d)), piv) * F.extract(list(range(d)), piv).inv()
    assert X * F == Cd
    # row i * d + j of X holds c_ij^k over k, i.e. tensor[i, :, j]
    expect = np.transpose(g.tensor, (0, 2, 1)).reshape(d * d, d)
    assert X.to_list() == [[QQ(int(c)) for c in row] for row in expect]
