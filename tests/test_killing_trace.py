"""The Killing form from the trace form against the structure-tensor route."""
import numpy as np
import pytest

from ckforms.exactlin import InternalError
from ckforms.liealg import LieAlgebra
from ckforms.realforms import build_real_form, so_basis

# every real form that `table --which table1 --max-n 3`, `table --which table2
# --max-n 2` and `enumerate --max-n 1` build (the last two build subsets of
# the first), plus so(1,3), the other so(p,q) with p + q = 4
_FORMS = [
    "g2(2)",
    "so(1,2)", "so(2,2)", "so(1,3)", "so(1,4)", "so(2,4)", "so(1,6)",
    "so(3,4)", "so(2,6)", "so(4,4)", "so(1,8)", "so(3,8)", "so(4,8)",
    "so(3,12)", "so(7,8)", "so(4,12)", "so(8,8)",
    "sp(1,1)", "sp(1,2)", "sp(1,3)",
    "su(1,1)", "su(1,2)", "su(2,2)", "su(1,3)", "su(1,4)", "su(2,4)",
    "su(1,6)", "su(2,6)",
]


def _fresh(key):
    """A new algebra on the basis and metadata of a catalog form, with no
    cached structure tensor or Killing form."""
    g = build_real_form(key)
    return LieAlgebra(key, g.stack, g.theta_conjugator, g.meta)


def _tensor_killing(alg):
    """tr(ad b_i ad b_l) contracted on the dense structure tensor."""
    T, d = alg.tensor, alg.dim
    return T.reshape(d, -1) @ np.transpose(T, (0, 2, 1)).reshape(d, -1).T


@pytest.mark.parametrize("key", _FORMS)
def test_trace_route_equals_the_tensor_contraction(key):
    alg = _fresh(key)
    K = alg.killing_ints
    assert K.dtype == np.int64
    # no catalog form builds the tensor: B = (p+q-2) Tr also holds on
    # so(2,2) = sl2 + sl2 and so(1,3) = sl(2,C)
    assert alg._tensor is None
    assert np.array_equal(K, _tensor_killing(alg))


def test_algebras_without_family_metadata_keep_the_tensor_route():
    alg = LieAlgebra("so(2,3)", so_basis(2, 3))
    alg.killing_ints
    assert alg._tensor is not None


def _sl2(m):
    """The m-dimensional irreducible sl2 module on an integer basis
    (h, e, f): h = diag(m-1, m-3, ...), e the unit superdiagonal."""
    h = np.diag(np.arange(m - 1, -m, -2))
    e = np.diag(np.ones(m - 1, dtype=np.int64), 1)
    f = np.diag([k * (m - k) for k in range(1, m)], -1)
    assert np.array_equal(e @ f - f @ e, h)
    return [h, e, f]


def _blocks(*stacks):
    n = sum(len(s[0]) for s in stacks)
    out, off = [], 0
    for s in stacks:
        m = len(s[0])
        for b in s:
            M = np.zeros((n, n), dtype=np.int64)
            M[off : off + m, off : off + m] = b
            out.append(M)
        off += m
    return out


def test_trace_route_reads_a_fractional_constant_exactly():
    # on the 4-dimensional sl2 module K = 2/5 Tr: tr(h h) = 20, K(h, h) = 8
    alg = LieAlgebra("sl2[4]", _sl2(4), meta={"family": "su", "p": 1, "q": 1})
    assert np.array_equal(alg.killing_ints, _tensor_killing(
        LieAlgebra("sl2[4]", _sl2(4))
    ))
    assert alg.killing_ints[0, 0] == 8


def test_a_form_that_is_not_a_multiple_of_the_trace_form_is_refused():
    # sl2 + sl2 on modules of dimension 4 and 2, labelled simple: c = 2/5 is
    # read on the first block, and 5 does not divide tr(h h) = 2 of the second
    basis = _blocks(_sl2(4), _sl2(2))
    alg = LieAlgebra("mislabelled", basis, meta={"family": "g2"})
    with pytest.raises(InternalError, match="mislabelled: K = 2/5"):
        alg.killing_ints


def test_trace_route_keeps_the_bracket_bound():
    meta = {"family": "so", "p": 1, "q": 2}
    big = LieAlgebra("big", [2**32 * b for b in so_basis(1, 2)], meta=meta)
    with pytest.raises(ValueError, match="big: bracket entries"):
        big.killing_ints
    scaled = LieAlgebra("scaled", [2**20 * b for b in so_basis(1, 2)], meta=meta)
    # so(1,2): one rotation (tr = -2) and two boosts (tr = +2), times 2**40
    assert np.array_equal(
        scaled.killing_ints, np.diag([2**41, 2**41, -(2**41)])
    )
    assert scaled._tensor is None
