"""Matrix Lie algebra layer: brackets, Killing forms, Cartan involutions."""
from fractions import Fraction

import numpy as np
import pytest

from ckforms.exactlin import Subspace, fvec, signature
from ckforms.liealg import (
    LieAlgebra,
    direct_sum,
    is_compactly_embedded,
    span_closure,
    validate_structure,
)
from ckforms.realforms import build_real_form, so_basis


def test_structure_validation_passes_for_small_forms(so23, su22):
    for g in (so23, su22):
        rep = validate_structure(g)
        failed = [c for c in rep.checks if not c["passed"]]
        assert not failed, failed


def test_bracket_antisymmetry_and_jacobi_sampled(so23):
    rng = np.random.default_rng(5)
    d = so23.dim
    for _ in range(30):
        i, j, k = rng.integers(0, d, size=3)
        xy = so23.bracket_coords(_unit(d, i), _unit(d, j))
        yx = so23.bracket_coords(_unit(d, j), _unit(d, i))
        assert all(a == -b for a, b in zip(xy, yx))
        # [[x,y],z] + [[y,z],x] + [[z,x],y] = 0
        s = (
            so23.bracket_coords(xy, _unit(d, k))
            + so23.bracket_coords(
                so23.bracket_coords(_unit(d, j), _unit(d, k)), _unit(d, i)
            )
            + so23.bracket_coords(
                so23.bracket_coords(_unit(d, k), _unit(d, i)), _unit(d, j)
            )
        )
        assert all(x == 0 for x in s)


def _unit(d, i):
    v = fvec([0] * d)
    v[i] = Fraction(1)
    return v


def test_killing_form_is_symmetric_and_ad_invariant(so23):
    K = so23.killing_form
    assert np.array_equal(K, K.T)
    rng = np.random.default_rng(9)
    d = so23.dim
    for _ in range(10):
        i, j, k = rng.integers(0, d, size=3)
        # B([x,y],z) + B(y,[x,z]) = 0
        left = so23.bracket_coords(_unit(d, i), _unit(d, j)) @ K @ _unit(d, k)
        right = _unit(d, j) @ K @ so23.bracket_coords(_unit(d, i), _unit(d, k))
        assert left + right == 0


def test_killing_signature_matches_cartan_split(so23):
    # boosts pq = 6, rotations so(2)+so(3) = 4
    assert signature(so23.killing_form) == (6, 4, 0)
    assert so23.k_subspace().dim == 4
    assert so23.p_subspace().dim == 6


def test_theta_is_an_involution_fixing_k(so23):
    th = so23.theta
    assert np.array_equal(th @ th, np.eye(so23.dim, dtype=object).astype(th.dtype))
    for row in so23.k_subspace().basis:
        assert all(a == b for a, b in zip(th @ row, row))
    for row in so23.p_subspace().basis:
        assert all(a == -b for a, b in zip(th @ row, row))


def test_direct_sum_dimensions_and_block_killing(so23, su22):
    g = direct_sum(so23, su22)
    assert g.dim == so23.dim + su22.dim
    assert g.n == so23.n + su22.n
    K = g.killing_form
    d1 = so23.dim
    assert np.count_nonzero(K[:d1, d1:].astype(float)) == 0
    assert np.array_equal(K[:d1, :d1], so23.killing_form)
    assert np.array_equal(K[d1:, d1:], su22.killing_form)


def test_direct_sum_brackets_do_not_mix_factors(so23, su22):
    g = direct_sum(so23, su22)
    d = g.dim
    x = _unit(d, 2)          # factor 1
    y = _unit(d, so23.dim + 3)  # factor 2
    assert all(v == 0 for v in g.bracket_coords(x, y))


def test_span_closure_grows_to_the_generated_subalgebra(so23):
    # two boost generators of so(2,3) generate a rotation as well
    line = Subspace.from_rows(
        [so23.p_subspace().basis[0], so23.p_subspace().basis[1]]
    )
    closed = span_closure(so23, line)
    assert closed.dim > line.dim


def test_compactly_embedded_subspaces(so23):
    ok, sig = is_compactly_embedded(so23, so23.k_subspace())
    assert ok and sig == (0, 4, 0)
    bad, sig2 = is_compactly_embedded(
        so23, Subspace.from_rows([so23.p_subspace().basis[0]])
    )
    assert not bad and sig2[0] == 1


def test_matrix_and_coords_round_trip(so23):
    rng = np.random.default_rng(21)
    x = fvec(list(rng.integers(-3, 4, size=so23.dim)))
    M = so23.matrix(x)
    back = so23.coords(M)
    assert all(a == b for a, b in zip(back, x))
    assert so23.contains_matrix(M)


def test_constructor_rejects_a_non_integral_basis():
    basis = so_basis(1, 2)
    basis[0] = basis[0] * Fraction(1, 2)
    with pytest.raises(ValueError, match="half: basis matrices must be integral"):
        LieAlgebra("half", basis)
    basis = so_basis(1, 2)
    basis[1] = basis[1].astype(float)
    with pytest.raises(ValueError, match="floaty: basis matrices must be integral"):
        LieAlgebra("floaty", basis)


def test_int64_products_are_bounded_explicitly():
    big = LieAlgebra("big", [2**32 * b for b in so_basis(1, 2)])
    with pytest.raises(ValueError, match="big: bracket entries"):
        big.killing_form
    scaled = LieAlgebra("scaled", [2**20 * b for b in so_basis(1, 2)])
    K = scaled.killing_form
    # so(1,2): one rotation (tr = -2) and two boosts (tr = +2), times 2**40
    assert [K[i, i] for i in range(3)] == [2**41, 2**41, -(2**41)]
    assert all(K[i, j] == 0 for i in range(3) for j in range(3) if i != j)


def test_structure_validation_reports_a_basis_that_is_not_closed():
    # [E12, E21] = E11 - E22 lies outside span(E12, E21)
    e12 = np.array([[0, 1], [0, 0]], dtype=object)
    e21 = np.array([[0, 0], [1, 0]], dtype=object)
    rep = validate_structure(LieAlgebra("open", [e12, e21]))
    closure = [c for c in rep.checks if c["name"] == "bracket-closure"]
    assert [c["passed"] for c in closure] == [False]
    assert "bracket left the span" in closure[0]["detail"]
