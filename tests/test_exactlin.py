"""Exact rational linear algebra kernel."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckforms.exactlin import (
    CoordinateSolver,
    Subspace,
    fmat,
    fmatmul,
    fvec,
    intersect,
    is_rational_square,
    kernel,
    primitive_vector,
    rank,
    rank_at_least_modp,
    rank_modp,
    rational_sqrt,
    rref,
    signature,
)


def test_rank_frozen_cases():
    assert rank(fmat([[1, 2], [2, 4]])) == 1
    assert rank(fmat(np.eye(3))) == 3
    assert rank(fmat([[0, 0], [0, 0]])) == 0
    assert rank(fmat([[Fraction(1, 3), 1], [1, 3]])) == 1


def test_rank_agrees_with_numpy_on_random_integer_matrices():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.integers(-4, 5, size=(7, 9))
        expected = np.linalg.matrix_rank(m.astype(float))
        assert rank(fmat(m)) == expected


def test_rref_is_idempotent_and_preserves_rank():
    rng = np.random.default_rng(3)
    m = fmat(rng.integers(-3, 4, size=(5, 6)))
    r1, piv1 = rref(m)
    r2, piv2 = rref(r1)
    assert piv1 == piv2
    assert rank(r1) == rank(m) == len(piv1)
    assert np.array_equal(r1, r2)


def test_kernel_vectors_annihilate_and_span_the_nullspace():
    m = fmat([[1, 1, 0], [2, 2, 0]])
    ker = kernel(m)
    assert len(ker) == 2
    for v in ker:
        prod = m @ v
        assert all(x == 0 for x in prod)


def test_intersection_of_coordinate_planes_is_the_shared_axis():
    xy = Subspace.from_rows([[1, 0, 0], [0, 1, 0]])
    yz = Subspace.from_rows([[0, 1, 0], [0, 0, 1]])
    meet = intersect(xy, yz)
    assert meet.dim == 1
    v = primitive_vector(meet.basis[0])
    assert list(v) in ([0, 1, 0], [0, -1, 0])


def test_intersection_of_complementary_planes_is_zero():
    a = Subspace.from_rows([[1, 0, 0, 0], [0, 1, 0, 0]])
    b = Subspace.from_rows([[0, 0, 1, 0], [0, 0, 0, 1]])
    assert intersect(a, b).dim == 0


def test_signature_frozen_cases():
    assert signature(fmat([[1, 0, 0], [0, -1, 0], [0, 0, 0]])) == (1, 1, 1)
    assert signature(fmat(np.eye(4))) == (4, 0, 0)
    assert signature(fmat([[0, 1], [1, 0]])) == (1, 1, 0)


def test_signature_is_invariant_under_congruence():
    rng = np.random.default_rng(11)
    d = fmat(np.diag([2, 2, -3, -3, 0]))
    found = 0
    while found < 5:
        s = rng.integers(-3, 4, size=(5, 5))
        if abs(round(np.linalg.det(s.astype(float)))) < 1:
            continue
        s = fmat(s)
        assert signature(s.T @ d @ s) == (2, 2, 1)
        found += 1


def test_modular_rank_certificate_matches_exact_rank():
    rng = np.random.default_rng(19)
    m = fmat(rng.integers(-9, 10, size=(40, 40)))
    r = rank(m)
    assert rank_at_least_modp(m, r)
    assert not rank_at_least_modp(fmat([[1, 2], [2, 4]]), 2)


def test_modular_rank_certificate_accepts_entries_beyond_int64():
    assert rank_at_least_modp([[2**70, 1], [1, 1]], 2)
    assert rank_at_least_modp(fmat([[Fraction(2**80, 3), 1], [1, 0]]), 2)
    assert not rank_at_least_modp([[2**70, 2**71], [1, 2]], 2)


_ENTRIES = st.one_of(
    st.integers(-9, 9),
    st.integers(2**63, 2**70),
    st.integers(-(2**70), -(2**63)),
)


@given(
    st.lists(
        st.lists(_ENTRIES, min_size=3, max_size=3), min_size=1, max_size=5
    ),
    st.integers(0, 4),
    st.integers(0, 4),
)
@settings(max_examples=80, deadline=None)
def test_modular_rank_certificate_is_sound(rows, copy_from, target):
    # a repeated row makes rank-deficient matrices common
    rows = rows + [rows[copy_from % len(rows)]]
    if rank_at_least_modp(rows, target):
        assert rank(fmat(rows)) >= target


@given(
    st.lists(
        st.lists(st.integers(-(2**63), 2**63 - 1), min_size=4, max_size=4),
        min_size=1,
        max_size=5,
    ),
    st.integers(0, 5),
)
@settings(max_examples=60, deadline=None)
def test_modular_rank_certificate_agrees_on_int64_and_fractions(rows, target):
    as_int64 = np.array(rows, dtype=np.int64)
    one = rank_at_least_modp(fmat(rows), target)
    assert rank_modp(as_int64, target) == one
    # a stack gets one answer per matrix
    stack = np.stack([as_int64, np.zeros_like(as_int64)])
    assert list(rank_modp(stack, target)) == [one, target <= 0]


def test_coordinate_solver_round_trip():
    basis = fmat([[1, 0, 1, 0], [0, 2, 0, 0], [0, 0, 0, 3]])
    sol = CoordinateSolver(basis)
    target = fvec([2, 4, 2, -3])
    x = sol.coords(target)
    recon = x @ basis
    assert all(a == b for a, b in zip(recon, target))
    assert sol.try_coords(fvec([1, 0, 0, 0])) is None


def test_coordinate_solver_rejects_dependent_rows():
    with pytest.raises(ValueError, match="dependent"):
        CoordinateSolver(fmat([[1, 2, 0], [2, 4, 0]]))


def test_primitive_vector_clears_denominators_and_content():
    v = primitive_vector(fvec([Fraction(2, 3), Fraction(4, 3)]))
    assert list(v) == [1, 2]
    w = primitive_vector(fvec([-6, -9]))
    assert list(w) in ([2, 3], [-2, -3])


def test_rational_square_detection():
    assert is_rational_square(Fraction(49, 4))
    assert rational_sqrt(Fraction(49, 4)) == Fraction(7, 2)
    assert not is_rational_square(Fraction(2))
    assert rational_sqrt(Fraction(0)) == 0


def test_subspace_containment_and_dims():
    v = Subspace.from_rows([[1, 1], [2, 2]])
    assert v.dim == 1
    assert v.contains(fvec([3, 3]))
    assert not v.contains(fvec([1, 0]))


@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=4, max_size=4),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=60, deadline=None)
def test_rank_nullity_and_transpose_invariance(rows):
    m = fmat(rows)
    r = rank(m)
    assert r == rank(m.T)
    ker = kernel(m)
    assert r + len(ker) == 4
    for v in ker:
        assert all(x == 0 for x in m @ v)


_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@given(
    st.integers(1, 4).flatmap(
        lambda k: st.tuples(
            st.lists(st.lists(_rationals, min_size=k, max_size=k),
                     min_size=1, max_size=4),
            st.lists(st.lists(_rationals, min_size=3, max_size=3),
                     min_size=k, max_size=k),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_integer_scaled_product_equals_the_fraction_product(pair):
    a, b = fmat(pair[0]), fmat(pair[1])
    got = fmatmul(a, b)
    assert got.shape == (a @ b).shape
    assert all(type(x) is Fraction for x in got.flat)
    assert (got == a @ b).all()


def test_coordinate_solver_with_rational_rows_and_coordinates():
    basis = fmat([[Fraction(1, 2), 1, 0], [0, Fraction(2, 3), 1]])
    sol = CoordinateSolver(basis)
    x = sol.coords(fvec([Fraction(1, 4), Fraction(5, 6), Fraction(1, 2)]))
    assert list(x) == [Fraction(1, 2), Fraction(1, 2)]
    assert sol.try_coords(fvec([1, 0, 0])) is None


def test_numpy_integers_become_python_int_fractions():
    # a numpy numerator would wrap: 2**62 * 4 must not come out as 0
    m = fmat(np.array([[2**62, 1], [1, 1]], dtype=np.int64))
    assert m[0, 0] * 4 == 2**64
    assert type(m[0, 0].numerator) is int
