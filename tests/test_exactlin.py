"""Exact rational linear algebra kernel."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckforms.exactlin import (
    MODP_PRIME,
    absmax,
    CoordinateSolver,
    Subspace,
    echelon_rows,
    fmat,
    fvec,
    int_matmul,
    intersect,
    kernel,
    primitive_rows,
    rank,
    rank_at_least_modp,
    rank_modp,
    reduce_modp,
    rref,
    scaled_ints,
    signature,
    unscaled,
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
    v = primitive_rows([meet.basis[0]])[0]
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


def test_signature_folds_zero_diagonals_on_every_input_type():
    # two hyperbolic planes: every pivot needs the zero-diagonal fold
    H = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -2], [0, 0, -2, 0]])
    for M in (H, H.astype(object) * 2**70, fmat(H) / 3, H.tolist()):
        assert signature(M) == (2, 2, 0)
    # a nested list that NumPy alone would read as float64 (det = -1)
    big = 2**63
    assert signature([[big + 1, -big], [-big, big - 1]]) == (1, 1, 0)
    with pytest.raises(ValueError, match="symmetric"):
        signature(fmat([[1, 2], [3, 4]]))
    with pytest.raises(ValueError, match="symmetric"):
        signature(np.zeros((2, 3), dtype=np.int64))


def test_modular_rank_certificate_matches_exact_rank():
    rng = np.random.default_rng(19)
    m = fmat(rng.integers(-9, 10, size=(40, 40)))
    r = rank(m)
    assert rank_at_least_modp(m, r)
    assert not rank_at_least_modp(fmat([[1, 2], [2, 4]]), 2)


def test_integer_and_fraction_inputs_give_the_same_results():
    rng = np.random.default_rng(23)
    m = rng.integers(-5, 6, size=(6, 9))
    m[4] = 2 * m[1] - m[3]  # rank 5, kernel of dimension 4
    as_object = m.astype(object)
    assert all(type(x) is int for x in as_object.flat)
    fracs = fmat(m)
    # the same rows with denominators: rank and kernel see the same row space
    scaled = fracs / np.array([Fraction(k + 1, 3) for k in range(6)])[:, None]
    want_kernel = [list(v) for v in kernel(fracs)]
    assert len(want_kernel) == 4
    R0, piv0 = rref(fracs)
    for M in (m, as_object, fracs, scaled):
        assert rank(M) == 5
        assert [list(v) for v in kernel(M)] == want_kernel
        assert all(type(x) is int for v in kernel(M) for x in v)
        R, piv = rref(M)
        assert piv == piv0 and np.array_equal(R, R0)
        assert all(type(x) is Fraction for x in R.flat)
    for M in (m, as_object, fracs):
        assert np.array_equal(reduce_modp(M), reduce_modp(fracs))


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


@st.composite
def sparse_traffic(draw, big=True):
    """Integer rows shaped like the coordinate rows that the criteria
    eliminate: up to 60 x 60, about 5% nonzero entries in -4..4, some zero
    rows and columns, some rows repeated (up to a factor -2, -1, 1 or 2) and,
    with ``big``, now and then entries past 2**63.  A drawn seed fills the
    matrix, so an example stays cheap at this size; returns an object array
    of Python ints."""
    m, n = draw(st.integers(1, 60)), draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = np.where(rng.random((m, n)) < 0.05, rng.integers(-4, 5, (m, n)), 0)
    A = A.astype(object)
    A[rng.random(m) < 0.1] = 0
    A[:, rng.random(n) < 0.1] = 0
    for _ in range(draw(st.integers(0, 4))):
        A[rng.integers(m)] = A[rng.integers(m)] * int(rng.choice([-2, -1, 1, 2]))
    for _ in range(draw(st.integers(0, 3)) if big else 0):
        sign = int(rng.choice([-1, 1]))
        A[rng.integers(m), rng.integers(n)] = sign * (2**63 + int(rng.integers(2**40)))
    return A


@st.composite
def _modp_traffic(draw):
    """``sparse_traffic`` in int64, with some rows multiplied by p (zero mod
    p) and some entries moved by nonzero multiples of p (the same mod p)."""
    A = draw(sparse_traffic(big=False))
    m, n = A.shape
    for i in draw(st.lists(st.integers(0, m - 1), max_size=3, unique=True)):
        A[i] *= MODP_PRIME
    cells = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1),
                      st.sampled_from([-3, -2, -1, 1, 2, 3]))
    for i, j, k in draw(st.lists(cells, max_size=4)):
        A[i, j] += k * MODP_PRIME
    return A.astype(np.int64)


_INT64_ROWS = st.lists(
    st.lists(st.integers(-(2**63), 2**63 - 1), min_size=4, max_size=4),
    min_size=1,
    max_size=5,
).map(lambda rows: np.array(rows, dtype=np.int64))


@given(st.one_of(_INT64_ROWS, _modp_traffic()))
@settings(max_examples=120, deadline=None)
def test_modular_rank_certificate_agrees_on_int64_and_fractions(as_int64):
    # every target up to one past the largest possible rank, so the answers
    # switch from True to False at the rank mod p on both sides
    fracs = fmat(as_int64)
    # a stack gets one answer per matrix
    stack = np.stack([as_int64, np.zeros_like(as_int64)])
    for target in range(min(as_int64.shape) + 2):
        one = rank_at_least_modp(fracs, target)
        assert rank_at_least_modp(as_int64.astype(object), target) == one
        assert rank_modp(as_int64, target) == one
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


def test_primitive_rows_clear_denominators_and_content():
    v, w = primitive_rows([fvec([Fraction(2, 3), Fraction(4, 3)]), fvec([-6, -9])])
    assert list(v) == [1, 2]
    assert list(w) in ([2, 3], [-2, -3])


def test_subspace_containment_and_dims():
    v = Subspace.from_rows([[1, 1], [2, 2]])
    assert v.dim == 1
    assert v.contains(fvec([3, 3]))
    assert not v.contains(fvec([1, 0]))


def test_int_matmul_with_a_zero_factor_keeps_big_entries_exact():
    big = np.array([[2**70, 1]], dtype=object)
    assert int_matmul(np.empty((0, 1), dtype=object), big).shape == (0, 2)
    assert list(int_matmul(np.zeros((1, 1), dtype=object), big)[0]) == [0, 0]
    assert list(int_matmul(np.ones((1, 1), dtype=object), big)[0]) == [2**70, 1]


def _sparse_ints(rng, shape, density, scale=1):
    """Random integers in [-3, 3] times scale, each kept with the given
    probability (scale may be a Python int past int64)."""
    keep = rng.random(shape) < density
    out = (rng.integers(-3, 4, shape) * keep).astype(object)
    return out * scale if scale != 1 else out.astype(np.int64)


def _product_path(monkeypatch, A, B):
    """int_matmul(A, B), checked against the product on Python ints, and the
    operand whose nonzero entries it multiplied: "A", "B", or None when it
    ran on the dense ``@``."""
    import ckforms.exactlin as exactlin

    real, seen = exactlin.column_nonzeros, []
    monkeypatch.setattr(
        exactlin, "column_nonzeros", lambda M: seen.append(M.shape) or real(M)
    )
    got = int_matmul(A, B)
    monkeypatch.undo()
    want = A.astype(object) @ B.astype(object)
    assert got.shape == want.shape
    assert (got.astype(object) == want).all()
    assert len(seen) <= 1 and A.T.shape != B.shape
    path = {(): None, (B.shape,): "B", (A.T.shape,): "A"}[tuple(seen)]
    return got, path


def test_int_matmul_is_exact_on_both_sides_of_the_sparse_choice(monkeypatch):
    rng = np.random.default_rng(25)
    cases = [
        # tiny dense: below 2**18 multiply-adds
        (_sparse_ints(rng, (3, 4), 1), _sparse_ints(rng, (4, 5), 1), None),
        # large, A 1% nonzero against a half-full B
        (_sparse_ints(rng, (300, 200), 0.01), _sparse_ints(rng, (200, 40), 0.5), "A"),
        # large, B 1% nonzero
        (_sparse_ints(rng, (40, 200), 0.5), _sparse_ints(rng, (200, 300), 0.01), "B"),
        # large and half full on both sides
        (_sparse_ints(rng, (64, 80), 0.5), _sparse_ints(rng, (80, 90), 0.5), None),
        # the int64 bound with entries near 2**27: 2**54 * 200 < 2**63
        (_sparse_ints(rng, (40, 200), 0.5) * 2**25,
         _sparse_ints(rng, (200, 300), 0.01) * 2**25, "B"),
    ]
    for A, B, path in cases:
        got, took = _product_path(monkeypatch, A, B)
        assert took == path
        assert got.dtype == np.int64


def test_int_matmul_sparse_form_keeps_zero_rows_and_columns(monkeypatch):
    rng = np.random.default_rng(26)
    A = _sparse_ints(rng, (300, 200), 0.03)
    A[:10], A[:, 50:60] = 0, 0
    B = _sparse_ints(rng, (200, 120), 0.03)
    B[:, 7:19], B[100:130] = 0, 0
    got, path = _product_path(monkeypatch, A, B)
    assert path is not None and not got[:10].any()
    zeros = np.zeros((300, 200), dtype=np.int64)
    for A, B in [(zeros, B), (A, np.zeros((200, 120), dtype=np.int64))]:
        got, path = _product_path(monkeypatch, A, B)
        assert path is not None and not got.any() and got.dtype == np.int64
    # no rows on one side: an empty product
    got, _path = _product_path(monkeypatch, A[:0], B)
    assert got.shape == (0, 120)


def test_int_matmul_sparse_form_runs_on_python_ints_past_int64(monkeypatch):
    rng = np.random.default_rng(27)
    big = [
        (_sparse_ints(rng, (300, 200), 0.01, 2**70), _sparse_ints(rng, (200, 40), 0.5), "A"),
        (_sparse_ints(rng, (40, 200), 0.5), _sparse_ints(rng, (200, 300), 0.01, 3**45), "B"),
        # 2**31 * 2**31 * 200 passes 2**63 though each factor fits int64
        (_sparse_ints(rng, (40, 200), 0.5, 2**31),
         _sparse_ints(rng, (200, 300), 0.01, 2**31), "B"),
    ]
    for A, B, path in big:
        got, took = _product_path(monkeypatch, A, B)
        assert took == path
        assert got.dtype == object
        assert absmax(got) >= 2**62


def test_echelon_rows_are_one_basis_per_row_space():
    # two spanning sets of one plane, one with a dependent and a zero row
    a = np.array([[0, 3, -6, 3], [2, 1, 0, 5]], dtype=object)
    b = np.array([[2, 4, -6, 8], [0, 0, 0, 0], [-4, -5, 6, -13], [0, -1, 2, -1]],
                 dtype=object)
    want = [[1, 0, 1, 2], [0, 1, -2, 1]]
    for rows in (a, b):
        got = echelon_rows(rows)
        assert [list(r) for r in got] == want
        assert all(type(x) is int for r in got for x in r)
    # rational RREF rows are scaled to primitive integers, pivots positive
    c = np.array([[-3, 0, 1], [0, -2, 1]], dtype=object)
    assert [list(r) for r in echelon_rows(c)] == [[3, 0, -1], [0, 2, -1]]


def test_from_rows_keeps_the_first_seen_rows_made_primitive():
    rows = [
        [0, 0, 0],
        [Fraction(-2, 3), Fraction(4, 3), 0],
        [4, -8, 0],
        [0, 6, 9],
        [2, 0, 6],
        [0, 0, -5],
    ]
    v = Subspace.from_rows(rows)
    assert [list(r) for r in v.basis] == [[1, -2, 0], [0, 2, 3], [0, 0, 1]]
    assert all(type(x) is int for r in v.basis for x in r)
    # a dependent row seen first is kept in place of its later multiples
    w = Subspace.from_rows([[0, -4, -6], [1, -2, 0], [0, 2, 3]], 3)
    assert [list(r) for r in w.basis] == [[0, 2, 3], [1, -2, 0]]


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
    (la, na), (lb, nb) = scaled_ints(a), scaled_ints(b)
    got = unscaled(int_matmul(na, nb), la * lb)
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


@given(
    st.lists(
        st.lists(st.integers(-(2**80), 2**80), min_size=3, max_size=3),
        max_size=4,
    )
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_absmax_is_exact_on_python_ints(rows):
    A = np.array(rows, dtype=object).reshape(len(rows), 3)
    got = absmax(A)
    assert type(got) is int
    assert got == max(map(abs, A.flat), default=0)
    if all(abs(x) < 2**63 for x in A.flat):
        assert absmax(A.astype(np.int64)) == got
