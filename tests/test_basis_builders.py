"""Integer basis stacks of ``realforms`` against the Fraction bases they
replaced.

The reference builders below are the Fraction constructions as they stood
before the real forms were built on integers: ``fzeros`` matrices filled
with Fraction entries, the split g2 from primitive Fraction kernel vectors
of its derivation system filled entry by entry, on the octonion table built
unit pair by unit pair.
Every builder must return int64 matrices equal to its reference entry for
entry, over every real form that ``table --which table1 --max-n 3`` builds,
and so must the basis stack and split part of each built algebra.
"""
from fractions import Fraction

import numpy as np
import pytest

from ckforms import realforms
from ckforms.exactlin import fvec, fzeros, kernel, primitive_rows
from ckforms.realforms import build_real_form, parse_form_name

_F0 = Fraction(0)
_F1 = Fraction(1)


def _primitive_vector(vec):
    """``primitive_rows`` of one vector, as Fractions."""
    return fvec(primitive_rows([list(vec)])[0])


# every real form that `table --which table1 --max-n 3` builds
_TABLE1_FORMS = [
    "g2(2)",
    "so(1,2)", "so(2,2)", "so(1,4)", "so(2,4)", "so(1,6)", "so(3,4)",
    "so(2,6)", "so(4,4)", "so(1,8)", "so(3,8)", "so(4,8)", "so(3,12)",
    "so(7,8)", "so(4,12)", "so(8,8)",
    "sp(1,1)", "sp(1,2)", "sp(1,3)",
    "su(1,1)", "su(1,2)", "su(2,2)", "su(1,3)", "su(1,4)", "su(2,4)",
    "su(1,6)", "su(2,6)",
]

# ---------------------------------------------------------------------------
# the Fraction reference
# ---------------------------------------------------------------------------


def _ref_so_basis(p, q):
    n = p + q
    eta = [1] * p + [-1] * q
    out = []
    for a in range(n):
        for b in range(a + 1, n):
            M = fzeros((n, n))
            M[a, b] = _F1
            M[b, a] = -_F1 if eta[a] == eta[b] else _F1
            out.append(M)
    return out


def _ref_complex_to_real(entries, n):
    M = fzeros((2 * n, 2 * n))
    for (a, b), (re, im) in entries.items():
        M[2 * a, 2 * b] += re
        M[2 * a, 2 * b + 1] += -im
        M[2 * a + 1, 2 * b] += im
        M[2 * a + 1, 2 * b + 1] += re
    return M


def _ref_su_real_basis(p, q):
    n = p + q
    eta = [1] * p + [-1] * q
    out = []
    for a in range(n):
        for b in range(a + 1, n):
            if eta[a] == eta[b]:
                out.append({(a, b): (_F1, _F0), (b, a): (-_F1, _F0)})
                out.append({(a, b): (_F0, _F1), (b, a): (_F0, _F1)})
            else:
                out.append({(a, b): (_F1, _F0), (b, a): (_F1, _F0)})
                out.append({(a, b): (_F0, _F1), (b, a): (_F0, -_F1)})
    for a in range(n - 1):
        out.append({(a, a): (_F0, _F1), (a + 1, a + 1): (_F0, -_F1)})
    return [_ref_complex_to_real(e, n) for e in out]


def _ref_sp_entries(p, q):
    n = p + q
    eta = [1] * p + [-1] * q
    units = [tuple(_F1 if i == j else _F0 for j in range(4)) for i in range(4)]
    one, imag = units[0], units[1:]

    def neg(u):
        return tuple(-x for x in u)

    out = []
    for a in range(n):
        for b in range(a + 1, n):
            if eta[a] == eta[b]:
                out.append({(a, b): one, (b, a): neg(one)})
                out.extend({(a, b): u, (b, a): u} for u in imag)
            else:
                out.append({(a, b): one, (b, a): one})
                out.extend({(a, b): u, (b, a): neg(u)} for u in imag)
    for a in range(n):
        out.extend({(a, a): u} for u in imag)
    return out


def _ref_sp_real_basis_c2(p, q):
    out = []
    for e in _ref_sp_entries(p, q):
        ce = {}
        for (a, b), (x, y, z, w) in e.items():
            block = {(0, 0): (x, y), (0, 1): (z, w), (1, 0): (-z, w),
                     (1, 1): (x, -y)}
            for (u, v), val in block.items():
                key = (2 * a + u, 2 * b + v)
                re, im = ce.get(key, (_F0, _F0))
                ce[key] = (re + val[0], im + val[1])
        out.append(_ref_complex_to_real(ce, 2 * (p + q)))
    return out


def _ref_sp_real_basis_r4(p, q):
    n = p + q
    out = []
    for e in _ref_sp_entries(p, q):
        M = fzeros((4 * n, 4 * n))
        for (aa, bb), (x, y, z, w) in e.items():
            Q = [[x, -y, -z, -w], [y, x, -w, z], [z, w, x, -y], [w, -z, y, x]]
            for u in range(4):
                for v in range(4):
                    M[4 * aa + u, 4 * bb + v] += Q[u][v]
        out.append(M)
    return out


def _ref_boost_basis(p, q, width):
    n = width * (p + q)
    out = []
    for i in range(p):
        M = fzeros((n, n))
        for t in range(width):
            M[width * i + t, width * (p + i) + t] = _F1
            M[width * (p + i) + t, width * i + t] = _F1
        out.append(M)
    return out


_REF_QUAT = {
    ("1", "1"): ("1", 1), ("1", "i"): ("i", 1), ("1", "j"): ("j", 1),
    ("1", "k"): ("k", 1), ("i", "1"): ("i", 1), ("j", "1"): ("j", 1),
    ("k", "1"): ("k", 1), ("i", "i"): ("1", -1), ("j", "j"): ("1", -1),
    ("k", "k"): ("1", -1), ("i", "j"): ("k", 1), ("j", "i"): ("k", -1),
    ("j", "k"): ("i", 1), ("k", "j"): ("i", -1), ("k", "i"): ("j", 1),
    ("i", "k"): ("j", -1),
}


def _ref_quat_mul(a, b):
    """Quaternion product of coefficient lists in the units (1, i, j, k)."""
    units = "1ijk"
    out = [0] * 4
    for x in range(4):
        for y in range(4):
            c, s = _REF_QUAT[(units[x], units[y])]
            out[units.index(c)] += s * a[x] * b[y]
    return out


def _ref_oct_mul_table():
    """The split octonion table unit pair by unit pair: (a,b)(c,d) = (ac +
    conj(d) b, da + b conj(c)) on quaternion pairs."""

    def conj(a):
        return [a[0], -a[1], -a[2], -a[3]]

    OT = np.zeros((8, 8, 8), dtype=np.int64)
    for u in range(8):
        for v in range(8):
            a, b, c, d = ([0] * 4 for _ in range(4))
            (a if u < 4 else b)[u % 4] = 1
            (c if v < 4 else d)[v % 4] = 1
            first = np.add(_ref_quat_mul(a, c), _ref_quat_mul(conj(d), b))
            second = np.add(_ref_quat_mul(d, a), _ref_quat_mul(b, conj(c)))
            OT[u, v] = np.concatenate([first, second])
    return OT


def _ref_g2_basis():
    """The kernel of the derivation system, filled entry by entry."""
    OT = _ref_oct_mul_table()
    rows = []
    for p in range(8):
        for q in range(p + 1, 8):
            for c in range(8):
                row = np.zeros(64, dtype=np.int64)
                for r in range(8):
                    row[c * 8 + r] += OT[p, q, r]
                    row[r * 8 + p] -= OT[r, q, c]
                    row[r * 8 + q] -= OT[p, r, c]
                rows.append(row)
    ordr = [1, 2, 3, 5, 6, 7, 4]
    out = []
    for v in kernel(np.array(rows, dtype=object)):
        D = np.array(_primitive_vector(v), dtype=object).reshape(8, 8)
        out.append(np.array([[D[a, b] for b in ordr] for a in ordr], dtype=object))
    return out


def _ref_g2_split_part():
    g2 = _ref_g2_basis()
    rows_h = [list(M.reshape(-1)) for M in g2]
    rows_l = [[-x for x in M.reshape(-1)] for M in _ref_boost_basis(3, 4, 1)]
    out = []
    for c in kernel(np.array(rows_h + rows_l, dtype=object).T):
        M = fzeros((7, 7))
        for ci, B in zip(c[: len(g2)], g2):
            if ci != 0:
                M = M + ci * B
        v = _primitive_vector(list(M.reshape(-1)))
        out.append(np.array(v, dtype=object).reshape(7, 7))
    return out


def _ref_form(key):
    """(basis, a_basis) of a catalog form, as Fraction matrices."""
    fam, p, q = parse_form_name(key)
    if fam == "so":
        return _ref_so_basis(p, q), _ref_boost_basis(p, q, 1)
    if fam == "su":
        return _ref_su_real_basis(p, q), _ref_boost_basis(p, q, 2)
    if fam == "sp":
        return _ref_sp_real_basis_r4(p, q), _ref_boost_basis(p, q, 4)
    return _ref_g2_basis(), _ref_g2_split_part()


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------


def _assert_int64_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == np.int64
        assert a.shape == b.shape and (a == b).all()


def _builders(key):
    """(builder output, reference) pairs of every builder behind a form."""
    fam, p, q = parse_form_name(key)
    if fam == "so":
        return [(realforms.so_basis(p, q), _ref_so_basis(p, q)),
                (realforms._boost_basis(p, q, 1), _ref_boost_basis(p, q, 1))]
    if fam == "su":
        return [(realforms.su_real_basis(p, q), _ref_su_real_basis(p, q)),
                (realforms._boost_basis(p, q, 2), _ref_boost_basis(p, q, 2))]
    if fam == "sp":
        return [
            (realforms.sp_real_basis_r4(p, q), _ref_sp_real_basis_r4(p, q)),
            (realforms.sp_real_basis_c2(p, q), _ref_sp_real_basis_c2(p, q)),
            (realforms._boost_basis(p, q, 4), _ref_boost_basis(p, q, 4)),
        ]
    return [(realforms.g2_basis(), _ref_g2_basis()),
            (realforms._g2_split_part(), _ref_g2_split_part())]


@pytest.mark.parametrize("key", _TABLE1_FORMS)
def test_basis_builders_equal_the_fraction_bases(key):
    for got, want in _builders(key):
        _assert_int64_equal(got, want)
    basis, a_basis = _ref_form(key)
    alg = build_real_form(key)
    assert alg.stack.dtype == np.int64
    assert (alg.stack == np.array(basis, dtype=object)).all()
    _assert_int64_equal(alg.meta["a_basis"], a_basis)


def test_octonion_table_is_the_unit_by_unit_product():
    OT = realforms._oct_mul_table()
    assert OT.dtype == np.int64
    assert (OT == _ref_oct_mul_table()).all()
