"""Decision core for triples (g, h, l): the sum condition g = h + l, compact
embedding of the intersection, the case classification for products of two
simple ideals, and the Weyl-orbit properness cross-check.

A triple is presented as the ambient algebra together with two embeddings
whose targets are that algebra.  Verdicts carry machine-checkable evidence:
exact ranks, the Killing signature of the intersection, projection
dimensions, and (when enumerable) the Weyl disjointness status.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exactlin import (
    Subspace,
    fmatmul,
    fzeros,
    intersect,
    kernel,
    primitive_vector,
    rank,
    rank_at_least_modp,
)
from .liealg import LieAlgebra, is_compactly_embedded, span_closure
from .embeddings import Embedding, adapted_split_part
from .rootweyl import (
    DEFAULT_WEYL_CUTOFF,
    WeylCutoffError,
    split_data,
    weyl_disjoint,
    weyl_order,
)

__all__ = [
    "SumCheck",
    "CompactCheck",
    "Verdict",
    "check_sum",
    "check_compact_intersection",
    "classify_triple",
]

_CERT_PRIMES = (999999937, 998244353)


@dataclass
class SumCheck:
    holds: bool
    rank: int
    expected: int
    method: str

    def to_json(self):
        return {
            "holds": self.holds,
            "rank": self.rank,
            "expected": self.expected,
            "method": self.method,
        }


@dataclass
class CompactCheck:
    compact: bool
    dim: int
    signature: tuple
    closed: bool
    basis: list = field(repr=False, default_factory=list)

    def to_json(self):
        return {
            "compact": self.compact,
            "dim": self.dim,
            "signature": list(self.signature),
            "subalgebra": self.closed,
        }


@dataclass
class Verdict:
    g_name: str
    h_key: str
    l_key: str
    dims: dict
    sum_check: SumCheck
    compact_check: CompactCheck | None
    case_label: str
    swapped: bool
    projections: dict | None
    weyl: dict | None
    standard_form: bool
    reject_reason: str | None

    def to_json(self):
        return {
            "triple": {"g": self.g_name, "h": self.h_key, "l": self.l_key},
            "dims": self.dims,
            "sum": self.sum_check.to_json(),
            "intersection": self.compact_check.to_json()
            if self.compact_check
            else None,
            "case": self.case_label,
            "swapped": self.swapped,
            "projections": self.projections,
            "weyl": self.weyl,
            "standard_form": self.standard_form,
            "reject_reason": self.reject_reason,
        }

    def summary(self) -> str:
        lines = [
            f"triple: g={self.g_name}  h={self.h_key}  l={self.l_key}",
            f"dims: g={self.dims['g']} h={self.dims['h']} l={self.dims['l']}"
            f" h^l={self.dims['intersection']}",
            f"[{'ok' if self.sum_check.holds else 'FAIL'}] sum g = h + l "
            f"(rank {self.sum_check.rank}/{self.sum_check.expected}, "
            f"{self.sum_check.method})",
        ]
        if self.compact_check is not None:
            c = self.compact_check
            sig = "({},{},{})".format(*c.signature)
            lines.append(
                f"[{'ok' if c.compact else 'FAIL'}] intersection compactly "
                f"embedded (dim {c.dim}, Killing signature {sig})"
            )
        if self.weyl is not None:
            st = self.weyl["status"]
            mark = "ok" if st == "disjoint" else ("--" if st != "witness" else "FAIL")
            lines.append(
                f"[{mark}] Weyl-orbit disjointness: {st} "
                f"(group order {self.weyl['order']})"
            )
        swap = " (after h/l swap)" if self.swapped else ""
        lines.append(f"case: {self.case_label}{swap}")
        lines.append(
            "verdict: standard compact form"
            if self.standard_form
            else f"verdict: Reject ({self.reject_reason})"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the two algebraic criteria
# ---------------------------------------------------------------------------

def _stacked_rows(g: LieAlgebra, h: Embedding, l: Embedding):
    rows = [primitive_vector(r) for r in h.coord_rows()]
    rows += [primitive_vector(r) for r in l.coord_rows()]
    return np.array([list(r) for r in rows], dtype=object)


def check_sum(g: LieAlgebra, h: Embedding, l: Embedding) -> SumCheck:
    """Exact test that the two images span g."""
    M = _stacked_rows(g, h, l)
    d = g.dim
    for p in _CERT_PRIMES:
        if rank_at_least_modp(M, d, p=p):
            return SumCheck(True, d, d, f"full-rank certificate mod {p}")
    r = rank(M)
    return SumCheck(r == d, r, d, "fraction-free elimination")


def _factorwise_subspaces(g: LieAlgebra, e: Embedding):
    """Per-factor coordinate subspaces when the embedding respects the
    product splitting; None for twisted diagonals and unstructured images."""
    facs = g.factors
    if len(facs) == 1:
        return [e.subspace()]
    if e.mode in ("factor", "product"):
        out = [
            Subspace.from_rows([], alg.dim) for alg, _c, _b in facs
        ]
        for idx, part in e.parts:
            out[idx] = part.subspace()
        return out
    return None


def _iota_matrix(e: Embedding):
    # columns are first-factor coordinates of the twisted basis images
    rows = e.iota.coord_rows() if e.iota is not None else None
    if rows is None:
        return None
    A = np.array([list(r) for r in rows], dtype=object)
    return A.T


def _lift_factor_vec(g: LieAlgebra, idx: int, v):
    out = fzeros(g.dim)
    off = g.factors[idx][1]
    out[off : off + len(v)] = v
    return out


def _intersection_vectors(g: LieAlgebra, h: Embedding, l: Embedding):
    """Exact basis (ambient coordinates) of the intersection of the images."""
    fh = _factorwise_subspaces(g, h)
    fl = _factorwise_subspaces(g, l)
    if fh is not None and fl is not None:
        vecs = []
        for i, (a, b) in enumerate(zip(fh, fl)):
            inter = intersect(a, b)
            for v in inter.basis:
                vecs.append(_lift_factor_vec(g, i, np.array(v, dtype=object)))
        return vecs
    if fh is None and fl is not None:
        return _diag_meets_product(g, h, fl)
    if fl is None and fh is not None:
        return _diag_meets_product(g, l, fh)
    if h.mode == "diagonal" and l.mode == "diagonal":
        Mh = _iota_matrix(h)
        Ml = _iota_matrix(l)
        ker = kernel(Mh - Ml)
        vecs = []
        for t in ker:
            c = np.array(t, dtype=object)
            img1 = fmatmul(Mh, c)
            vecs.append(_assemble_pair(g, img1, c))
        return vecs
    # unstructured fallback: stacked-kernel intersection in ambient coords
    A = Subspace.from_rows(
        [primitive_vector(r) for r in h.coord_rows()], g.dim
    )
    B = Subspace.from_rows(
        [primitive_vector(r) for r in l.coord_rows()], g.dim
    )
    return [np.array(v, dtype=object) for v in intersect(A, B).basis]


def _assemble_pair(g: LieAlgebra, v1, v2):
    facs = g.factors
    out = fzeros(g.dim)
    off1, off2 = facs[0][1], facs[1][1]
    out[off1 : off1 + len(v1)] = v1
    out[off2 : off2 + len(v2)] = v2
    return out


def _diag_meets_product(g: LieAlgebra, diag: Embedding, fw):
    """Intersection of a twisted diagonal (iota(c), c) with a factorwise
    subspace pair: solve iota(c) in F1 for c ranging over F2."""
    if diag.mode != "diagonal":
        raise ValueError("unstructured embedding pair")
    Mi = _iota_matrix(diag)
    F1, F2 = fw[0], fw[1]
    if F2.dim == 0 or F1.dim == 0:
        return []
    B2 = np.array([list(r) for r in F2.basis], dtype=object)  # dim2 x d2
    B1 = np.array([list(r) for r in F1.basis], dtype=object)  # dim1 x d1
    A = fmatmul(Mi, B2.T)  # d1 x dim2
    M = np.concatenate([A, -B1.T], axis=1)
    ker = kernel(M)
    if not ker:
        return []
    # row k of C is c = B2.T @ t for the k-th kernel vector (t, s)
    C = fmatmul(np.array([list(w[: F2.dim]) for w in ker], dtype=object), B2)
    return [
        _assemble_pair(g, img, c)
        for img, c in zip(fmatmul(C, Mi.T), C)
        if any(x != 0 for x in c)
    ]


def check_compact_intersection(
    g: LieAlgebra, h: Embedding, l: Embedding
) -> CompactCheck:
    """Exact intersection of the images plus the compactness test: the
    restricted Killing form must be negative definite."""
    vecs = _intersection_vectors(g, h, l)
    if not vecs:
        return CompactCheck(True, 0, (0, 0, 0), True, [])
    sub = Subspace.from_rows([primitive_vector(v) for v in vecs], g.dim)
    closed = span_closure(g, sub).dim == sub.dim
    compact, sig = is_compactly_embedded(g, sub)
    return CompactCheck(compact and closed, sub.dim, sig, closed, list(sub.basis))


# ---------------------------------------------------------------------------
# case classification
# ---------------------------------------------------------------------------

def _proj_dims(g: LieAlgebra, e: Embedding):
    """Dimensions of the two factor projections and factor intersections."""
    facs = g.factors
    rows = np.array([list(primitive_vector(r)) for r in e.coord_rows()], dtype=object)
    out = []
    for alg, off, _b in facs:
        block = rows[:, off : off + alg.dim]
        if not block.size or not any(x != 0 for x in block.flat):
            out.append(0)
        else:
            out.append(rank(block))
    meets = []
    fw = _factorwise_subspaces(g, e)
    if fw is not None:
        meets = [s.dim for s in fw]
    elif e.mode == "diagonal":
        # the second projection is injective on a twisted graph
        meets = [0, 0]
    else:
        amb = Subspace.from_rows(
            [primitive_vector(r) for r in e.coord_rows()], g.dim
        )
        for alg, off, _b in facs:
            cols = []
            for j in range(alg.dim):
                v = fzeros(g.dim)
                v[off + j] = Fraction(1)
                cols.append(v)
            fac_sub = Subspace.from_rows(cols, g.dim)
            meets.append(intersect(amb, fac_sub).dim)
    return out, meets


def _match_case(g: LieAlgebra, h: Embedding, l: Embedding, ev: dict):
    """First matching pattern among the five product-case shapes, or None."""
    facs = g.factors
    d1, d2 = facs[0][0].dim, facs[1][0].dim
    (p1h, p2h), (m1h, m2h) = ev["h_proj"], ev["h_meet"]
    (p1l, p2l), (m1l, m2l) = ev["l_proj"], ev["l_meet"]
    h_dec = m1h + m2h == h.source.dim
    l_dec = m1l + m2l == l.source.dim
    if p1h == d1 and p2h == 0 and p1l == 0 and p2l == d2:
        return "Case1"
    if (
        p2h == 0
        and 0 < p1h < d1
        and l_dec
        and 0 < p1l < d1
        and p2l == d2
        and m2l == d2
    ):
        return "Case2"
    if (
        h_dec
        and l_dec
        and 0 < p1h < d1
        and 0 < p2h < d2
        and 0 < p1l < d1
        and 0 < p2l < d2
    ):
        return "Case3"
    if p1h == d1 and p2h == 0 and not l_dec and p1l > 0 and p2l == d2:
        return "Case4"
    if (
        h_dec
        and 0 < p1h < d1
        and 0 < p2h
        and not l_dec
        and p1l > 0
        and p2l == d2
    ):
        return "Case5"
    return None


def _weyl_section(g, h, l, cutoff):
    sd = split_data(g)
    order = weyl_order(sd)
    try:
        Vh = adapted_split_part(h)
        Vl = adapted_split_part(l)
    except Exception as exc:  # pragma: no cover - catalog data is adapted
        return {"order": order, "status": f"unavailable: {exc}"}
    try:
        ok, witness = weyl_disjoint(sd, Vh, Vl, cutoff=cutoff)
    except WeylCutoffError:
        return {
            "order": order,
            "status": "skipped-cutoff",
            "note": "Weyl group order exceeds the enumeration cutoff; "
            "verdict rests on the algebraic criteria",
        }
    if ok:
        return {"order": order, "status": "disjoint"}
    W, v = witness
    return {
        "order": order,
        "status": "witness",
        "witness": {
            "element": [[str(x) for x in row] for row in np.array(W)],
            "vector": [str(x) for x in v],
        },
    }


def classify_triple(
    g: LieAlgebra,
    h: Embedding,
    l: Embedding,
    weyl_cutoff: int | None = DEFAULT_WEYL_CUTOFF,
    with_weyl: bool = True,
) -> Verdict:
    """Run both criteria, attach the case label (products of two ideals) or
    the decomposition label (simple ambient), and assemble the evidence."""
    if h.target is not g or l.target is not g:
        raise ValueError("embedding targets must be the ambient algebra")
    sum_check = check_sum(g, h, l)
    compact_check = check_compact_intersection(g, h, l)
    dims = {
        "g": g.dim,
        "h": h.source.dim,
        "l": l.source.dim,
        "intersection": compact_check.dim,
    }
    standard = sum_check.holds and compact_check.compact
    reason = None
    if not sum_check.holds:
        reason = "sum condition fails: h + l is a proper subspace of g"
    elif not compact_check.closed:
        reason = "intersection is not a subalgebra"
    elif not compact_check.compact:
        reason = (
            "intersection is not compactly embedded "
            "(restricted Killing form not negative definite)"
        )

    projections = None
    swapped = False
    if len(g.factors) == 2:
        evh_proj, evh_meet = _proj_dims(g, h)
        evl_proj, evl_meet = _proj_dims(g, l)
        ev = {
            "h_proj": evh_proj,
            "h_meet": evh_meet,
            "l_proj": evl_proj,
            "l_meet": evl_meet,
        }
        projections = {
            "pi1_h": evh_proj[0],
            "pi2_h": evh_proj[1],
            "pi1_l": evl_proj[0],
            "pi2_l": evl_proj[1],
            "h_decomposable": evh_meet[0] + evh_meet[1] == h.source.dim,
            "l_decomposable": evl_meet[0] + evl_meet[1] == l.source.dim,
        }
        if standard:
            label = _match_case(g, h, l, ev)
            if label is None:
                ev_sw = {
                    "h_proj": evl_proj,
                    "h_meet": evl_meet,
                    "l_proj": evh_proj,
                    "l_meet": evh_meet,
                }
                label = _match_case(g, l, h, ev_sw)
                swapped = label is not None
            case_label = label or "Reject"
            if label is None:
                standard = False
                reason = "criteria hold but no product case pattern matches"
        else:
            case_label = "Reject"
    else:
        case_label = "Decomposition" if standard else "Reject"

    weyl = None
    if with_weyl and standard:
        weyl = _weyl_section(g, h, l, weyl_cutoff)

    return Verdict(
        g_name=g.name,
        h_key=h.key,
        l_key=l.key,
        dims=dims,
        sum_check=sum_check,
        compact_check=compact_check,
        case_label=case_label,
        swapped=swapped,
        projections=projections,
        weyl=weyl,
        standard_form=standard,
        reject_reason=reason,
    )
