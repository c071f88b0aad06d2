"""Decision core for triples (g, h, l): the sum condition g = h + l, compact
embedding of the intersection, the case classification for products of two
simple ideals, and the Weyl-orbit properness cross-check.

A triple is presented as the ambient algebra together with two embeddings
whose targets are that algebra.  Verdicts carry machine-checkable evidence:
exact ranks, the Killing signature of the intersection, projection
dimensions, and (when enumerable) the Weyl disjointness status.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exactlin import intersect, rank, rank_at_least_modp
from .liealg import LieAlgebra, is_compactly_embedded, span_closure
from .embeddings import Embedding, adapted_split_part, placed_subspace
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
    "CriteriaDisagreeError",
    "check_sum",
    "check_compact_intersection",
    "classify_triple",
]

_CERT_PRIMES = (999999937, 998244353)


class CriteriaDisagreeError(Exception):
    """The triple passes the algebraic criteria, yet a little Weyl group
    element moves its split part V_h onto a vector of V_l.  A proper action
    needs Weyl-disjoint split parts (Kobayashi 1989; Benoist 1996), so the
    two criteria cannot both be right: one computation is wrong."""

    def __init__(self, g, h, l, witness):
        w, v = witness
        super().__init__(
            f"criteria disagree on g={g.name} h={h.key} l={l.key}: the "
            "algebraic criteria hold, but the Weyl element "
            f"{[[str(x) for x in row] for row in w]} maps V_h onto the "
            f"vector {[str(x) for x in v]} of V_l"
        )
        self.witness = witness


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
            mark = "ok" if st == "disjoint" else "--"
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

def check_sum(g: LieAlgebra, h: Embedding, l: Embedding) -> SumCheck:
    """Exact test that the two images span g.  Both images' primitive basis
    rows are stacked: every image row (an embedding is injective), so the
    mod-p certificate sees the same rows in the same order for every side."""
    M = np.vstack([h.subspace().matrix(), l.subspace().matrix()])
    d = g.dim
    for p in _CERT_PRIMES:
        if rank_at_least_modp(M, d, p=p):
            return SumCheck(True, d, d, f"full-rank certificate mod {p}")
    r = rank(M)
    return SumCheck(r == d, r, d, "fraction-free elimination")


def _meet(g: LieAlgebra, h: Embedding, l: Embedding):
    """h cap l: factor by factor, the placed sum of the h_i cap l_i, for two
    placed sides (direct sums over the factors); else ``intersect`` in g."""
    if not (h.parts and l.parts):
        return intersect(h.subspace(), l.subspace())
    hp, lp = dict(h.parts), dict(l.parts)
    return placed_subspace(g.dim, [
        (off, intersect(hp[i].subspace(), lp[i].subspace()))
        for i, (_alg, off, _b) in enumerate(g.factors) if i in hp and i in lp
    ])


def check_compact_intersection(
    g: LieAlgebra, h: Embedding, l: Embedding
) -> CompactCheck:
    """Exact intersection of the images plus the compactness test: the
    intersection must be a subalgebra on which the Killing form is negative
    definite.  Two placed sides meet factor by factor (``_meet``): the
    basis may differ from a full ``intersect``, its span does not."""
    sub = _meet(g, h, l)
    closed = span_closure(g, sub).dim == sub.dim
    compact, sig = is_compactly_embedded(g, sub)
    return CompactCheck(compact and closed, sub.dim, sig, closed)


# ---------------------------------------------------------------------------
# case classification
# ---------------------------------------------------------------------------

def _proj_dims(g: LieAlgebra, e: Embedding):
    """Ranks of the two factor projections of the image V, and its meets with
    the factors by rank-nullity: dim(V cap g_i) = dim V - rank pi_j(V) for
    the other factor j.  A placed side's ranks are its parts' source dims
    (0 on a factor with no part); cached on the embedding."""
    if e.proj is None and e.parts:
        e.proj = [0] * len(g.factors)
        for i, part in e.parts:
            e.proj[i] = part.source.dim
    elif e.proj is None:
        N = e.coord_rows()
        e.proj = [rank(N[:, off : off + alg.dim]) for alg, off, _b in g.factors]
    dim = e.source.dim  # an embedding is injective
    return e.proj, [dim - e.proj[1], dim - e.proj[0]]


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
    Vh = adapted_split_part(h)
    Vl = adapted_split_part(l)
    try:
        ok, witness = weyl_disjoint(sd, Vh, Vl, cutoff=cutoff)
    except WeylCutoffError:
        return {
            "order": order,
            "status": "skipped-cutoff",
            "note": "Weyl group order exceeds the enumeration cutoff; "
            "verdict rests on the algebraic criteria",
        }
    if not ok:
        raise CriteriaDisagreeError(g, h, l, witness)
    return {"order": order, "status": "disjoint"}


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
