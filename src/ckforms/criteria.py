"""Decision core for triples (g, h, l): the sum condition g = h + l, compact
embedding of the intersection, the case classification for products of two
simple ideals, and the Weyl-orbit properness cross-check.

A triple is presented as the ambient algebra together with two embeddings
whose targets are that algebra.  Verdicts carry machine-checkable evidence:
exact ranks, the Killing signature of the intersection, projection
dimensions, and (when enumerable) the Weyl disjointness status.

In a product g = g1 + g2 both criteria are decided from pair facts of the
factors (``_facts``).  Two placed sides split factor by factor.  A twisted
diagonal D = {(iota x, x) : x in g2} against a placed side S = S1 + S2 is
decided in g1, from S1 and iota(S2), by three identities:

- sum: D + S = g iff S1 + iota(S2) = g1, and dim(D + S) = dim g2 +
  dim(S1 + iota(S2));
- meet: D cap S = {(iota x, x) : x in S2, iota x in S1}, and (iota x, x) ->
  iota x is a Lie algebra isomorphism onto S1 cap iota(S2), so the meet's
  dim and closure are those of the g1 meet;
- signature: with iota* B1 = c B2 for c > 0 (checked exactly when the fact
  is built), B_g((iota x, x), (iota y, y)) = (1 + 1/c) B1(iota x, iota y),
  so the meet's Killing signature is that of the g1 meet.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exactlin import (
    InternalError,
    Subspace,
    int_matmul,
    intersect,
    rank,
    rank_at_least_modp,
)
from .liealg import LieAlgebra, is_compactly_embedded, span_closure
from .embeddings import Embedding, adapted_split_part, identity_embedding
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
    "check_weyl_cutoff",
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
    """The meet h cap l: its dim, the Killing signature on it, whether it
    is a subalgebra (``closed``), and ``compact``: closed with a negative
    definite signature.  In a product each value is combined from the
    factor meets of ``_facts``."""

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

class _PairFacts:
    """What the criteria read of two sides h, l (subspaces) of one algebra:
    full rank mod p of their stacked rows, its exact rank, and the dim,
    Killing signature and closure of h cap l.  Each is computed on first
    read; only the results are kept."""

    def __init__(self, alg: LieAlgebra, h: Subspace, l: Subspace):
        self.alg, self.h, self.l = alg, h, l
        self._full = {}

    def _stack(self):
        return np.vstack([self.h.matrix(), self.l.matrix()])

    def full_mod(self, p: int) -> bool:
        if p not in self._full:
            self._full[p] = rank_at_least_modp(self._stack(), self.alg.dim, p=p)
        return self._full[p]

    @cached_property
    def exact_rank(self) -> int:
        return rank(self._stack())

    @cached_property
    def meet(self) -> tuple:
        """(dim, Killing signature, closed) of h cap l."""
        sub = intersect(self.h, self.l)
        closed = span_closure(self.alg, sub).dim == sub.dim
        return sub.dim, is_compactly_embedded(self.alg, sub)[1], closed


# pair facts by (factor algebra, h part, l part), and by (g1, S1 part, S2
# part, twist) for a twisted diagonal; a missing part is None
_pair_cache = {}


def _fact(alg: LieAlgebra, h, l, iota=None) -> _PairFacts:
    """The memoized facts of parts h, l of alg (embeddings, None for 0); with
    a twist ``iota`` into alg, of h and iota(l): l's rows times R (below)."""
    key = (alg, h, l) if iota is None else (alg, h, l, iota)
    if key not in _pair_cache:
        if iota is None:
            sub = _part(alg, l)
        else:
            rows = int_matmul(_part(iota.source, l).matrix(), _twist_rows(iota))
            sub = Subspace.from_rows(rows, alg.dim)
        _pair_cache[key] = _PairFacts(alg, _part(alg, h), sub)
    return _pair_cache[key]


def _part(alg: LieAlgebra, e) -> Subspace:
    return Subspace(alg.dim, ()) if e is None else e.subspace()


def _twist_rows(iota: Embedding) -> np.ndarray:
    """R = ``iota.coord_rows()``, once R K1 R^T = c K2 holds exactly with
    c > 0 for the Killing forms K1, K2 of iota's target and source; else
    InternalError (the meet's signature would not be the g1 meet's)."""
    R = iota.coord_rows()
    K = int_matmul(int_matmul(R, iota.target.killing_ints), R.T).astype(object)
    K2 = iota.source.killing_ints.astype(object)
    i, j = np.argwhere(K2)[0]
    a, b = K[i, j], K2[i, j]
    if a * b <= 0 or (K * b != K2 * a).any():
        raise InternalError(
            "criteria._twist_rows",
            f"{iota.key}: the pulled-back Killing form is not a positive "
            f"multiple of the Killing form of {iota.source.name}",
        )
    return R


def _facts(g: LieAlgebra, h: Embedding, l: Embedding) -> list:
    """The pair facts that decide (g, h, l), memoized per factor pair.

    Two placed sides (direct sums over the factors) give one fact per factor
    of g.  A twisted diagonal D = {(iota x, x) : x in g2} against a placed
    S = S1 + S2 gives (g1, S1, iota(S2)) and (g2, g2, 0): D + S = g iff
    S1 + iota(S2) = g1, and D cap S is isomorphic to S1 cap iota(S2), with
    Killing form (1 + 1/c) B1 when iota* B1 = c B2, c > 0 (``_twist_rows``).
    The identity twist has c = 1 and iota(S2) = S2: a placed pair's fact.
    Any other pair (a simple ambient, two diagonals) is one fact of the
    whole of g, not kept."""
    if h.parts and l.parts:
        hp, lp = dict(h.parts), dict(l.parts)
        return [
            _fact(alg, hp.get(i), lp.get(i))
            for i, (alg, _c, _b) in enumerate(g.factors)
        ]
    d, s = (h, l) if h.iota is not None else (l, h)
    if d.iota is None or not s.parts:
        return [_PairFacts(g, h.subspace(), l.subspace())]
    (g1, _c1, _b1), (g2, _c2, _b2) = g.factors
    sp = dict(s.parts)
    twist = None if d.iota is identity_embedding(g1) and g1 is g2 else d.iota
    return [
        _fact(g1, sp.get(0), sp.get(1), twist),
        _fact(g2, identity_embedding(g2), None),
    ]


def check_sum(g: LieAlgebra, h: Embedding, l: Embedding) -> SumCheck:
    """Exact test that the two images span g: their stacked primitive basis
    rows are certified full rank mod the first prime of ``_CERT_PRIMES``
    that works, else ranked exactly.  Two placed sides are decided factor
    by factor from memoized pair facts: their stack is block diagonal after
    a row permutation, so it is full rank mod p exactly when every factor's
    is, and its rank is the sum of theirs.  For a twisted diagonal D and a
    placed S = S1 + S2, D + S = g iff S1 + iota(S2) = g1, and dim(D + S) =
    dim(S1 + iota(S2)) + dim g2, the rank of the (g2, g2, 0) fact."""
    facts = _facts(g, h, l)
    d = g.dim
    for p in _CERT_PRIMES:
        if all(f.full_mod(p) for f in facts):
            return SumCheck(True, d, d, f"full-rank certificate mod {p}")
    r = sum(f.exact_rank for f in facts)
    return SumCheck(r == d, r, d, "fraction-free elimination")


def check_compact_intersection(
    g: LieAlgebra, h: Embedding, l: Embedding
) -> CompactCheck:
    """Exact intersection of the images plus the compactness test: the
    intersection must be a subalgebra on which the Killing form is negative
    definite.  Two placed sides meet factor by factor, from memoized pair
    facts: the meet is the direct sum of the factor meets, [g1, g2] = 0 and
    the Killing form is block diagonal, so dims and signatures add and the
    meet is closed exactly when every factor meet is.  A twisted diagonal D
    meets a placed S = S1 + S2 in {(iota x, x) : x in S2, iota x in S1},
    isomorphic to S1 cap iota(S2) by (iota x, x) -> iota x, on which B_g is
    (1 + 1/c) B1 when iota* B1 = c B2, c > 0: the g1 meet gives its dim,
    closure and signature, and the (g2, g2, 0) fact adds a closed 0."""
    dims, sigs, closed = zip(*(f.meet for f in _facts(g, h, l)))
    dim, sig, closed = sum(dims), tuple(map(sum, zip(*sigs))), all(closed)
    return CompactCheck(closed and sig == (0, dim, 0), dim, sig, closed)


# ---------------------------------------------------------------------------
# case classification
# ---------------------------------------------------------------------------

def _proj_dims(g: LieAlgebra, e: Embedding):
    """Ranks of the two factor projections of the image V, and its meets with
    the factors by rank-nullity: dim(V cap g_i) = dim V - rank pi_j(V) for
    the other factor j.  A placed side's ranks are its parts' dims (0 on a
    factor with no part); cached on the embedding.  A dim is read as the
    number of basis images (embeddings are injective), not off the source;
    a diagonal (iota x, x) projects onto both factors with that dim, since
    iota is injective."""
    dim = len(e.IM)
    if e.proj is None and e.iota is not None:
        e.proj = [dim, dim]
    elif e.proj is None and e.parts:
        e.proj = [0] * len(g.factors)
        for i, part in e.parts:
            e.proj[i] = len(part.IM)
    elif e.proj is None:
        N = e.coord_rows()
        e.proj = [rank(N[:, off : off + alg.dim]) for alg, off, _b in g.factors]
    return e.proj, [dim - e.proj[1], dim - e.proj[0]]


def _match_case(g: LieAlgebra, h: Embedding, l: Embedding, ev: dict):
    """First matching pattern among the five product-case shapes, or None."""
    facs = g.factors
    d1, d2 = facs[0][0].dim, facs[1][0].dim
    (p1h, p2h), (m1h, m2h) = ev["h_proj"], ev["h_meet"]
    (p1l, p2l), (m1l, m2l) = ev["l_proj"], ev["l_meet"]
    h_dec = m1h + m2h == len(h.IM)
    l_dec = m1l + m2l == len(l.IM)
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


def check_weyl_cutoff(cutoff) -> None:
    """ValueError unless a Weyl cutoff is an integer at least 0: the check
    of ``classify_triple`` and ``GenerationSpec``."""
    if not isinstance(cutoff, (int, np.integer)):
        raise ValueError(f"weyl cutoff must be an integer, not {cutoff!r}")
    if cutoff < 0:
        raise ValueError("weyl cutoff must be at least 0")


def classify_triple(
    g: LieAlgebra,
    h: Embedding,
    l: Embedding,
    weyl_cutoff: int = DEFAULT_WEYL_CUTOFF,
    with_weyl: bool = True,
) -> Verdict:
    """Run both criteria, attach the case label (products of two ideals) or
    the decomposition label (simple ambient), and assemble the evidence."""
    if h.target is not g or l.target is not g:
        raise ValueError("embedding targets must be the ambient algebra")
    check_weyl_cutoff(weyl_cutoff)
    sum_check = check_sum(g, h, l)
    compact_check = check_compact_intersection(g, h, l)
    dims = {
        "g": g.dim,
        "h": len(h.IM),
        "l": len(l.IM),
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
            "h_decomposable": evh_meet[0] + evh_meet[1] == len(h.IM),
            "l_decomposable": evl_meet[0] + evl_meet[1] == len(l.IM),
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
