"""Generation of candidate triples over the catalog, verification, and
emission of the two result tables as machine-checked documents.

The two golden tables are frozen here as printed label rows; the enumerator
must reproduce them from the catalog (anti-drift: the fixture is never
regenerated).  Families 1-3 are parameterized by n; fixed rows ignore n.
Emission aborts on the first row whose verification fails, carrying the
failing verdict.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import SCHEMA_VERSION
from .embeddings import (
    VARIANTS,
    CatalogError,
    catalog_lookup,
    diagonal,
    factor_embedding,
    identity_embedding,
    product_algebra,
    product_embedding,
)
from .realforms import build_real_form, parse_form_name
from .criteria import Verdict, classify_triple
from .rootweyl import DEFAULT_WEYL_CUTOFF

__all__ = [
    "GenerationSpec",
    "TripleRecord",
    "TableDocument",
    "TableEmissionError",
    "EXPECTED_TABLE1",
    "EXPECTED_TABLE2",
    "TABLE1_FAMILIES",
    "TABLE2_FAMILIES",
    "NEGATIVES",
    "generate",
    "verify_record",
    "emit_table",
    "negative_sweep",
    "case5_chain_audit",
]


# Golden fixtures: the printed label rows, column order as printed
# (decompositions: g | g' | g''; case-5 triples: g | l | h).
EXPECTED_TABLE1 = (
    ("su(2,2n)", "sp(1,n)", "su(1,2n)"),
    ("so(2,2n)", "su(1,n)", "so(1,2n)"),
    ("so(4,4n)", "so(3,4n)", "sp(1,n)"),
    ("so(4,4)", "so(1,4)", "so(3,4)"),
    ("so(3,4)", "so(1,4)", "g2(2)"),
    ("so(8,8)", "so(7,8)", "so(1,8)"),
)

EXPECTED_TABLE2 = (
    ("su(2,2n) x su(2,2n)", "sp(1,n) + su(1,2n)", "su(2,2n)"),
    ("so(2,2n) x so(2,2n)", "su(1,n) + so(1,2n)", "so(2,2n)"),
    ("so(4,4n) x so(4,4n)", "so(3,4n) + sp(1,n)", "so(4,4n)"),
    ("so(4,4) x so(4,4)", "so(3,4) + so(1,4)", "so(4,4)"),
    ("so(4,4) x so(3,4)", "so(3,4) + so(1,4)", "so(3,4)"),
    ("so(4,4) x so(2,4)", "so(3,4) + so(1,4)", "so(2,4)"),
    ("so(3,4) x so(3,4)", "g2(2) + so(1,4)", "so(3,4)"),
    ("so(3,4) x so(2,4)", "g2(2) + so(1,4)", "so(2,4)"),
    ("so(8,8) x so(8,8)", "so(7,8) + so(1,8)", "so(8,8)"),
)


@dataclass(frozen=True)
class GenerationSpec:
    max_n: int = 2
    cases: frozenset = frozenset({1, 2, 3, 4, 5})
    weyl_cutoff: int = DEFAULT_WEYL_CUTOFF
    # the ambient pool for the "arbitrary absolutely simple" slots
    algebras: tuple = ("so(2,4)", "su(2,2)")

    def __post_init__(self):
        if self.max_n < 1:
            raise ValueError("max_n must be at least 1")
        if self.weyl_cutoff < 0:
            raise ValueError("weyl cutoff must be at least 0")
        object.__setattr__(self, "cases", frozenset(self.cases))


@dataclass
class TripleRecord:
    key: str
    case: str
    g: object
    h: object
    l: object
    family: tuple | None = None
    n: int | None = None


# ---------------------------------------------------------------------------
# family instantiation
# ---------------------------------------------------------------------------

def _strip(catalog_key: str) -> str:
    # "so(4,4):so(3,4):spin" -> "so(3,4)@spin"
    parts = catalog_key.split(":")
    return f"{parts[1]}@{parts[2]}"


# Decompositions table: label row, parameterized flag, builder, and the
# closed-form intersection dimension (the independent cross-check).
TABLE1_FAMILIES = [
    {
        "labels": EXPECTED_TABLE1[0],
        "param": True,
        "build": lambda n: _t1_instance(
            f"su(2,{2*n})", f"sp(1,{n}):quaternionic", f"su(1,{2*n}):block"
        ),
        "inter_dim": lambda n: n * (2 * n + 1),
    },
    {
        "labels": EXPECTED_TABLE1[1],
        "param": True,
        "build": lambda n: _t1_instance(
            f"so(2,{2*n})", f"su(1,{n}):complexstruct", f"so(1,{2*n}):block"
        ),
        "inter_dim": lambda n: n * n - 1,
    },
    {
        "labels": EXPECTED_TABLE1[2],
        "param": True,
        "build": lambda n: _t1_instance(
            f"so(4,{4*n})", f"so(3,{4*n}):block", f"sp(1,{n}):quaternionic"
        ),
        "inter_dim": lambda n: n * (2 * n + 1),
    },
    {
        "labels": EXPECTED_TABLE1[3],
        "param": False,
        "build": lambda n: _t1_instance(
            "so(4,4)", "so(1,4):block", "so(3,4):spin"
        ),
        "inter_dim": lambda n: 3,
    },
    {
        "labels": EXPECTED_TABLE1[4],
        "param": False,
        "build": lambda n: _t1_instance(
            "so(3,4)", "so(1,4):block", "g2(2):g2in7"
        ),
        "inter_dim": lambda n: 3,
    },
    {
        "labels": EXPECTED_TABLE1[5],
        "param": False,
        "build": lambda n: _t1_instance(
            "so(8,8)", "so(7,8):block", "so(1,8):spin"
        ),
        "inter_dim": lambda n: 21,
    },
]


def _t1_instance(gk, h_spec, l_spec):
    g = build_real_form(gk)
    h = catalog_lookup(f"{gk}:{h_spec}")
    l = catalog_lookup(f"{gk}:{l_spec}")
    key = f"{gk}:{_strip(h.key)}+{_strip(l.key)}"
    return g, h, l, key


# Case-5 triples table: ambient pair, the twist of the diagonal, and the two
# product parts (catalog variant pinned per row; see the realization notes).
TABLE2_FAMILIES = [
    {
        "labels": EXPECTED_TABLE2[0],
        "param": True,
        "pair": lambda n: (f"su(2,{2*n})", f"su(2,{2*n})"),
        "iota": "id",
        "parts": lambda n: (
            f"sp(1,{n}):quaternionic",
            f"su(1,{2*n}):block",
        ),
        "inter_dim": lambda n: n * (2 * n + 1),
    },
    {
        "labels": EXPECTED_TABLE2[1],
        "param": True,
        "pair": lambda n: (f"so(2,{2*n})", f"so(2,{2*n})"),
        "iota": "id",
        "parts": lambda n: (
            f"su(1,{n}):complexstruct",
            f"so(1,{2*n}):block",
        ),
        "inter_dim": lambda n: n * n - 1,
    },
    {
        "labels": EXPECTED_TABLE2[2],
        "param": True,
        "pair": lambda n: (f"so(4,{4*n})", f"so(4,{4*n})"),
        "iota": "id",
        "parts": lambda n: (
            f"so(3,{4*n}):block",
            f"sp(1,{n}):quaternionic",
        ),
        "inter_dim": lambda n: n * (2 * n + 1),
    },
    {
        "labels": EXPECTED_TABLE2[3],
        "param": False,
        "pair": lambda n: ("so(4,4)", "so(4,4)"),
        "iota": "id",
        "parts": lambda n: ("so(3,4):spin", "so(1,4):block"),
        "inter_dim": lambda n: 3,
    },
    {
        "labels": EXPECTED_TABLE2[4],
        "param": False,
        "pair": lambda n: ("so(4,4)", "so(3,4)"),
        "iota": "spin",
        "parts": lambda n: ("so(3,4):block", "so(1,4):block"),
        "inter_dim": lambda n: 3,
    },
    {
        "labels": EXPECTED_TABLE2[5],
        "param": False,
        "pair": lambda n: ("so(4,4)", "so(2,4)"),
        "iota": "block",
        "parts": lambda n: ("so(3,4):spin", "so(1,4):block"),
        "inter_dim": lambda n: 3,
    },
    {
        "labels": EXPECTED_TABLE2[6],
        "param": False,
        "pair": lambda n: ("so(3,4)", "so(3,4)"),
        "iota": "id",
        "parts": lambda n: ("g2(2):g2in7", "so(1,4):block"),
        "inter_dim": lambda n: 3,
    },
    {
        "labels": EXPECTED_TABLE2[7],
        "param": False,
        "pair": lambda n: ("so(3,4)", "so(2,4)"),
        "iota": "block",
        "parts": lambda n: ("g2(2):g2in7", "so(1,4):block"),
        "inter_dim": lambda n: 3,
    },
    {
        "labels": EXPECTED_TABLE2[8],
        "param": False,
        "pair": lambda n: ("so(8,8)", "so(8,8)"),
        "iota": "id",
        "parts": lambda n: ("so(7,8):block", "so(1,8):spin"),
        "inter_dim": lambda n: 21,
    },
]


def _t2_instance(fam, n):
    g1k, g2k = fam["pair"](n)
    g = product_algebra(g1k, g2k)
    if fam["iota"] == "id":
        h = diagonal(g, None)
        h_spec = f"delta({g2k})"
    else:
        iota = catalog_lookup(f"{g1k}:{g2k}:{fam['iota']}")
        h = diagonal(g, iota)
        h_spec = f"delta({g2k},{fam['iota']})"
    p1, p2 = fam["parts"](n)
    e1 = catalog_lookup(f"{g1k}:{p1}")
    e2 = catalog_lookup(f"{g2k}:{p2}")
    l = product_embedding(g, e1, e2)
    l_spec = f"{_strip(e1.key)}x{_strip(e2.key)}"
    key = f"{g1k}x{g2k}:{h_spec}+{l_spec}"
    return g, h, l, key


def _instance_ns(fam, max_n):
    return list(range(1, max_n + 1)) if fam["param"] else [None]


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _case1(spec):
    out = []
    pool = spec.algebras
    for i in range(len(pool)):
        for j in range(i + 1, len(pool)):
            k1, k2 = pool[i], pool[j]
            g = product_algebra(k1, k2)
            h = factor_embedding(g, 0, identity_embedding(build_real_form(k1)))
            l = factor_embedding(g, 1, identity_embedding(build_real_form(k2)))
            out.append(
                TripleRecord(f"{k1}x{k2}:{k1}x0+0x{k2}", "Case1", g, h, l)
            )
    return out


def _case2(spec):
    out = []
    for fam in TABLE1_FAMILIES:
        for n in _instance_ns(fam, spec.max_n):
            g1, hp, lp, _ = fam["build"](n)
            for k2 in spec.algebras:
                g = product_algebra(g1.name, k2)
                g2 = build_real_form(k2)
                h = factor_embedding(g, 0, hp)
                l = product_embedding(g, lp, identity_embedding(g2))
                key = (
                    f"{g1.name}x{k2}:{_strip(hp.key)}x0"
                    f"+{_strip(lp.key)}x{k2}@id"
                )
                out.append(TripleRecord(key, "Case2", g, h, l, fam["labels"], n))
    return out


def _case3(spec):
    out = []
    insts = []
    for fam in TABLE1_FAMILIES:
        for n in _instance_ns(fam, spec.max_n):
            insts.append(fam["build"](n))
    for g1, h1, l1, _ in insts:
        for g2, h2, l2, _ in insts:
            g = product_algebra(g1.name, g2.name)
            h = product_embedding(g, h1, h2)
            l = product_embedding(g, l1, l2)
            key = (
                f"{g1.name}x{g2.name}:{_strip(h1.key)}x{_strip(h2.key)}"
                f"+{_strip(l1.key)}x{_strip(l2.key)}"
            )
            out.append(TripleRecord(key, "Case3", g, h, l))
    return out


# catalog-realized strict containments used for the case-4 pairs and the
# case-5 chain audit (small fixed list; the completeness caveat is recorded)
CONTAINMENTS = [
    ("so(4,4)", "so(3,4)", "spin"),
    ("so(4,4)", "so(2,4)", "block"),
    ("so(4,4)", "so(1,4)", "block"),
    ("so(3,4)", "so(2,4)", "block"),
    ("so(3,4)", "so(1,4)", "block"),
    ("so(3,4)", "g2(2)", "g2in7"),
    ("so(2,4)", "so(1,4)", "block"),
    ("so(8,8)", "so(7,8)", "block"),
    ("so(8,8)", "so(1,8)", "spin"),
]


def _case4(spec):
    out = []
    pairs = [(a, a, "id") for a in spec.algebras] + CONTAINMENTS
    for g1k, g2k, iota_key in pairs:
        g = product_algebra(g1k, g2k)
        h = factor_embedding(
            g, 0, identity_embedding(build_real_form(g1k))
        )
        iota = None if iota_key == "id" else catalog_lookup(
            f"{g1k}:{g2k}:{iota_key}"
        )
        l = diagonal(g, iota)
        dl = f"delta({g2k})" if iota_key == "id" else f"delta({g2k},{iota_key})"
        out.append(
            TripleRecord(f"{g1k}x{g2k}:{g1k}x0+{dl}", "Case4", g, h, l)
        )
    return out


def _case5(spec):
    out = []
    for fam in TABLE2_FAMILIES:
        for n in _instance_ns(fam, spec.max_n):
            g, h, l, key = _t2_instance(fam, n)
            out.append(TripleRecord(key, "Case5", g, h, l, fam["labels"], n))
    return out


_CASE_BUILDERS = {1: _case1, 2: _case2, 3: _case3, 4: _case4, 5: _case5}


def generate(spec: GenerationSpec) -> list:
    """All candidate triples for the selected cases within bounds."""
    out = []
    for c in sorted(spec.cases):
        out.extend(_CASE_BUILDERS[c](spec))
    return out


def verify_record(rec: TripleRecord, weyl_cutoff=DEFAULT_WEYL_CUTOFF) -> Verdict:
    return classify_triple(rec.g, rec.h, rec.l, weyl_cutoff=weyl_cutoff)


# ---------------------------------------------------------------------------
# table emission
# ---------------------------------------------------------------------------

class TableEmissionError(RuntimeError):
    def __init__(self, msg, verdict=None):
        super().__init__(msg)
        self.verdict = verdict


@dataclass
class TableDocument:
    which: str
    columns: tuple
    rows: list = field(default_factory=list)

    def to_markdown(self) -> str:
        head = "| " + " | ".join(self.columns) + " |"
        sep = "|" + "|".join(["---"] * len(self.columns)) + "|"
        lines = [head, sep]
        for row in self.rows:
            cert = ", ".join(row["certified_by"])
            lines.append(
                "| " + " | ".join(row["cells"]) + f" | {cert} |"
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "table": self.which,
            "columns": list(self.columns),
            "rows": [
                {
                    "cells": list(r["cells"]),
                    "certified_by": r["certified_by"],
                    "instances": [
                        {
                            "n": inst["n"],
                            "triple": inst["triple"],
                            "verdict": inst["verdict"].to_json(),
                        }
                        for inst in r["instances"]
                    ],
                }
                for r in self.rows
            ],
        }


def _certified_by(verdicts) -> list:
    tags = ["sum", "compact-intersection"]
    stats = {v.weyl["status"] for v in verdicts if v.weyl}
    if stats == {"disjoint"}:
        tags.append("weyl-disjoint")
    elif "disjoint" in stats:
        tags.append("weyl-disjoint (parameterized instances under cutoff)")
    else:
        tags.append("algebraic criteria only (Weyl cutoff)")
    return tags


def emit_table(which: str, spec: GenerationSpec) -> TableDocument:
    """Build, verify and emit one of the two result tables; abort on the
    first failing row and on any mismatch with the frozen golden rows."""
    if which == "table1":
        families = TABLE1_FAMILIES
        expected = EXPECTED_TABLE1
        columns = ("g", "g'", "g''", "certified by")

        def builder(fam, n):
            return fam["build"](n)

    elif which == "table2":
        families = TABLE2_FAMILIES
        expected = EXPECTED_TABLE2
        columns = ("g", "l", "h", "certified by")
        builder = _t2_instance
    else:
        raise ValueError(f"unknown table {which!r} (use table1 or table2)")

    doc = TableDocument(which, columns)
    produced = []
    for fam in families:
        instances = []
        verdicts = []
        for n in _instance_ns(fam, spec.max_n):
            try:
                g, h, l, key = builder(fam, n)
            except CatalogError as exc:
                raise TableEmissionError(
                    f"{which}: row {fam['labels']} cannot be realized: {exc}"
                ) from exc
            v = classify_triple(g, h, l, weyl_cutoff=spec.weyl_cutoff)
            if not v.standard_form:
                raise TableEmissionError(
                    f"{which}: row {fam['labels']}"
                    + (f" (n={n})" if n else "")
                    + f" failed verification: {v.reject_reason}",
                    verdict=v,
                )
            want = fam["inter_dim"](n or 1)
            got = v.dims["intersection"]
            if got != want:
                raise TableEmissionError(
                    f"{which}: row {fam['labels']}"
                    + (f" (n={n})" if n else "")
                    + f" intersection dimension {got} != expected {want}",
                    verdict=v,
                )
            instances.append({"n": n, "triple": key, "verdict": v})
            verdicts.append(v)
        produced.append(fam["labels"])
        doc.rows.append(
            {
                "cells": fam["labels"],
                "instances": instances,
                "certified_by": _certified_by(verdicts),
            }
        )
    if sorted(produced) != sorted(expected):
        missing = [r for r in expected if r not in produced]
        extra = [r for r in produced if r not in expected]
        raise TableEmissionError(
            f"{which}: emitted rows differ from the golden fixture; "
            f"missing {missing}, unexpected {extra}"
        )
    return doc


# ---------------------------------------------------------------------------
# negative sweep
# ---------------------------------------------------------------------------

def _neg_nested_blocks():
    g = build_real_form("so(4,4)")
    return (
        g,
        catalog_lookup("so(4,4):so(3,4):block"),
        catalog_lookup("so(4,4):so(1,4):block"),
    )


def _neg_double_diagonal():
    g = product_algebra("so(2,4)", "so(2,4)")
    d = diagonal(g, None)
    return g, d, d


def _neg_identical_blocks():
    g = build_real_form("so(4,4)")
    e = catalog_lookup("so(4,4):so(1,4):block")
    return g, e, e


def _neg_signature_mismatch():
    # the sum closes but the intersection has indefinite restricted Killing
    g = build_real_form("so(3,4)")
    return (
        g,
        catalog_lookup("so(3,4):so(2,4):block"),
        catalog_lookup("so(3,4):g2(2)"),
    )


def _neg_complex_pair():
    g = build_real_form("so(2,4)")
    e = catalog_lookup("so(2,4):su(1,2):complexstruct")
    return g, e, e


NEGATIVES = [
    {
        "key": "so(4,4):so(3,4)@block+so(1,4)@block",
        "build": _neg_nested_blocks,
        "expect": {"sum": False},
        "note": "nested keep-first blocks: the small block sits inside the big one",
    },
    {
        "key": "so(2,4)xso(2,4):delta(so(2,4))+delta(so(2,4))",
        "build": _neg_double_diagonal,
        "expect": {"sum": False, "compact": False, "weyl_disjoint": False},
        "note": "diagonal against itself: indefinite intersection, identity witness",
    },
    {
        "key": "so(4,4):so(1,4)@block+so(1,4)@block",
        "build": _neg_identical_blocks,
        "expect": {"sum": False},
        "note": "identical subalgebras never span",
    },
    {
        "key": "so(3,4):so(2,4)@block+g2(2)@g2in7",
        "build": _neg_signature_mismatch,
        "expect": {"sum": True, "compact": False, "weyl_disjoint": False},
        "note": "sum closes but the intersection Killing signature is indefinite",
    },
    {
        "key": "so(2,4):su(1,2)@complexstruct+su(1,2)@complexstruct",
        "build": _neg_complex_pair,
        "expect": {"sum": False},
        "note": "identical realified subalgebras",
    },
]


def negative_sweep(weyl_cutoff=DEFAULT_WEYL_CUTOFF) -> list:
    """Classify every documented near-miss; returns per-entry results with
    the verdict and the Weyl disjointness outcome for cross-checking."""
    from .rootweyl import split_data, weyl_disjoint
    from .embeddings import adapted_split_part

    results = []
    for entry in NEGATIVES:
        g, h, l = entry["build"]()
        v = classify_triple(g, h, l, weyl_cutoff=weyl_cutoff)
        sd = split_data(g)
        ok, witness = weyl_disjoint(
            sd, adapted_split_part(h), adapted_split_part(l), cutoff=weyl_cutoff
        )
        results.append(
            {
                "entry": entry,
                "verdict": v,
                "weyl_disjoint": ok,
                "weyl_witness": witness,
            }
        )
    return results


# ---------------------------------------------------------------------------
# case-5 chain audit
# ---------------------------------------------------------------------------

def _realizations(big_key: str, small_key: str) -> list:
    """Catalog variants realizing small inside big: every variant that
    ``catalog_lookup`` accepts (each builder refuses an impossible pair at
    once).  An algebra sits inside itself only as the identity."""
    if big_key == small_key:
        return ["id"]
    out = []
    for v in VARIANTS:
        try:
            catalog_lookup(f"{big_key}:{small_key}:{v}")
        except CatalogError:
            continue
        out.append(v)
    return out


def _chain_pool(g1_key: str, gpp_key: str) -> list:
    """Same-family algebras sitting between gpp and g1, plus g1 itself.
    Cross-family chains close only at the top in this catalog."""
    fb, p, q = parse_form_name(g1_key)
    fs, p1, q1 = parse_form_name(gpp_key)
    pool = {g1_key}
    if fb == fs and fb in ("so", "su"):
        for a in range(p1, p + 1):
            for b in range(q1, q + 1):
                k = f"{fb}({a},{b})"
                if k != gpp_key:
                    pool.add(k)
    return sorted(pool)


def case5_chain_audit() -> dict:
    """Re-derive the diagonal-against-product ambient pairs from catalog
    chains and verification alone, then compare with the frozen families.

    For each decomposition row (g1, g', g'') at n = 1, both orientations of
    (g', g'') are tried; every catalog algebra k with g'' properly contained
    in k contained in g1 yields candidate triples (g1 x k, delta(k), l' + l'')
    over all catalog realizations, kept if any combination verifies."""
    frozen = set()
    for fam in TABLE2_FAMILIES:
        frozen.add(fam["pair"](1))
    derived = set()
    dispositions = []
    for fam in TABLE1_FAMILIES:
        g1, hp, lp, _ = fam["build"](1)
        g1k = g1.name
        gp, gpp = hp.source.name, lp.source.name
        for gprime, gdp in ((gp, gpp), (gpp, gp)):
            for k in _chain_pool(g1k, gdp):
                pair = (g1k, k)
                if pair in derived:
                    continue
                ups = _realizations(g1k, k)
                downs = _realizations(k, gdp)
                l1s = _realizations(g1k, gprime)
                if not (ups and downs and l1s):
                    dispositions.append((pair, gdp, "unrealizable"))
                    continue
                hit = False
                for up in ups:
                    for l1v in l1s:
                        for dv in downs:
                            g = product_algebra(g1k, k)
                            iota = None if up == "id" else catalog_lookup(
                                f"{g1k}:{k}:{up}"
                            )
                            h = diagonal(g, iota)
                            l = product_embedding(
                                g,
                                catalog_lookup(f"{g1k}:{gprime}:{l1v}"),
                                catalog_lookup(f"{k}:{gdp}:{dv}"),
                            )
                            v = classify_triple(g, h, l, with_weyl=False)
                            if v.standard_form:
                                hit = True
                                break
                        if hit:
                            break
                    if hit:
                        break
                if hit:
                    derived.add(pair)
                    dispositions.append((pair, gdp, "verified"))
                else:
                    dispositions.append((pair, gdp, "all combinations fail"))
    return {
        "derived_pairs": sorted(derived),
        "frozen_pairs": sorted(frozen),
        "match": derived == frozen,
        "dispositions": dispositions,
    }
