"""Command line interface.

Triple specifications use a small grammar:

    <ambient>:<h-spec>+<l-spec>

The ambient is a single algebra ``so(4,4)`` or a two-factor product
``so(4,4)xso(2,4)``.  Each side is one of

    <alg>[@<variant>]          subalgebra of a single-factor ambient
    <p1>x<p2>                  product side; each part is <alg>[@<variant>]
                               or 0 for the zero part
    delta(<alg>[,<iota>])      twisted diagonal in a product ambient; the
    delta-<alg>                copy lives in factor 2, <iota> names its
                               realization inside factor 1

Variants are the catalog realizations: block, complexstruct, quaternionic,
spin, g2in7, id.  When a variant is omitted the catalog default applies.
A diagonal side is the catalog key ``<g1>x<g2>:<side>``, so it is parsed and
cached by ``catalog_lookup`` alone.  Product separators are the letter x
directly followed by an algebra atom (``embeddings.split_product``), so
variant names containing x (complexstruct) do not need escaping.

Exit codes: 0 verification succeeded / command completed, 1 the triple or
table failed a mathematical criterion, 2 malformed input or unknown keys,
3 a defect of the program, reported on stderr: the algebraic criteria and
the Weyl-orbit cross-check disagree (with the triple), or an internal
invariant failed ("internal error in <stage>: ...").
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import SCHEMA_VERSION, __version__
from .cartanproj import GapSpaceError, gap_experiment, gap_space_keys
from .criteria import CriteriaDisagreeError, classify_triple
from .embeddings import (
    CatalogError,
    _split_top,
    catalog_lookup,
    factor_embedding,
    normalize_algebra_key,
    product_algebra,
    product_embedding,
    split_product,
)
from .enumerate import (
    GenerationSpec,
    TableEmissionError,
    emit_table,
    generate,
    verify_record,
)
from .exactlin import InternalError
from .realforms import build_real_form
from .rootweyl import DEFAULT_WEYL_CUTOFF

__all__ = ["main", "parse_triple", "TripleSyntaxError"]


class TripleSyntaxError(ValueError):
    pass


def _parse_part(part: str):
    """'so(3,4)@spin' -> ('so(3,4)', 'spin'); '0' -> None."""
    if part == "0":
        return None
    bits = part.split("@")
    if len(bits) > 2 or not bits[0]:
        raise TripleSyntaxError(f"malformed part {part!r}")
    alg = normalize_algebra_key(bits[0])
    variant = bits[1] if len(bits) == 2 else None
    if variant == "":
        raise TripleSyntaxError(f"empty variant in {part!r}")
    return alg, variant


def _part_lookup(factor_key: str, part):
    alg, variant = part
    key = f"{factor_key}:{alg}" + (f":{variant}" if variant else "")
    return catalog_lookup(key)


def _resolve_side(g, factor_keys, spec: str, side: str):
    if spec.startswith("delta"):
        return catalog_lookup(f"{'x'.join(factor_keys)}:{spec}")

    parts = [_parse_part(p) for p in split_product(spec)]
    if len(parts) == 1:
        if parts[0] is None:
            raise TripleSyntaxError(f"{side}: the zero side is not allowed")
        if len(factor_keys) != 1:
            raise TripleSyntaxError(
                f"{side}: a product ambient needs explicit placement; "
                f"write <part>x0, 0x<part>, or delta(...)"
            )
        return _part_lookup(factor_keys[0], parts[0])
    if len(parts) != 2 or len(factor_keys) != 2:
        raise TripleSyntaxError(
            f"{side}: expected one part per ambient factor in {spec!r}"
        )
    embs = [
        None if p is None else _part_lookup(fk, p)
        for fk, p in zip(factor_keys, parts)
    ]
    if embs[0] is None and embs[1] is None:
        raise TripleSyntaxError(f"{side}: at least one part must be nonzero")
    if embs[1] is None:
        return factor_embedding(g, 0, embs[0])
    if embs[0] is None:
        return factor_embedding(g, 1, embs[1])
    return product_embedding(g, embs[0], embs[1])


def parse_triple(text: str):
    """Resolve a triple specification to (g, h, l, canonical key)."""
    s = text.replace(" ", "").lower()
    top = _split_top(s, ":")
    if len(top) < 2:
        raise TripleSyntaxError(
            f"expected <ambient>:<h-spec>+<l-spec>, got {text!r}"
        )
    g_spec, rest = top[0], ":".join(top[1:])
    sides = _split_top(rest, "+")
    if len(sides) != 2 or not sides[0] or not sides[1]:
        raise TripleSyntaxError(
            f"expected exactly one + between h and l in {text!r}"
        )
    factor_keys = [normalize_algebra_key(f) for f in split_product(g_spec)]
    if len(factor_keys) == 1:
        g = build_real_form(factor_keys[0])
    elif len(factor_keys) == 2:
        g = product_algebra(*factor_keys)
    else:
        raise TripleSyntaxError("ambients have at most two factors")
    h = _resolve_side(g, factor_keys, sides[0], "h")
    l = _resolve_side(g, factor_keys, sides[1], "l")
    key = f"{'x'.join(factor_keys)}:{sides[0]}+{sides[1]}"
    return g, h, l, key


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _parse_cases(text: str) -> frozenset:
    try:
        cases = frozenset(int(t) for t in text.split(",") if t)
    except ValueError:
        raise TripleSyntaxError(f"malformed case list {text!r}")
    if not cases or not cases <= {1, 2, 3, 4, 5}:
        raise TripleSyntaxError(f"cases must be within 1..5, got {text!r}")
    return cases


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    g, h, l, key = parse_triple(args.triple)
    v = classify_triple(g, h, l, weyl_cutoff=args.weyl_cutoff)
    if args.format == "json":
        _emit(
            _json_text(
                {
                    "schema_version": SCHEMA_VERSION,
                    "input": key,
                    "verdict": v.to_json(),
                }
            ),
            args.out,
        )
    else:
        _emit(v.summary() + "\n", args.out)
    return 0 if v.standard_form else 1


def _cmd_enumerate(args) -> int:
    spec = GenerationSpec(
        max_n=args.max_n,
        cases=_parse_cases(args.cases),
        weyl_cutoff=args.weyl_cutoff,
    )
    recs = generate(spec)
    results = [(r, verify_record(r, spec.weyl_cutoff)) for r in recs]
    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "spec": {
                "max_n": spec.max_n,
                "cases": sorted(spec.cases),
                "weyl_cutoff": spec.weyl_cutoff,
            },
            "triples": [
                {"key": r.key, "case": r.case, "verdict": v.to_json()}
                for r, v in results
            ],
        }
        _emit(_json_text(doc), args.out)
    else:
        lines = []
        for r, v in results:
            mark = "ok" if v.standard_form else "REJECT"
            tail = "" if v.standard_form else f"  ({v.reject_reason})"
            lines.append(f"[{mark}] {r.case}  {r.key}{tail}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if all(v.standard_form for _, v in results) else 1


def _cmd_table(args) -> int:
    spec = GenerationSpec(max_n=args.max_n, weyl_cutoff=args.weyl_cutoff)
    try:
        doc = emit_table(args.which, spec)
    except TableEmissionError as exc:
        sys.stderr.write(f"table emission aborted: {exc}\n")
        if exc.verdict is not None:
            sys.stderr.write(exc.verdict.summary() + "\n")
        return 1
    if args.format == "json":
        _emit(_json_text(doc.to_json()), args.out)
    else:
        _emit(doc.to_markdown(), args.out)
    return 0


def _cmd_gap(args) -> int:
    report = gap_experiment(args.space, samples=args.samples, seed=args.seed)
    if args.format == "md":
        lines = [
            f"space: {report.space}",
            f"samples: {report.samples}  seed: {report.seed}",
            f"fitted_epsilon: {report.fitted_epsilon!r}",
            f"fitted_C: {report.fitted_C!r}",
            f"min_margin: {report.min_margin!r}",
            f"consistency: {report.checked} group elements, max error "
            f"{report.check_error:.3e}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(
            _json_text(
                {"schema_version": SCHEMA_VERSION, **report.to_json()}
            ),
            args.out,
        )
    return 0


def _cmd_info(args) -> int:
    from .embeddings import VARIANTS

    doc = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "algebra_families": ["so(p,q)", "su(p,q)", "sp(p,q)", "g2(2)"],
        "catalog_variants": sorted(VARIANTS),
        "gap_spaces": gap_space_keys(),
        "tables": ["table1", "table2"],
        "default_weyl_cutoff": DEFAULT_WEYL_CUTOFF,
    }
    if args.format == "json":
        _emit(_json_text(doc), args.out)
    else:
        lines = [
            f"ckforms {__version__}",
            "algebra families: " + ", ".join(doc["algebra_families"]),
            "catalog variants: " + ", ".join(doc["catalog_variants"]),
            "gap spaces: " + ", ".join(doc["gap_spaces"]),
            "tables: table1 (decompositions), table2 (standard triples)",
            f"default Weyl cutoff: {DEFAULT_WEYL_CUTOFF}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every
    later ``main`` in the process (parsing keeps no state in it)."""
    ap = argparse.ArgumentParser(
        prog="ckforms",
        description="verify and enumerate standard compact form triples",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, fmt_default):
        p.add_argument(
            "--format", choices=("json", "md"), default=fmt_default
        )
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("verify", help="classify one triple")
    p.add_argument("--triple", required=True)
    p.add_argument("--weyl-cutoff", type=int, default=DEFAULT_WEYL_CUTOFF)
    common(p, "md")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("enumerate", help="generate and verify candidates")
    p.add_argument("--max-n", type=int, default=1)
    p.add_argument("--cases", default="1,2,3,4,5")
    p.add_argument("--weyl-cutoff", type=int, default=DEFAULT_WEYL_CUTOFF)
    common(p, "md")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("table", help="emit a verified result table")
    p.add_argument("--which", required=True, choices=("table1", "table2"))
    p.add_argument("--max-n", type=int, default=2)
    p.add_argument("--weyl-cutoff", type=int, default=DEFAULT_WEYL_CUTOFF)
    common(p, "md")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("gap", help="properness gap experiment")
    p.add_argument("--space", required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    common(p, "json")
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("info", help="catalog and configuration summary")
    common(p, "md")
    p.set_defaults(func=_cmd_info)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CriteriaDisagreeError, InternalError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (TripleSyntaxError, CatalogError, GapSpaceError, ValueError) as exc:
        # KeyError subclasses repr their payload when formatted directly
        msg = exc.args[0] if exc.args else exc
        sys.stderr.write(f"error: {msg}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
