"""The benchmark against the package it drives.

``perfbench/tracer.py`` wraps a fixed list of ckforms functions, methods and
properties by name, and its ``install`` fails on a name the package no
longer has.  perfbench's own self-tests are outside ``testpaths``, so this
test loads the tracer from its file and checks that every name still
installs and uninstalls.  It also loads ``perfbench/workloads.py`` and checks
that the ``products`` traffic takes the placed-side route, shares its factor
pair facts and decides its diagonal triples in the factors, and that the
``table1`` and ``products`` operations write the bytes of
``perfbench/golden/``, so a changed output fails here and not only as a
lower ``ok_ratio`` in the benchmark.
"""
import importlib.util
import json
import sys
from pathlib import Path

import ckforms.cli  # (loads every layer the tracer wraps)
from ckforms import criteria

_BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", _BENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load("tracer")


def _targets(tracer):
    """(owner, attribute) of every wrapped name, in ``WRAPPED`` order."""
    out = []
    for layer, funcs in tracer.WRAPPED.items():
        module = sys.modules[f"ckforms.{layer}"]
        for f in funcs:
            if "." in f:
                cls_name, attr = f.split(".")
                out.append((getattr(module, cls_name), attr))
            else:
                out.append((module, f))
    return out


def test_the_benchmark_tracer_installs_every_wrapper():
    tracer = _load_tracer()
    targets = _targets(tracer)
    before = [vars(owner)[attr] for owner, attr in targets]
    t = tracer.Tracer()
    t.install()
    try:
        installed = [vars(owner)[attr] for owner, attr in targets]
    finally:
        t.uninstall()
    assert all(a is not b for a, b in zip(installed, before))
    assert all(vars(owner)[attr] is b for (owner, attr), b in zip(targets, before))


def test_product_workload_sides_are_placed_from_their_parts():
    # every side that is not a diagonal is read off its cached catalog parts
    placed = 0
    for key in _load("workloads").PRODUCT_KEYS:
        _g, h, l, _key = ckforms.cli.parse_triple(key)
        specs = key.split(":", 1)[1].split("+")
        for spec, side in zip(specs, (h, l)):
            if not spec.startswith("delta"):
                assert side.parts, key
                placed += 1
    # 53 triples, 17 of them with one diagonal side
    assert placed == 2 * 53 - 17


def test_placed_product_triples_share_eight_factor_pairs(monkeypatch):
    # the 36 triples with two placed sides fill 72 factor slots with 8
    # distinct (factor, h part, l part) pairs, each computed once
    monkeypatch.setattr(criteria, "_pair_cache", {})
    triples = [ckforms.cli.parse_triple(key)[:3]
               for key in _load("workloads").PRODUCT_KEYS]
    placed = [(g, h, l) for g, h, l in triples if h.parts and l.parts]
    assert len(placed) == 36
    for g, h, l in placed:
        criteria.check_sum(g, h, l)
        criteria.check_compact_intersection(g, h, l)
    assert len(criteria._pair_cache) == 8


def test_diagonal_product_triples_build_every_fact_on_a_factor(
    built_fact_algebras,
):
    # the 17 triples with a twisted diagonal side decide both criteria from
    # factor pair facts, and build none on the product ambient
    triples = [ckforms.cli.parse_triple(key)[:3]
               for key in _load("workloads").PRODUCT_KEYS]
    diagonal = [(g, h, l) for g, h, l in triples
                if h.iota is not None or l.iota is not None]
    assert len(diagonal) == 17
    for g, h, l in diagonal:
        criteria.check_sum(g, h, l)
        criteria.check_compact_intersection(g, h, l)
    assert built_fact_algebras
    assert all(len(alg.factors) == 1 for alg in built_fact_algebras)


def test_table1_and_product_outputs_are_the_golden_bytes(tmp_path):
    workloads = _load("workloads")
    golden = _BENCH / "golden"
    want = {"table1": (golden / "table1.json").read_bytes()}
    products = json.loads((golden / "products.json").read_text(encoding="utf-8"))
    assert sorted(products) == sorted(workloads.PRODUCT_KEYS)
    want.update((k, v.encode("utf-8")) for k, v in products.items())
    ops = workloads.operations("table1", 0) + workloads.operations("products", 0)
    assert len(ops) == 1 + 53
    out = tmp_path / "op.out"
    for op in ops:
        assert ckforms.cli.main([*op["argv"], "--out", str(out)]) == 0, op["name"]
        assert out.read_bytes() == want[op["name"]], op["name"]
