"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q perfbench

They are not part of the package's test suite (``testpaths`` is ``tests``).
"""
import json
import time

import pytest

import ckforms.criteria as criteria
import ckforms.exactlin as exactlin
import ckforms.rootweyl as rootweyl
from run import GOLDEN, Runner, check_op, load_goldens, nearest_rank
from speed import P_REF_S, Timeline
from tracer import Tracer, outer_totals, self_times
from workloads import GAP_SPACE, PRODUCT_KEYS, operations, products_filter


def test_rank_wrapped_in_exactlin_is_counted_through_criteria():
    original = exactlin.rank
    tracer = Tracer()
    tracer.install()
    try:
        assert criteria.rank is exactlin.rank is rootweyl.rank
        assert criteria.rank is not original
        assert criteria.rank([[1, 2], [2, 4], [0, 1]]) == 2
    finally:
        tracer.uninstall()
    assert criteria.rank is exactlin.rank is rootweyl.rank is original
    m = tracer.metrics(lambda t: t)
    assert m["exactlin.rank.calls"] == (1, "count")
    assert m["exactlin.rank.entries"] == (6, "count")


def test_self_time_subtracts_covered_child_time():
    # root [0,10] with children [1,4] and [5,9]; [1,4] has child [2,3];
    # [5,9] has overlapping children [6,8] and [7,12], clipped at 9
    spans = [
        (-1, 0, 0.0, 10.0),
        (0, 1, 1.0, 4.0),
        (1, 2, 2.0, 3.0),
        (0, 1, 5.0, 9.0),
        (3, 2, 6.0, 8.0),
        (3, 2, 7.0, 12.0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.0, 2.0, 5.0])


def test_total_counts_recursive_spans_once():
    spans = [(-1, 0, 0.0, 10.0), (0, 1, 1.0, 5.0), (1, 0, 2.0, 3.0),
             (-1, 0, 20.0, 21.0)]
    assert outer_totals(spans, [0]) == {0: pytest.approx(11.0)}


def test_timeline_follows_sustained_slowdowns_and_outvotes_one_probe():
    # one probe ten times slow at t=3; twice as slow from t=5 to t=7
    p = P_REF_S
    ref = Timeline([(1.0, p), (2.0, p), (3.0, 10 * p), (4.0, p),
                    (5.0, 2 * p), (6.0, 2 * p), (7.0, 2 * p), (8.0, p)])
    assert ref(3.0) - ref(0.0) == pytest.approx(3.0)
    assert ref(2.5) - ref(1.5) == pytest.approx(1.0)
    assert ref(7.0) - ref(4.0) == pytest.approx(1.5)
    # after the last sample, its window (2p, p) holds
    assert ref(10.0) - ref(8.0) == pytest.approx(2 / 1.5)


def test_nearest_rank_returns_a_sample():
    values = list(range(1, 54))
    assert nearest_rank(values, 0.5) == 27
    assert nearest_rank(values, 0.8) == 43  # ten samples lie above it
    assert nearest_rank([7.0], 0.8) == 7.0


def test_traced_and_untraced_passes_write_identical_bytes(tmp_path):
    runner = Runner(tmp_path, time.monotonic() + 120)
    keys = [k for k in PRODUCT_KEYS if k.startswith("so(2,2)xso(2,2)")]
    ops = [op for op in operations("products", 0) if op["name"] in keys]
    assert len(ops) == 2
    ops.append({"name": "gap", "argv": [
        "gap", "--space", GAP_SPACE, "--samples", "2000", "--seed", "5",
        "--format", "json"]})
    plain = runner.run_pass("plain", ops, False)
    traced = runner.run_pass("traced", ops, True)
    goldens = load_goldens()
    for a, b in zip(plain["ops"], traced["ops"]):
        if a["name"] in keys:
            assert check_op("products", 0, a, goldens) is None
        assert a["rc"] == b["rc"] == 0
        with open(a["out"], "rb") as fa, open(b["out"], "rb") as fb:
            assert fa.read() == fb.read()
    assert traced["layer_metrics"]["cli.main.calls"] == [3, "count"]
    assert traced["layer_metrics"]["cartanproj.gap_experiment.calls"] == [
        1, "count"]
    assert traced["trace_overhead_s"] >= 0
    spans = json.loads((tmp_path / "traced" / "spans.json").read_text())
    assert len(spans["op_first_span"]) == 3


def test_check_op_counts_a_changed_output_as_failed(tmp_path):
    out = tmp_path / "op.out"
    out.write_text("{}\n")
    rec = {"name": PRODUCT_KEYS[0], "out": str(out), "rc": 0, "error": None}
    assert check_op("products", 0, rec, load_goldens()) == "output differs"
    rec.update(name="gap", gap={"checked": 0, "check_error": 0.0})
    assert "checked == 0" in check_op("gap", 0, rec, load_goldens())
    rec["out"] = str(tmp_path / "missing.out")
    assert "no readable output" in check_op("gap", 0, rec, load_goldens())


def test_product_keys_are_the_filtered_candidates():
    from ckforms.enumerate import GenerationSpec, generate

    keys = [r.key for r in generate(GenerationSpec(max_n=1))]
    assert len(keys) == 69
    assert list(PRODUCT_KEYS) == products_filter(keys)
    golden = json.loads((GOLDEN / "products.json").read_text())
    assert sorted(golden) == sorted(PRODUCT_KEYS)
