"""Candidate generation, golden table emission, and the audit sweeps."""

import json
from collections import Counter

import pytest

import ckforms.enumerate as enum_mod
from ckforms.embeddings import CatalogError
from ckforms.enumerate import (
    EXPECTED_TABLE1,
    EXPECTED_TABLE2,
    TABLE1_FAMILIES,
    TABLE2_FAMILIES,
    GenerationSpec,
    TableEmissionError,
    case5_chain_audit,
    emit_table,
    generate,
    negative_sweep,
    verify_record,
)

# golden rows, retyped by hand so a typo in the module constant cannot
# silently agree with itself
GOLDEN_DECOMPOSITIONS = (
    ("su(2,2n)", "sp(1,n)", "su(1,2n)"),
    ("so(2,2n)", "su(1,n)", "so(1,2n)"),
    ("so(4,4n)", "so(3,4n)", "sp(1,n)"),
    ("so(4,4)", "so(1,4)", "so(3,4)"),
    ("so(3,4)", "so(1,4)", "g2(2)"),
    ("so(8,8)", "so(7,8)", "so(1,8)"),
)

GOLDEN_PRODUCT_ROWS = (
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


def test_golden_rows_match_the_module_constants():
    assert EXPECTED_TABLE1 == GOLDEN_DECOMPOSITIONS
    assert EXPECTED_TABLE2 == GOLDEN_PRODUCT_ROWS


def test_generation_counts_by_case():
    recs = generate(GenerationSpec(max_n=1))
    counts = Counter(r.case for r in recs)
    assert counts == {
        "Case1": 1,
        "Case2": 12,
        "Case3": 36,
        "Case4": 11,
        "Case5": 9,
    }
    # parameterized families contribute one extra instance per family at n=2
    counts2 = Counter(r.case for r in generate(GenerationSpec(max_n=2)))
    assert counts2["Case2"] == 18
    assert counts2["Case3"] == 81
    assert counts2["Case5"] == 12


def test_generated_keys_are_unique_and_cases_ordered():
    recs = generate(GenerationSpec(max_n=2))
    keys = [r.key for r in recs]
    assert len(set(keys)) == len(keys)
    cases = [r.case for r in recs]
    assert cases == sorted(cases)


def test_case_selection():
    recs = generate(GenerationSpec(max_n=1, cases=frozenset({1, 4})))
    assert {r.case for r in recs} == {"Case1", "Case4"}
    assert len(recs) == 12


def test_generation_spec_rejects_nonpositive_bounds():
    with pytest.raises(ValueError):
        GenerationSpec(max_n=0)


def test_intersection_dimension_formulas():
    for fam in (TABLE1_FAMILIES[0], TABLE1_FAMILIES[2], TABLE2_FAMILIES[0],
                TABLE2_FAMILIES[2]):
        for n in (1, 2, 3):
            assert fam["inter_dim"](n) == n * (2 * n + 1)
    for fam in (TABLE1_FAMILIES[1], TABLE2_FAMILIES[1]):
        for n in (1, 2, 3):
            assert fam["inter_dim"](n) == n * n - 1
    for fam in (TABLE1_FAMILIES[3], TABLE1_FAMILIES[4], *TABLE2_FAMILIES[3:8]):
        assert fam["inter_dim"](1) == 3
    assert TABLE1_FAMILIES[5]["inter_dim"](1) == 21
    assert TABLE2_FAMILIES[8]["inter_dim"](1) == 21


def test_verify_record_runs_the_classifier():
    rec = generate(GenerationSpec(max_n=1, cases=frozenset({1})))[0]
    v = verify_record(rec)
    assert v.standard_form
    assert v.case_label == "Case1"


@pytest.fixture(scope="module")
def table1_doc():
    return emit_table("table1", GenerationSpec(max_n=1))


@pytest.fixture(scope="module")
def table2_doc():
    return emit_table("table2", GenerationSpec(max_n=1))


def test_table1_emission_matches_the_golden_rows(table1_doc):
    assert tuple(r["cells"] for r in table1_doc.rows) == GOLDEN_DECOMPOSITIONS
    for row in table1_doc.rows:
        assert row["certified_by"][:2] == ["sum", "compact-intersection"]
        for inst in row["instances"]:
            assert inst["verdict"].standard_form
    # every decomposition row is below the Weyl cutoff at n = 1
    assert all(r["certified_by"][2] == "weyl-disjoint" for r in table1_doc.rows)


def test_table2_emission_matches_the_golden_rows(table2_doc):
    assert tuple(r["cells"] for r in table2_doc.rows) == GOLDEN_PRODUCT_ROWS
    inter_dims = [
        r["instances"][0]["verdict"].dims["intersection"] for r in table2_doc.rows
    ]
    assert inter_dims == [3, 0, 3, 3, 3, 3, 3, 3, 21]
    for row in table2_doc.rows[:8]:
        assert row["certified_by"][2] == "weyl-disjoint"
    # the so(8,8) x so(8,8) Weyl group is far beyond enumeration, but the
    # diagonal against a factorwise side needs one scan of a factor
    assert table2_doc.rows[8]["certified_by"][2] == "weyl-disjoint"
    for row in table2_doc.rows:
        for inst in row["instances"]:
            v = inst["verdict"]
            assert v.standard_form
            assert v.case_label == "Case5"
            assert v.swapped


def test_table_markdown_layout(table1_doc):
    text = table1_doc.to_markdown()
    lines = text.splitlines()
    assert lines[0] == "| g | g' | g'' | certified by |"
    assert lines[1] == "|---|---|---|---|"
    assert len(lines) == 2 + len(GOLDEN_DECOMPOSITIONS)
    assert lines[2].startswith("| su(2,2n) | sp(1,n) | su(1,2n) | sum, ")
    assert text.endswith("\n")


def test_table_json_layout(table2_doc):
    blob = table2_doc.to_json()
    assert blob["schema_version"] == 1
    assert blob["table"] == "table2"
    assert blob["columns"] == ["g", "l", "h", "certified by"]
    assert [tuple(r["cells"]) for r in blob["rows"]] == list(GOLDEN_PRODUCT_ROWS)
    json.dumps(blob)


def test_unknown_table_name_is_rejected():
    with pytest.raises(ValueError):
        emit_table("table3", GenerationSpec(max_n=1))


def test_emission_aborts_on_unrealizable_row(monkeypatch):
    def boom(n):
        raise CatalogError("synthetic catalog gap")

    monkeypatch.setitem(enum_mod.TABLE1_FAMILIES[0], "build", boom)
    with pytest.raises(TableEmissionError, match="cannot be realized"):
        emit_table("table1", GenerationSpec(max_n=1))


def test_emission_aborts_on_failed_verification(monkeypatch):
    from ckforms.embeddings import catalog_lookup
    from ckforms.realforms import build_real_form

    def bad(n):
        g = build_real_form("so(4,4)")
        return (
            g,
            catalog_lookup("so(4,4):so(3,4):block"),
            catalog_lookup("so(4,4):so(1,4):block"),
            "so(4,4):so(3,4)@block+so(1,4)@block",
        )

    monkeypatch.setitem(enum_mod.TABLE1_FAMILIES[0], "build", bad)
    with pytest.raises(TableEmissionError, match="failed verification") as exc:
        emit_table("table1", GenerationSpec(max_n=1))
    assert exc.value.verdict is not None
    assert not exc.value.verdict.standard_form


def test_emission_aborts_on_wrong_intersection_dimension(monkeypatch):
    monkeypatch.setitem(enum_mod.TABLE1_FAMILIES[0], "inter_dim", lambda n: 99)
    with pytest.raises(
        TableEmissionError, match="intersection dimension 3 != expected 99"
    ):
        emit_table("table1", GenerationSpec(max_n=1))


def test_emission_aborts_when_rows_go_missing(monkeypatch):
    monkeypatch.setattr(
        enum_mod, "TABLE1_FAMILIES", [enum_mod.TABLE1_FAMILIES[3]]
    )
    with pytest.raises(TableEmissionError, match="missing") as exc:
        emit_table("table1", GenerationSpec(max_n=1))
    assert "differ from the golden fixture" in str(exc.value)


def test_negative_sweep_matches_expectations():
    results = negative_sweep()
    assert [r["entry"]["key"] for r in results] == [
        "so(4,4):so(3,4)@block+so(1,4)@block",
        "so(2,4)xso(2,4):delta(so(2,4))+delta(so(2,4))",
        "so(4,4):so(1,4)@block+so(1,4)@block",
        "so(3,4):so(2,4)@block+g2(2)@g2in7",
        "so(2,4):su(1,2)@complexstruct+su(1,2)@complexstruct",
    ]
    for r in results:
        v = r["verdict"]
        expect = r["entry"]["expect"]
        assert not v.standard_form
        assert v.case_label == "Reject"
        assert v.sum_check.holds == expect["sum"]
        if "compact" in expect:
            assert v.compact_check.compact == expect["compact"]
        if "weyl_disjoint" in expect:
            assert r["weyl_disjoint"] == expect["weyl_disjoint"]
            assert r["weyl_witness"] is not None


def test_chain_audit_rederives_the_frozen_pairs():
    audit = case5_chain_audit()
    assert audit["match"]
    assert audit["derived_pairs"] == audit["frozen_pairs"]
    assert len(audit["derived_pairs"]) == 8
    states = {d[2] for d in audit["dispositions"]}
    assert states <= {"verified", "all combinations fail", "unrealizable"}
    # intermediate chains so(1,8) < so(j,8) < so(8,8) are checked and fail
    failed = {
        pair for pair, _, state in audit["dispositions"]
        if state == "all combinations fail"
    }
    assert ("so(8,8)", "so(2,8)") in failed
    assert ("so(8,8)", "so(7,8)") in failed
