"""End-to-end acceptance: one test per shipped guarantee.

Each criterion below is self-contained and asserts the stated tolerance;
`pytest -v` prints one pass/fail line per criterion.
"""

import json
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.linalg import expm

from ckforms.cartanproj import (
    GroupElement,
    cartan_projection,
    gap_experiment,
    mu_norm,
)
from ckforms.embeddings import product_algebra
from ckforms.enumerate import (
    GenerationSpec,
    emit_table,
    generate,
    negative_sweep,
    verify_record,
)
from ckforms.exactlin import signature, unscaled
from ckforms.realforms import build_real_form, parse_form_name
from ckforms.rootweyl import split_data

_CKFORMS = shutil.which("ckforms")


def _cli(*args):
    cmd = [_CKFORMS, *args] if _CKFORMS else [sys.executable, "-m", "ckforms.cli", *args]
    return subprocess.run(cmd, capture_output=True)


@pytest.fixture(scope="module")
def table1_run():
    t0 = time.perf_counter()
    doc = emit_table("table1", GenerationSpec(max_n=3))
    return doc, time.perf_counter() - t0


@pytest.fixture(scope="module")
def table2_run():
    t0 = time.perf_counter()
    doc = emit_table("table2", GenerationSpec(max_n=2))
    return doc, time.perf_counter() - t0


@pytest.fixture(scope="module")
def candidate_sweep():
    recs = generate(GenerationSpec(max_n=1))
    return [(rec, verify_record(rec)) for rec in recs]


def _instance_verdicts(doc):
    for row in doc.rows:
        for inst in row["instances"]:
            yield row, inst


def test_criterion_1_decomposition_table_reproduction(table1_run):
    doc, elapsed = table1_run
    assert elapsed < 300.0, f"table1 emission took {elapsed:.1f}s"
    assert tuple(r["cells"] for r in doc.rows) == (
        ("su(2,2n)", "sp(1,n)", "su(1,2n)"),
        ("so(2,2n)", "su(1,n)", "so(1,2n)"),
        ("so(4,4n)", "so(3,4n)", "sp(1,n)"),
        ("so(4,4)", "so(1,4)", "so(3,4)"),
        ("so(3,4)", "so(1,4)", "g2(2)"),
        ("so(8,8)", "so(7,8)", "so(1,8)"),
    )
    # parameterized rows carry instances n = 1..3; every instance passes both
    # exact criteria (the checks are integer ranks and signatures, tolerance 0)
    for row, inst in _instance_verdicts(doc):
        v = inst["verdict"]
        assert v.sum_check.holds and v.sum_check.rank == v.sum_check.expected
        assert v.compact_check.compact and v.compact_check.closed
        assert v.standard_form
    for row in doc.rows[:3]:
        assert [i["n"] for i in row["instances"]] == [1, 2, 3]


def test_criterion_2_standard_triple_table_reproduction(table2_run):
    doc, elapsed = table2_run
    assert elapsed < 600.0, f"table2 emission took {elapsed:.1f}s"
    cells = [tuple(r["cells"]) for r in doc.rows]
    assert len(cells) == 9
    # the four worked example spaces all appear
    assert ("su(2,2n) x su(2,2n)", "sp(1,n) + su(1,2n)", "su(2,2n)") in cells
    assert ("so(4,4) x so(3,4)", "so(3,4) + so(1,4)", "so(3,4)") in cells
    assert ("so(4,4) x so(2,4)", "so(3,4) + so(1,4)", "so(2,4)") in cells
    assert ("so(3,4) x so(2,4)", "g2(2) + so(1,4)", "so(2,4)") in cells
    for row, inst in _instance_verdicts(doc):
        v = inst["verdict"]
        assert v.standard_form
        assert v.case_label == "Case5"


def test_criterion_3_intersection_dimension_formulas(table1_run, table2_run):
    doc1, _ = table1_run
    doc2, _ = table2_run
    formulas = {
        "su(2,2n)": lambda n: n * (2 * n + 1),
        "so(2,2n)": lambda n: n * n - 1,
        "so(4,4n)": lambda n: n * (2 * n + 1),
        "so(4,4)": lambda n: 3,
        "so(3,4)": lambda n: 3,
        "so(8,8)": lambda n: 21,
    }
    seen = set()
    for row, inst in _instance_verdicts(doc1):
        head = row["cells"][0]
        n = inst["n"] or 1
        got = inst["verdict"].dims["intersection"]
        assert got == formulas[head](n), (head, n)
        seen.add((head, n))
    # the parameterized families really were checked through n = 3
    assert {("su(2,2n)", 3), ("so(2,2n)", 3), ("so(4,4n)", 3)} <= seen
    for row, inst in _instance_verdicts(doc2):
        head = row["cells"][0].split(" x ")[0]
        n = inst["n"] or 1
        assert inst["verdict"].dims["intersection"] == formulas[head](n)


def test_criterion_4_killing_signatures(candidate_sweep):
    boosts = {"so": lambda p, q: p * q, "su": lambda p, q: 2 * p * q,
              "sp": lambda p, q: 4 * p * q, "g2": lambda p, q: 8}
    def atoms(alg):
        facs = alg.meta.get("factors")
        return [f["algebra"].name for f in facs] if facs else [alg.name]

    names = set()
    for rec, _v in candidate_sweep:
        for alg in (rec.g, rec.h.source, rec.l.source):
            names.update(atoms(alg))
    assert len(names) >= 12
    for name in sorted(names):
        alg = build_real_form(name)
        fam, p, q = parse_form_name(name)
        dim_p = boosts[fam](p, q)
        dim_k = alg.dim - dim_p
        assert signature(alg.killing_form) == (dim_p, dim_k, 0), name
        assert alg.p_subspace().dim == dim_p
        assert alg.k_subspace().dim == dim_k


def test_criterion_5_oracle_agreement(candidate_sweep, table1_run, table2_run):
    checked = 0
    disagreements = []
    pool = [v for _r, v in candidate_sweep]
    pool += [i["verdict"] for d, _t in (table1_run, table2_run) for _r, i in _instance_verdicts(d)]
    for v in pool:
        if not (v.sum_check.holds and v.weyl):
            continue
        status = v.weyl["status"]
        if status not in ("disjoint", "witness"):
            continue  # above the enumeration cutoff
        checked += 1
        if (status == "disjoint") != v.compact_check.compact:
            disagreements.append((v.g_name, v.h_key, v.l_key))
    # the rejected controls contribute the witness side of the equivalence
    for res in negative_sweep():
        v = res["verdict"]
        if not v.sum_check.holds or res["weyl_disjoint"] is None:
            continue
        checked += 1
        if res["weyl_disjoint"] != v.compact_check.compact:
            disagreements.append(res["entry"]["key"])
    assert checked >= 60
    assert disagreements == []


def test_no_enumerate_record_is_skipped_at_the_cutoff(candidate_sweep):
    # the product structure reduces every record's Weyl scan below the cutoff
    assert len(candidate_sweep) == 69
    skipped = [
        rec.key for rec, v in candidate_sweep
        if v.weyl and v.weyl["status"] == "skipped-cutoff"
    ]
    assert skipped == []
    assert all(v.weyl["status"] == "disjoint" for _rec, v in candidate_sweep)


def test_criterion_6_negative_controls():
    results = {r["entry"]["key"]: r for r in negative_sweep()}
    nested = results["so(4,4):so(3,4)@block+so(1,4)@block"]
    assert not nested["verdict"].sum_check.holds
    assert nested["verdict"].reject_reason == (
        "sum condition fails: h + l is a proper subspace of g"
    )
    double = results["so(2,4)xso(2,4):delta(so(2,4))+delta(so(2,4))"]
    assert not double["verdict"].compact_check.compact
    assert double["weyl_disjoint"] is False
    W, vec = double["weyl_witness"]
    assert np.array_equal(np.array(W, dtype=float), np.eye(4))
    assert any(x != 0 for x in vec)
    # every documented control is rejected for its documented reason
    for key, res in results.items():
        v = res["verdict"]
        assert not v.standard_form, key
        expect = res["entry"]["expect"]
        if expect["sum"] is False:
            assert v.reject_reason.startswith("sum condition fails"), key
        else:
            assert "not compactly embedded" in v.reject_reason, key


def _floats(m):
    return np.array([[float(x) for x in row] for row in m], dtype=float)


def _sampler(alg):
    sd = split_data(alg)
    den, A = sd.boosts
    a_mats = [_floats(M) for M in unscaled(A, den)]
    k_mats = [
        _floats(alg.matrix(np.array(row, dtype=object)))
        for row in alg.k_subspace().basis
    ]

    def boost(x):
        X = np.zeros((alg.n, alg.n))
        for c, A in zip(x, a_mats):
            X += c * A
        return X

    def kelt(rng):
        co = rng.normal(size=len(k_mats))
        co /= np.linalg.norm(co)
        Y = np.zeros((alg.n, alg.n))
        for c, K in zip(co, k_mats):
            Y += c * K
        return expm(Y)

    return boost, kelt


def test_criterion_7_cartan_projection_identities():
    rng = np.random.default_rng(20260825)
    alg = build_real_form("so(2,3)")
    boost, kelt = _sampler(alg)
    worst = 0.0
    for _ in range(1000):
        x = np.sort(rng.uniform(0.05, 6.0, size=2))[::-1]
        M = kelt(rng) @ expm(boost(x)) @ kelt(rng)
        mu = cartan_projection(GroupElement(alg, (M,))).coords
        worst = max(worst, float(np.abs(mu - x).max()))
    assert worst < 1e-9, f"identity recovery error {worst:.2e}"

    prod = product_algebra("so(2,3)", "so(2,4)")
    f1 = build_real_form("so(2,3)")
    f2 = build_real_form("so(2,4)")
    b1, k1 = _sampler(f1)
    b2, k2 = _sampler(f2)
    worst_rel = 0.0
    for _ in range(1000):
        x1 = np.sort(rng.uniform(0.05, 4.0, size=2))[::-1]
        x2 = np.sort(rng.uniform(0.05, 4.0, size=2))[::-1]
        m1 = k1(rng) @ expm(b1(x1)) @ k1(rng)
        m2 = k2(rng) @ expm(b2(x2)) @ k2(rng)
        joint = mu_norm(cartan_projection(GroupElement(prod, (m1, m2)))) ** 2
        left = mu_norm(cartan_projection(GroupElement(prod, (m1, np.eye(6))))) ** 2
        right = mu_norm(cartan_projection(GroupElement(prod, (np.eye(5), m2)))) ** 2
        worst_rel = max(worst_rel, abs(joint - left - right) / joint)
    assert worst_rel < 1e-9, f"Pythagorean identity relative error {worst_rel:.2e}"


def test_criterion_8_properness_gap_experiment():
    t0 = time.perf_counter()
    main = gap_experiment("so44xso24-delta", 10000, seed=2026)
    second = gap_experiment("so34xso24-delta", 10000, seed=2026)
    control = gap_experiment("so44xso24-delta-control", 10000, seed=2026)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"gap experiments took {elapsed:.1f}s"
    for rep in (main, second):
        assert rep.fitted_epsilon > 0.0, rep.space
        assert rep.min_margin >= 0.0, rep.space
        assert rep.checked > 0 and rep.check_error <= 1e-6, rep.space
    assert control.fitted_epsilon == 0.0
    assert control.fitted_C == 0.0


def test_criterion_9_seeded_runs_are_byte_identical():
    commands = [
        ("gap", "--space", "so44xso24-delta", "--samples", "2000",
         "--seed", "11", "--format", "json"),
        ("gap", "--space", "so34xso24-delta", "--samples", "2000",
         "--seed", "5", "--format", "json"),
        ("verify", "--triple", "so(4,4):so(3,4)@spin+so(1,4)@block",
         "--format", "json"),
        ("enumerate", "--max-n", "1", "--cases", "1", "--format", "json"),
    ]
    outputs = {}
    for args in commands:
        a = _cli(*args)
        b = _cli(*args)
        assert a.returncode == 0 and b.returncode == 0, args
        assert a.stdout == b.stdout, args
        outputs[args] = a.stdout
    blob = json.loads(outputs[commands[0]])
    assert blob["fitted_epsilon"] > 0
