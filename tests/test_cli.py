"""Command-line interface: grammar, exit codes, determinism, README examples."""

import hashlib
import json
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ckforms.cli import TripleSyntaxError, main, parse_triple
from ckforms.embeddings import CatalogError
from ckforms.enumerate import GenerationSpec, generate

README = Path(__file__).resolve().parents[1] / "README.md"

_CKFORMS = shutil.which("ckforms")


def run(*args, **kw):
    if _CKFORMS:
        cmd = [_CKFORMS, *args]
    else:
        cmd = [sys.executable, "-m", "ckforms.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=False, **kw)


def test_version_flag():
    r = run("--version")
    assert r.returncode == 0
    assert b"0.1.0" in r.stdout


def test_missing_subcommand_is_a_usage_error():
    assert run().returncode == 2


@pytest.mark.parametrize(
    "triple,order",
    [
        ("so(4,4):so(3,4)@spin+so(1,4)@block", 192),
        ("g2(2)xg2(2):g2(2)x0+delta(g2(2))", 144),
        ("g2(2)xg2(2):delta(g2(2))+g2(2)x0", 144),
    ],
)
def test_verify_standard_triple_exits_zero(triple, order):
    r = run("verify", "--triple", triple)
    assert r.returncode == 0
    text = r.stdout.decode()
    assert "[ok] sum g = h + l (rank 28/28" in text
    assert f"[ok] Weyl-orbit disjointness: disjoint (group order {order})" in text
    assert text.rstrip().endswith("verdict: standard compact form")


def test_verify_rejected_triple_exits_one():
    r = run("verify", "--triple", "so(4,4):so(3,4)@block+so(1,4)@block")
    assert r.returncode == 1
    assert b"verdict: Reject (sum condition fails" in r.stdout


def test_usage_errors_exit_two():
    cases = [
        ("verify", "--triple", "so(4,4):"),
        ("verify", "--triple", "zz(1,2):a+b"),
        ("verify", "--triple", "so(4,4):so(3,9)@block+so(1,4)@block"),
        ("gap", "--space", "nonexistent", "--samples", "10"),
    ]
    for args in cases:
        r = run(*args)
        assert r.returncode == 2, args
        assert r.stderr.decode().startswith("error:"), args


def test_criteria_disagreement_exits_three(monkeypatch, capsys):
    import numpy as np

    import ckforms.criteria as criteria
    from ckforms.cli import main
    from ckforms.exactlin import fvec

    # a standard triple whose Weyl cross-check reports a witness
    witness = (np.eye(4, dtype=object), fvec([1, 0, 0, 0]))
    monkeypatch.setattr(criteria, "weyl_disjoint", lambda *a, **k: (False, witness))
    code = main(["verify", "--triple", "so(4,4):so(3,4)@spin+so(1,4)@block"])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: criteria disagree on g=so(4,4) ")
    assert "h=so(4,4):so(3,4):spin l=so(4,4):so(1,4):block" in err


def test_gap_cross_check_failure_exits_three(monkeypatch, capsys):
    import ckforms.cartanproj as cartanproj
    from ckforms.cli import main

    # the eigenvalue route of the cross-checked samples disagrees
    monkeypatch.setattr(cartanproj, "_consistency_error", lambda *a: 1.0)
    argv = ["gap", "--space", "so44xso24-delta", "--samples", "2000"]
    assert main(argv + ["--seed", "7"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: internal error in cartanproj.gap_experiment: eigenvalue "
        "route disagrees with the exact route by 1.00e+00\n"
    )


def test_gap_form_test_failure_exits_three(monkeypatch, capsys):
    import ckforms.cartanproj as cartanproj
    from ckforms.cli import main

    # a cross-checked group element that leaves the group: the program's
    # fault, not a bad request
    group_blocks = cartanproj._group_blocks

    def scaled(*args):
        blocks = group_blocks(*args)
        blocks[0] = blocks[0] * 1.01
        return blocks

    monkeypatch.setattr(cartanproj, "_group_blocks", scaled)
    argv = ["gap", "--space", "so44xso24-delta", "--samples", "2000"]
    assert main(argv + ["--seed", "7"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: internal error in cartanproj.gap_experiment: cross-checked "
        "group element: matrix does not preserve the indefinite form\n"
    )


def test_closure_failure_exits_three(monkeypatch, capsys):
    import numpy as np

    import ckforms.embeddings as embeddings
    import ckforms.realforms as realforms
    from ckforms.cli import main
    from ckforms.exactlin import CoordinateSolver, InternalError

    assert not issubclass(InternalError, ValueError)
    # fresh caches, and a batched read whose coordinates reproduce no bracket
    monkeypatch.setattr(realforms, "_form_cache", {})
    monkeypatch.setattr(embeddings, "_lookup_cache", {})
    monkeypatch.setattr(embeddings, "_product_cache", {})
    monkeypatch.setattr(
        CoordinateSolver, "solve",
        lambda self, Y: (np.zeros((len(Y), self.dim), dtype=np.int64), 1),
    )
    code = main(["verify", "--triple", "so(4,4):so(3,4)@spin+so(1,4)@block"])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: internal error in liealg.LieAlgebra.read_coords: "
        "bracket left the span: algebra not closed\n"
    )


def test_importing_the_cli_leaves_scipy_unloaded():
    code = "import sys, ckforms.cli; sys.exit('scipy' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert r.returncode == 0, r.stderr.decode()


def test_importing_the_cli_does_no_math():
    # no algebra, catalog entry or pair facts are built at import
    code = (
        "import sys, ckforms.cli\n"
        "from ckforms import criteria, embeddings\n"
        "sys.exit(bool(embeddings._product_cache or embeddings._lookup_cache"
        " or criteria._pair_cache))"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert r.returncode == 0, r.stderr.decode()


def test_gap_leaves_scipy_unloaded():
    code = (
        "import sys, ckforms.cli\n"
        "argv = ['gap', '--space', 'so44xso24-delta', '--samples', '2000']\n"
        "assert ckforms.cli.main(argv) == 0\n"
        "sys.exit('scipy' in sys.modules)"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert r.returncode == 0, r.stderr.decode()
    assert b"fitted_epsilon" in r.stdout


def test_verify_json_output_and_out_file(tmp_path):
    triple = "so(3,4):g2(2)+so(1,4)@block"
    r = run("verify", "--triple", triple, "--format", "json")
    assert r.returncode == 0
    blob = json.loads(r.stdout)
    assert blob["schema_version"] == 1
    assert blob["verdict"]["standard_form"] is True
    assert blob["verdict"]["dims"] == {"g": 21, "h": 14, "l": 10, "intersection": 3}
    out = tmp_path / "verdict.json"
    r2 = run("verify", "--triple", triple, "--format", "json", "--out", str(out))
    assert r2.returncode == 0
    assert out.read_bytes() == r.stdout


def test_gap_runs_are_byte_identical():
    args = ("gap", "--space", "so44xso24-delta", "--samples", "1500",
            "--seed", "11", "--format", "json")
    a = run(*args)
    b = run(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    blob = json.loads(a.stdout)
    assert blob["fitted_epsilon"] > 0
    assert blob["space"] == "so44xso24-delta"


def test_table_json_is_deterministic_and_matches_golden_rows():
    args = ("table", "--which", "table1", "--max-n", "1", "--format", "json")
    a = run(*args)
    b = run(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    blob = json.loads(a.stdout)
    assert [tuple(r["cells"]) for r in blob["rows"]] == [
        ("su(2,2n)", "sp(1,n)", "su(1,2n)"),
        ("so(2,2n)", "su(1,n)", "so(1,2n)"),
        ("so(4,4n)", "so(3,4n)", "sp(1,n)"),
        ("so(4,4)", "so(1,4)", "so(3,4)"),
        ("so(3,4)", "so(1,4)", "g2(2)"),
        ("so(8,8)", "so(7,8)", "so(1,8)"),
    ]


# sha256 and byte count of outputs that stay byte-identical across changes
# (beside the table1 and products goldens of perfbench)
_PINNED_OUTPUTS = {
    ("enumerate", "--max-n", "1", "--format", "json"): (
        "501e32aaa7a5d705950e110685d2c424dc1cea6e50c1d4a35fc9432c3c08c625",
        82270,
    ),
    ("table", "--which", "table2", "--max-n", "2", "--format", "json"): (
        "d87d2733811d908739657eac87a483ffe0ee00570d59716837daf1fd447e5d31",
        18742,
    ),
}


@pytest.mark.parametrize("argv", list(_PINNED_OUTPUTS), ids=["enumerate", "table2"])
def test_pinned_outputs_keep_their_bytes(argv, tmp_path):
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    data = out.read_bytes()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == _PINNED_OUTPUTS[argv]


def test_enumerate_reports_each_candidate():
    r = run("enumerate", "--max-n", "1", "--cases", "1")
    assert r.returncode == 0
    assert r.stdout.decode().splitlines() == [
        "[ok] Case1  so(2,4)xsu(2,2):so(2,4)x0+0xsu(2,2)"
    ]


def test_parse_triple_grammar():
    g, h, l, key = parse_triple("SO(4,4) : so(3,4) @ spin + so(1,4)@block")
    assert g.name == "so(4,4)"
    assert h.key == "so(4,4):so(3,4):spin"
    assert l.key == "so(4,4):so(1,4):block"
    assert key == "so(4,4):so(3,4)@spin+so(1,4)@block"
    # product separator: x binds to the following algebra atom, so variant
    # names containing x still parse
    g2, h2, l2, _ = parse_triple(
        "so(2,4)xso(2,4):su(1,2)@complexstructx0+delta(so(2,4))"
    )
    assert h2.key == "[0]so(2,4):su(1,2):complexstruct"
    assert l2.key == "delta(so(2,4),id)"
    for bad in (
        "so(4,4)",
        "so(4,4):a+b+c",
        "so(4,4)xso(2,4):so(3,4)@spin+delta(so(3,4))",
        "so(4,4):delta(so(4,4))+so(1,4)@block",
    ):
        with pytest.raises((TripleSyntaxError, CatalogError, ValueError)):
            parse_triple(bad)


def test_generated_keys_round_trip_through_the_grammar():
    for rec in generate(GenerationSpec(max_n=1)):
        g, h, l, _ = parse_triple(rec.key)
        assert g.name == rec.g.name, rec.key
        assert h.key == rec.h.key, rec.key
        assert l.key == rec.l.key, rec.key


def _fenced_blocks(lang):
    text = README.read_text()
    return re.findall(rf"```{lang}\n(.*?)```", text, flags=re.S)


def test_readme_shell_examples_execute():
    blocks = _fenced_blocks("shell")
    cmds = [
        line.strip()
        for block in blocks
        for line in block.splitlines()
        if line.strip().startswith("ckforms ")
    ]
    assert len(cmds) >= 6
    for cmd in cmds:
        args = shlex.split(cmd)[1:]
        r = run(*args)
        assert r.returncode == 0, (cmd, r.stderr.decode())
        assert r.stdout


def test_readme_python_examples_execute():
    blocks = _fenced_blocks("python")
    assert blocks
    for block in blocks:
        exec(compile(block, "<readme>", "exec"), {})


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_gap_refuses_too_few_samples_before_building(samples, monkeypatch, capsys):
    import ckforms.cartanproj as cartanproj
    from ckforms.cli import main

    def no_build(key):
        raise AssertionError(f"gap space {key} built")

    monkeypatch.setattr(cartanproj, "_get_space", no_build)
    argv = ["gap", "--space", "so44xso24-delta", "--samples", samples]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: samples must be at least 1\n"


def test_gap_refuses_a_negative_seed_before_building(monkeypatch, capsys):
    import ckforms.cartanproj as cartanproj
    from ckforms.cli import main

    def no_build(key):
        raise AssertionError(f"gap space {key} built")

    monkeypatch.setattr(cartanproj, "_get_space", no_build)
    argv = ["gap", "--space", "so44xso24-delta", "--samples", "10", "--seed", "-3"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: seed must be at least 0\n"


def test_verify_refuses_a_negative_weyl_cutoff_before_the_criteria(
    monkeypatch, capsys
):
    # with cutoff -1 every Weyl scan would be marked skipped-cutoff
    import ckforms.criteria as criteria
    from ckforms.cli import main

    def no_check(*args):
        raise AssertionError("a criterion ran")

    monkeypatch.setattr(criteria, "check_sum", no_check)
    argv = [
        "verify", "--triple", "so(4,4):so(3,4)@spin+so(1,4)@block",
        "--weyl-cutoff", "-1",
    ]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: weyl cutoff must be at least 0\n"


@pytest.mark.parametrize(
    "command", [["table", "--which", "table1"], ["enumerate"]]
)
def test_table_and_enumerate_refuse_a_negative_weyl_cutoff_before_generating(
    command, monkeypatch, capsys
):
    from ckforms import cli

    def no_generate(*args):
        raise AssertionError("candidates generated")

    monkeypatch.setattr(cli, "emit_table", no_generate)
    monkeypatch.setattr(cli, "generate", no_generate)
    assert cli.main([*command, "--weyl-cutoff", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: weyl cutoff must be at least 0\n"
    # a cutoff of 0 is a request that can run
    assert GenerationSpec(weyl_cutoff=0).weyl_cutoff == 0


def test_impossible_spin_side_exits_two_without_a_search(monkeypatch, capsys):
    import time

    import ckforms.realforms as realforms
    from ckforms.cli import main

    def no_search(p, q):
        raise AssertionError(f"spin frame searched for ({p},{q})")

    monkeypatch.setattr(realforms, "spin_frame", no_search)
    start = time.perf_counter()
    code = main(["verify", "--triple", "so(4,4):so(3,5)@spin+so(1,4)@block"])
    assert time.perf_counter() - start < 5.0
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: the Clifford modules of so(3,5)")


def test_non_adapted_split_part_exits_three(monkeypatch, capsys):
    import ckforms.criteria as criteria
    from ckforms.cli import main
    from ckforms.embeddings import AdaptednessError

    def not_adapted(emb):
        raise AdaptednessError(
            "embeddings.adapted_split_part", f"{emb.key}: split part image"
        )

    monkeypatch.setattr(criteria, "adapted_split_part", not_adapted)
    code = main(["verify", "--triple", "so(4,4):so(3,4)@spin+so(1,4)@block"])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(
        "error: internal error in embeddings.adapted_split_part: "
        "so(4,4):so(3,4):spin: split part image"
    )


def test_diagonal_sides_resolve_through_the_catalog_cache():
    from ckforms.embeddings import catalog_lookup

    triple = "so(4,4)xso(2,4):delta(so(2,4),block)+so(3,4)@spinxso(1,4)@block"
    _g, h, _l, _ = parse_triple(triple)
    assert parse_triple(triple)[1] is h
    assert catalog_lookup("so(4,4)xso(2,4):delta(so(2,4),block)") is h
    assert h.iota is catalog_lookup("so(4,4):so(2,4):block")
    _g, h2, _l, _ = parse_triple(
        "so(4,4)xso(2,4):delta-so(2,4)+so(3,4)@spinxso(1,4)@block"
    )
    assert h2.key == h.key
    for bad in ("delta(so(2,4)", "delta(so(2,4),block,id)", "delta()", "delta-"):
        with pytest.raises((TripleSyntaxError, CatalogError, ValueError)):
            parse_triple(f"so(4,4)xso(2,4):{bad}+so(3,4)@spinxso(1,4)@block")


def test_main_reuses_one_parser_across_subcommands(capsys):
    from ckforms import cli

    argvs = [
        ["info"],
        ["verify", "--triple", "so(4,4):so(3,4)@spin+so(1,4)@block", "--format", "json"],
        ["--version"],
        ["verify"],  # --triple is missing: a usage error
        ["info", "--format", "json"],
        ["verify", "--triple", "so(4,4):so(3,4)@block+so(1,4)@block"],
    ]
    codes = []
    for argv in argvs:
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:  # --version and usage errors exit in argparse
            codes.append(exc.code)
        out, err = capsys.readouterr()
        fresh = run(*argv)
        assert codes[-1] == fresh.returncode, argv
        assert out.encode() == fresh.stdout, argv
        assert err.encode() == fresh.stderr, argv
    assert codes == [0, 0, 0, 2, 0, 1]
    assert cli._build_parser() is cli._build_parser()
