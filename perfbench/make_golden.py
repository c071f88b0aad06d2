"""Regenerate the golden outputs in perfbench/golden from the current code.

    python3 perfbench/make_golden.py

Runs ``table1`` once and ``products`` in two seed orders, refuses to write
anything if an operation fails or a key's bytes depend on the order, and then
writes ``golden/table1.json`` and ``golden/products.json`` (key -> output).
Only rerun it when an output change is intended.
"""
import json
import shutil
import sys
import time

from run import GOLDEN, OUT, Runner
from workloads import operations

ORDER_SEEDS = (1, 2)


def main() -> int:
    rundir = OUT / "golden"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    runner = Runner(rundir, time.monotonic() + 3600)
    runs = {"table1": runner.run_pass("table1", operations("table1", 0), False)}
    for seed in ORDER_SEEDS:
        runs[f"products{seed}"] = runner.run_pass(
            f"products{seed}", operations("products", seed), False)
    outputs = {}
    for tag, res in runs.items():
        for rec in res["ops"]:
            if rec["rc"] != 0 or rec["error"]:
                sys.stderr.write(f"{tag}: {rec['name']} failed: {rec}\n")
                return 1
            with open(rec["out"], encoding="utf-8") as fh:
                outputs.setdefault(tag, {})[rec["name"]] = fh.read()
    first, second = (outputs[f"products{s}"] for s in ORDER_SEEDS)
    if first != second:
        bad = [k for k in first if first[k] != second.get(k)]
        sys.stderr.write(f"outputs depend on the order: {bad}\n")
        return 1
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "table1.json").write_bytes(
        outputs["table1"]["table1"].encode("utf-8"))
    (GOLDEN / "products.json").write_text(
        json.dumps(dict(sorted(first.items())), indent=1) + "\n",
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
