"""ckforms benchmark: one workload, timed end to end or layer by layer.

    python3 perfbench/run.py --workload {table1,products,gap} --seed N \\
        --seconds S --trace {0,1}

Run it from the repository root.  Every pass of the workload runs in a fresh
single-threaded interpreter (``perfbench/worker.py``) that calls
``ckforms.cli.main`` in process for each operation and writes each output to
a file; this script checks every output against ``perfbench/golden`` (or,
for ``gap``, against its invariants).

``--trace 0`` measures the end-to-end metrics: it spawns the interpreter
several times to time the set-up, then runs whole passes until ``--seconds``
of passes have been measured (at least one) and reports medians.  Times other
than the set-up are in reference seconds, scaled by the machine speed sampled
during the pass (``speed.py``); the raw values go in the run record.
``--trace 1`` runs one traced pass and reports its per-layer metrics, its
wall time and the tracing overhead.

The last line of standard output is the result object; the line before it is
the run record (git sha, ``nproc``, versions, ``src/`` line count, load).
Everything else, including the spans of a traced pass, goes to
``perfbench/_out/<workload>-seed<N>-trace<T>/``.
"""
from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from speed import Timeline
from workloads import GAP_SAMPLES, GAP_SPACE, WORKLOADS, operations

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
GOLDEN = BENCH / "golden"
OUT = BENCH / "_out"

SETUP_SPAWNS = 5
DEADLINE_S = 170.0
GAP_CHECK_TOL = 1e-6
SETUP_PROBE = "import time, ckforms.cli; print(time.monotonic())"


class BenchError(RuntimeError):
    """The run could not be measured; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


class Runner:
    def __init__(self, rundir: Path, deadline: float):
        self.rundir = rundir
        self.deadline = deadline
        self.env = child_env()

    def _spawn(self, argv, **kwargs):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time before a child could start")
        try:
            # subprocess.run kills and reaps the child on timeout
            return subprocess.run(
                [sys.executable, *argv], env=self.env, cwd=ROOT,
                timeout=left, check=True, **kwargs,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child timed out: {argv}") from exc
        except subprocess.CalledProcessError as exc:
            raise BenchError(
                f"child exited {exc.returncode}: {argv}\n{exc.stderr or ''}"
            ) from exc

    def setup_time(self) -> float:
        """Seconds from spawning an interpreter until ``import ckforms.cli``
        returns; ``time.monotonic`` is one clock for every process."""
        t0 = time.monotonic()
        proc = self._spawn(["-c", SETUP_PROBE], capture_output=True,
                           text=True)
        return float(proc.stdout) - t0

    def run_pass(self, tag: str, ops: list, trace: bool) -> dict:
        d = self.rundir / tag
        d.mkdir()
        job = {"ops": ops, "trace": trace, "dir": str(d),
               "spans_path": str(d / "spans.json")}
        (d / "job.json").write_text(json.dumps(job), encoding="utf-8")
        # the worker's own stdout goes to our stderr, so ours stays clean
        self._spawn([str(BENCH / "worker.py"), str(d / "job.json"),
                     str(d / "result.json")], stdout=sys.stderr.fileno())
        return json.loads((d / "result.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def load_goldens() -> dict:
    return {
        "table1": (GOLDEN / "table1.json").read_bytes(),
        "products": json.loads(
            (GOLDEN / "products.json").read_text(encoding="utf-8")
        ),
    }


def check_op(workload: str, seed: int, rec: dict, goldens: dict):
    """None if the operation succeeded with the right output, else why not."""
    if rec["error"] is not None or rec["rc"] != 0:
        return f"exit {rec['rc']}: {rec['error'] or 'nonzero exit code'}"
    try:
        data = Path(rec["out"]).read_bytes()
        doc = json.loads(data) if workload == "gap" else None
    except (OSError, ValueError) as exc:
        return f"no readable output: {exc}"
    if workload == "table1":
        return None if data == goldens["table1"] else "output differs"
    if workload == "products":
        want = goldens["products"].get(rec["name"])
        if want is None:
            return "no golden output for this key"
        return None if data == want.encode("utf-8") else "output differs"
    rep = rec.get("gap")
    problems = [
        msg for ok, msg in (
            (doc.get("space") == GAP_SPACE, "space"),
            (doc.get("samples") == GAP_SAMPLES, "samples"),
            (doc.get("seed") == seed, "seed"),
            (doc.get("fitted_epsilon", 0) > 0, "fitted_epsilon <= 0"),
            (doc.get("min_margin", -1) >= 0, "min_margin < 0"),
            (rep is not None and rep["checked"] > 0, "checked == 0"),
            (rep is not None and rep["check_error"] <= GAP_CHECK_TOL,
             "check_error > 1e-6"),
        ) if not ok
    ]
    return "; ".join(problems) or None


# ---------------------------------------------------------------------------
# statistics and the run record
# ---------------------------------------------------------------------------

def nearest_rank(values, q: float) -> float:
    """The q-quantile by the nearest-rank rule (a measured sample)."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def _src_files():
    return sorted((ROOT / "src").rglob("*.py"))


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _version(dist: str):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def run_record(args) -> dict:
    digest = hashlib.sha256()
    lines = 0
    for f in _src_files():
        data = f.read_bytes()
        digest.update(str(f.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_utc": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
    }


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def pass_times(p: dict) -> dict:
    """Wall time and per-operation latencies of one pass, both raw and in
    reference seconds (``speed.Timeline``)."""
    ops, ref = p["ops"], Timeline(p["samples"])
    start, end = ops[0]["start"], ops[-1]["end"]
    return {
        "raw": (end - start, [r["end"] - r["start"] for r in ops]),
        "ref": (ref(end) - ref(start),
                [ref(r["end"]) - ref(r["start"]) for r in ops]),
    }


def time_metrics(times: list, kind: str) -> dict:
    lat = [x for t in times for x in t[kind][1]]
    return {
        "wall_s": statistics.median(t[kind][0] for t in times),
        "op_p50_s": nearest_rank(lat, 0.5),
        "op_p80_s": nearest_rank(lat, 0.8),
    }


def measure(args, runner: Runner, ops: list, goldens: dict) -> dict:
    setups = []
    if args.trace:
        passes = [runner.run_pass("pass_traced", ops, True)]
    else:
        setups = [runner.setup_time() for _ in range(SETUP_SPAWNS)]
        passes, walls = [], []
        while True:
            passes.append(runner.run_pass(f"pass_{len(passes)}", ops, False))
            walls.append(pass_times(passes[-1])["raw"][0])
            left = runner.deadline - time.monotonic()
            if sum(walls) >= args.seconds or left < 2 * max(walls) + 5:
                break
    times = [pass_times(p) for p in passes]

    failures = [
        {"pass": i, "op": rec["name"], "why": why}
        for i, p in enumerate(passes) for rec in p["ops"]
        if (why := check_op(args.workload, args.seed, rec, goldens))
    ]
    attempted = sum(len(p["ops"]) for p in passes)

    if args.trace:
        traced = passes[0]
        metrics = {k: metric(v, u)
                   for k, (v, u) in traced["layer_metrics"].items()}
        metrics["trace.wall_s"] = metric(times[0]["ref"][0], "s")
        metrics["trace.overhead_s"] = metric(traced["trace_overhead_s"], "s")
        raw = {"trace.wall_s": times[0]["raw"][0]}
    else:
        # set-up is import work, which the speed probe does not track
        metrics = {"setup_s": metric(statistics.median(setups), "s")}
        metrics.update((k, metric(v, "s"))
                       for k, v in time_metrics(times, "ref").items())
        metrics["peak_rss_mb"] = metric(
            statistics.median(p["peak_rss_mb"] for p in passes), "MB")
        metrics["ok_ratio"] = metric(
            (attempted - len(failures)) / attempted, "ratio")
        raw = time_metrics(times, "raw")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "_raw_s": raw,
        "_failures": failures,
        "_times": times,
        "_setups": setups,
        "_passes": passes,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    started = time.monotonic()
    # turn SIGTERM into SystemExit so that subprocess.run kills and reaps
    # the running child before this process ends
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    if not (ROOT / "src" / "ckforms" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no ckforms sources under {ROOT / 'src'}\n")
        return 2
    record = run_record(args)
    rundir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    runner = Runner(rundir, started + DEADLINE_S)
    try:
        goldens = load_goldens()
        # unmeasured: compile bytecode and warm the page cache
        runner.setup_time()
        full = measure(args, runner, operations(args.workload, args.seed),
                       goldens)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    for f in full["_failures"][:10]:
        sys.stderr.write(f"perfbench: FAILED pass {f['pass']} {f['op']}: "
                         f"{f['why']}\n")
    result = {k: v for k, v in full.items() if not k.startswith("_")}
    (rundir / "run.json").write_text(
        json.dumps({"record": record, **full}, indent=1), encoding="utf-8")
    print(json.dumps({"run_record": record, "raw_s": full["_raw_s"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
