"""Run one pass of a workload in this (fresh) interpreter.

    python3 perfbench/worker.py JOB.json RESULT.json

The job lists the operations; each is an in-process call to
``ckforms.cli.main`` with ``--out`` pointing into the job's directory.  The
result records each operation's start, end and exit code, the machine-speed
samples taken while the operations ran (see ``speed.py``), and the peak RSS.
With ``"trace": true`` the per-layer tracer is installed first and its
metrics, in reference seconds, and its raw spans are written too.  Checking the outputs is left to the
parent.
"""
import json
import os
import resource
import sys
import time
import traceback

import ckforms.cli as cli
from speed import Sampler, Timeline


def _capture_gap_reports(reports):
    """Keep the ``GapReport`` of each ``gap`` op: its ``checked`` and
    ``check_error`` fields are not in the JSON output."""
    inner = cli.gap_experiment

    def gap_experiment(*args, **kwargs):
        report = inner(*args, **kwargs)
        reports.append(report)
        return report

    cli.gap_experiment = gap_experiment


def run(job: dict) -> dict:
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    reports = []
    _capture_gap_reports(reports)

    sampler = Sampler()
    sampler.start()
    ops = []
    first_spans = []
    for i, op in enumerate(job["ops"]):
        out = os.path.join(job["dir"], f"op_{i}.out")
        argv = op["argv"] + ["--out", out]
        if tracer is not None:
            first_spans.append(len(tracer.spans))
        n_reports = len(reports)
        error = None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc, error = exc.code, "SystemExit"
        except Exception:  # an operation that raises is a failed operation
            rc, error = None, traceback.format_exc()
        t1, c1 = time.perf_counter(), time.process_time()
        rec = {"name": op["name"], "out": out, "start": t0, "end": t1,
               "cpu_s": c1 - c0, "rc": rc, "error": error}
        if len(reports) > n_reports:
            rep = reports[-1]
            rec["gap"] = {"checked": rep.checked,
                          "check_error": rep.check_error}
        ops.append(rec)
    sampler.stop()

    result = {
        "ops": ops,
        "samples": sampler.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layer_metrics"] = tracer.metrics(Timeline(sampler.samples))
        result["trace_overhead_s"] = tracer.overhead_s()
        with open(job["spans_path"], "w", encoding="utf-8") as fh:
            json.dump({**tracer.dump(), "op_first_span": first_spans}, fh)
    return result


def main(argv) -> int:
    job_path, result_path = argv
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    result = run(job)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
