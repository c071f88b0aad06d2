"""The benchmark's tracer against the package it wraps.

``perfbench/tracer.py`` wraps a fixed list of ckforms functions, methods and
properties by name, and its ``install`` fails on a name the package no
longer has.  perfbench's own self-tests are outside ``testpaths``, so this
test loads the tracer from its file and checks that every name still
installs and uninstalls.
"""
import importlib.util
import sys
from pathlib import Path

import ckforms.cli  # noqa: F401  (loads every layer the tracer wraps)

_TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
