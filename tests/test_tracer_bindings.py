"""The names the benchmark's traced pass binds must exist and come back.

bench/tracer.py wraps package functions through the module attributes
callers look them up by (harness.unrank_permutation, oracle.lpt_makespan,
families.gen_*, ...), and Time's operators through the class. A helper
renamed or dropped in src/ makes its install fail; a wrapper left behind
would skew every later measurement. The tracer is loaded from its file,
without writing bytecode next to it.
"""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import listsched as ls
from listsched import cli
from listsched.model import Time

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    modules = (ls, ls.cli, ls.families, ls.harness, ls.online, ls.oracle)
    out = {
        (module.__name__, name): value
        for module in modules
        for name, value in vars(module).items()
        if callable(value)
    }
    out.update({("Time", name): value for name, value in vars(Time).items()})
    return out


def test_tracer_installs_on_listsched_and_restores_every_binding(monkeypatch, capsys):
    tracer = _load_tracer(monkeypatch)
    before = _bindings()
    t = tracer.Tracer()
    try:
        t.install(ls)
        t.count_time_ops(Time)
        assert cli.main(["run", "--family", "class1", "--m", "3"]) == 0
    finally:
        t.uninstall()
    assert "alg makespan: 4" in capsys.readouterr().out
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    rows = tracer.summarize(t.spans)
    assert rows["cli.main"]["calls"] == 1
    assert rows["families.generate"]["calls"] == 1
    assert t.counts["model.time_init"] > 0
