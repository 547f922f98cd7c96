"""The per-layer benchmark wraps program functions by name; they must exist."""

import importlib
from pathlib import Path

PERFBENCH_DIR = Path(__file__).parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls_every_wrapper(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH_DIR))
    tracer = importlib.import_module("tracer")
    t = tracer.Tracer()
    try:
        t.install()  # raises if a wrapped name is gone
        assert tracer.installed_wrappers()
    finally:
        t.uninstall()
    assert tracer.installed_wrappers() == []
