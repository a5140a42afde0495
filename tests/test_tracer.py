"""The benchmark's tracer wraps library functions by name: every name it
wraps must exist, and removing the tracer must restore the originals."""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_removes(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    before = {m: dict(vars(mod)) for m, mod in tracer.mods.items()}
    rmatrix = tracer.mods["exactlin"].RMatrix
    methods = dict(rmatrix.__dict__)

    tracer.install()  # a wrapped name missing from the library raises here
    try:
        wrapped = [(mod, attr) for mod, attr in tracing.SPANS if not attr.startswith("RMatrix.")]
        wrapped += list(tracing.COUNTS)
        assert all(getattr(tracer.mods[mod], attr) is not before[mod][attr]
                   for mod, attr in wrapped)
        assert all(rmatrix.__dict__[attr.split(".", 1)[1]] is not methods[attr.split(".", 1)[1]]
                   for _, attr in tracing.SPANS if attr.startswith("RMatrix."))
    finally:
        tracer.remove()

    assert {m: dict(vars(mod)) for m, mod in tracer.mods.items()} == before
    assert dict(rmatrix.__dict__) == methods
