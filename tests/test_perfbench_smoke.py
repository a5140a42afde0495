"""One round of each benchmark workload runs with no failed operation:
every output passes the benchmark's own check, including the cohom
recorder's count of coboundary matrices and eliminations."""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["tetra", "cohom", "checks"])
def test_one_round_has_no_failed_operation(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = importlib.import_module("worker")
    ops = worker.workloads.WORKLOADS[name](str(tmp_path), 1)
    _, failed = worker.run_round(name, ops)
    assert failed == 0
