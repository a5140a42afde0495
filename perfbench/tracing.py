"""Spans and counts around the calls into lie2alg's layers.

The tracer replaces public functions of the library with wrappers, from
outside the program: every module-level name bound to the original
(including names re-bound by ``from .exactlin import ...``) and the
RMatrix methods.  Each call records a span (name, start, end, parent
span, whether an enclosing span of the same metric is open); counts are
taken at the same boundaries.  Spans stay in memory until ``dump``.

A metric's time is the inclusive time of its outermost spans, except
the few marked ``self``, whose time is the span's duration minus what
its child spans cover.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

MODULES = ("exactlin", "serialize", "report", "twoterm", "twovect", "linfty",
           "lie2", "cohomology", "braid", "cli")

# (module, attribute) -> metric; "RMatrix.x" names a method
SPANS = {
    ("exactlin", "RMatrix.__matmul__"): "exactlin.matmul",
    ("exactlin", "kron"): "exactlin.kron",
    ("exactlin", "rank_kernel"): "exactlin.elim",
    ("exactlin", "solve_linear"): "exactlin.elim",
    ("exactlin", "invert"): "exactlin.elim",
    ("exactlin", "pivot_columns"): "exactlin.elim",
    ("exactlin", "RMatrix.matvec"): "exactlin.matvec",
    ("exactlin", "RMatrix.__add__"): "exactlin.elementwise",
    ("exactlin", "RMatrix.__sub__"): "exactlin.elementwise",
    ("exactlin", "RMatrix.__eq__"): "exactlin.elementwise",
    ("twovect", "compose_functors"): "twovect.compose_functors",
    ("twovect", "tensor_functor"): "twovect.tensor_functor",
    ("twovect", "eval_cell_expr"): "twovect.eval_cell_expr",
    ("twovect", "whisker_left"): "twovect.whisker",
    ("twovect", "whisker_right"): "twovect.whisker",
    ("twovect", "vertical_nat"): "twovect.vertical_nat",
    ("twovect", "tensor_nat"): "twovect.tensor_nat",
    ("twovect", "check_nat_trans"): "twovect.check_nat_trans",
    ("braid", "build_Y"): "braid.build_Y",
    ("braid", "build_braid_functor"): "braid.build_braid_functor",
    ("braid", "tetrahedron_sides"): "braid.tetrahedron_sides",
    ("braid", "check_zamolodchikov"): "braid.check_zamolodchikov",
    ("braid", "check_ybe"): "braid.check_ybe",
    ("linfty", "check_axioms"): "linfty.check_axioms",
    ("linfty", "generalized_jacobi"): "linfty.generalized_jacobi",
    ("linfty", "check_hom"): "linfty.check_hom",
    ("lie2", "check_jacobiator_identity_categorical"): "lie2.octagon",
    ("lie2", "check_crossed_module"): "lie2.check_crossed_module",
    ("cohomology", "coboundary_matrix"): "cohomology.coboundary_matrix",
    ("cohomology", "classify"): "cohomology.classify",
    ("twoterm", "skeletalize_complex"): "twoterm.skeletalize",
    ("cli", "run"): "cli.run",
    ("serialize", "load_json_file"): "cli.load",
    ("linfty", "linf_from_json"): "cli.load",
    ("cohomology", "algebra_from_json"): "cli.load",
    ("cohomology", "rep_from_json"): "cli.load",
    ("cohomology", "cochain_from_json"): "cli.load",
    ("lie2", "dcm_from_json"): "cli.load",
    ("twoterm", "complex_from_json"): "cli.load",
}
# the subcommand bodies are spans only so that cli.run's self time is
# argument parsing, report building and rendering
CLI_COMMANDS = ("cmd_check_linfty", "cmd_check_hom", "cmd_check_2hom", "cmd_check_lie2",
                "cmd_check_dcm", "cmd_cohomology", "cmd_is_cocycle", "cmd_coboundary",
                "cmd_build_ghbar", "cmd_killing", "cmd_ybe", "cmd_tetrahedron",
                "cmd_skeletalize", "cmd_classify")
SELF_TIME = {"braid.check_zamolodchikov", "cohomology.coboundary_matrix", "cli.run"}
# called too often to span; counted only
COUNTS = {
    ("lie2", "bracket_morphisms"): "lie2.bracket_morphisms_calls",
    ("cohomology", "coboundary"): "cohomology.coboundary_calls",
}

# counts taken by _record or a counting wrapper; every other *_calls
# metric is the number of spans of its metric
RECORDED = ("exactlin.matmul_out_cells", "exactlin.matmul_out_nnz", "exactlin.kron_out_cells",
            "exactlin.elim_in_cells", "exactlin.elim_in_nnz", "cohomology.delta_cells",
            "cohomology.delta_nnz", "braid.objects_swept") + tuple(COUNTS.values())

# every per-layer metric, name -> unit, in report order
METRICS = {
    "exactlin.matmul_s": "s", "exactlin.matmul_calls": "count",
    "exactlin.matmul_out_cells": "count", "exactlin.matmul_out_nnz": "count",
    "exactlin.kron_s": "s", "exactlin.kron_out_cells": "count",
    "exactlin.elim_s": "s", "exactlin.elim_calls": "count",
    "exactlin.elim_in_cells": "count", "exactlin.elim_in_nnz": "count",
    "exactlin.matvec_s": "s", "exactlin.matvec_calls": "count",
    "exactlin.elementwise_s": "s",
    "twovect.compose_functors_s": "s", "twovect.compose_functors_calls": "count",
    "twovect.tensor_functor_s": "s", "twovect.eval_cell_expr_s": "s",
    "twovect.whisker_s": "s", "twovect.vertical_nat_s": "s", "twovect.tensor_nat_s": "s",
    "twovect.check_nat_trans_s": "s",
    "braid.build_Y_s": "s", "braid.build_braid_functor_s": "s",
    "braid.tetrahedron_sides_s": "s", "braid.check_zamolodchikov_s": "s",
    "braid.check_ybe_s": "s", "braid.objects_swept": "count",
    "linfty.check_axioms_s": "s", "linfty.check_axioms_calls": "count",
    "linfty.generalized_jacobi_s": "s", "linfty.check_hom_s": "s",
    "lie2.octagon_s": "s", "lie2.bracket_morphisms_calls": "count",
    "lie2.check_crossed_module_s": "s",
    "cohomology.coboundary_matrix_s": "s", "cohomology.coboundary_calls": "count",
    "cohomology.delta_cells": "count", "cohomology.delta_nnz": "count",
    "cohomology.classify_s": "s",
    "twoterm.skeletalize_s": "s",
    "cli.run_self_s": "s", "cli.load_s": "s",
    "trace.overhead_s": "s",
}


def _nnz(m) -> int:
    return sum(len(row) - row.count(0) for row in m.data)


def _cells(m) -> int:
    return m.rows * m.cols


def _objects_swept(rep, d0: int) -> int:
    """Basis objects of the fourth tensor power compared: all of them, or
    up to and including the first failing one (the sweep stops there)."""
    res = rep.result("component_equality")
    if res.passed:
        return d0 ** 4
    a, b, c, d = res.first_violation[0]
    return ((a * d0 + b) * d0 + c) * d0 + d + 1


def _record(counts: dict, metric: str, args, result) -> None:
    """Counts taken from a call's arguments and result."""
    if metric == "exactlin.matmul":
        counts["exactlin.matmul_out_cells"] += _cells(result)
        counts["exactlin.matmul_out_nnz"] += _nnz(result)
    elif metric == "exactlin.kron":
        counts["exactlin.kron_out_cells"] += _cells(result)
    elif metric == "exactlin.elim":
        counts["exactlin.elim_in_cells"] += _cells(args[0])
        counts["exactlin.elim_in_nnz"] += _nnz(args[0])
    elif metric == "cohomology.coboundary_matrix":
        counts["cohomology.delta_cells"] += _cells(result)
        counts["cohomology.delta_nnz"] += _nnz(result)
    elif metric == "braid.check_zamolodchikov":
        counts["braid.objects_swept"] += _objects_swept(result, args[0].space.dim0)


class Tracer:
    """Installs the wrappers on ``install`` and removes them on ``remove``."""

    def __init__(self):
        self.mods = {m: importlib.import_module(f"lie2alg.{m}") for m in MODULES}
        self.spans = []       # [metric, start, end, parent index, outermost]
        self.counts = dict.fromkeys(RECORDED, 0)
        self.calls = {}       # metric -> number of spans
        self._stack = []
        self._depth = {}
        self._undo = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, metric: str, fn):
        spans, stack, depth, counts, calls = (self.spans, self._stack, self._depth,
                                              self.counts, self.calls)

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [metric, 0.0, 0.0, stack[-1] if stack else -1, not depth.get(metric)]
            spans.append(rec)
            stack.append(idx)
            depth[metric] = depth.get(metric, 0) + 1
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                depth[metric] -= 1
                stack.pop()
            calls[metric] = calls.get(metric, 0) + 1
            _record(counts, metric, args, result)
            return result
        return traced

    def _count_wrapper(self, counter: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return counted

    def _replace(self, mod: str, attr: str, make) -> None:
        if attr.startswith("RMatrix."):
            cls, name = self.mods["exactlin"].RMatrix, attr.split(".", 1)[1]
            orig = cls.__dict__[name]
            setattr(cls, name, make(orig))
            self._undo.append((cls, name, orig))
            return
        orig = getattr(self.mods[mod], attr)
        wrapped = make(orig)
        for m in self.mods.values():
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapped)
                    self._undo.append((m, key, orig))

    def install(self) -> None:
        for (mod, attr), metric in SPANS.items():
            self._replace(mod, attr, lambda f, m=metric: self._span_wrapper(m, f))
        for cmd in CLI_COMMANDS:
            self._replace("cli", cmd, lambda f: self._span_wrapper("cli.command", f))
        for (mod, attr), counter in COUNTS.items():
            self._replace(mod, attr, lambda f, c=counter: self._count_wrapper(c, f))

    def remove(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # -- report -----------------------------------------------------------

    def metrics(self, rounds: int, overhead_s: float) -> dict:
        """Per-round means of every per-layer metric."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        time_s = {}
        for i, (metric, t0, t1, _, outer) in enumerate(self.spans):
            if metric in SELF_TIME:
                time_s[metric] = time_s.get(metric, 0.0) + (t1 - t0 - child[i])
            elif outer:
                time_s[metric] = time_s.get(metric, 0.0) + (t1 - t0)
        vals = {}
        for name, unit in METRICS.items():
            if name == "trace.overhead_s":
                vals[name] = overhead_s
            elif name in self.counts:
                vals[name] = self.counts[name] / rounds
            elif unit == "count":
                vals[name] = self.calls.get(name[: -len("_calls")], 0) / rounds
            else:
                base = name[: -len("_self_s")] if name.endswith("_self_s") else name[:-2]
                vals[name] = time_s.get(base, 0.0) / rounds
        return {k: {"value": v, "unit": METRICS[k]} for k, v in vals.items()}

    def dump(self, path: str) -> None:
        """Write the spans, one JSON array per line: metric, start, end,
        parent index (-1 for a root), outermost of its metric."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
