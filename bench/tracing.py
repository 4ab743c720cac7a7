"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces each function listed in ``TARGETS`` at the name
through which its caller looks it up (a module or class attribute) with a
wrapper that records a span; ``Tracer.remove`` puts the originals back.  No
file of the program changes.  Spans stay in memory until the run ends.

A span is ``[name, start, end, parent, op, size]``: ``parent`` indexes the
enclosing span (or is None), ``op`` is the operation id the harness set, and
``size`` is what the target's size function measured on the result.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

from inputs import TREND_FAMILIES
from workloads import CLI_COMMANDS


def _feasible(sol) -> int:
    return int(sol.is_feasible)


def _routed(streams) -> tuple:
    (clean, _), (special, _), (missing, _) = streams
    return len(clean), len(special), len(missing)


# (owner, attribute, span name, size of the result or None).  An owner is a
# module path, or "module:Class" for methods.  A function reached under two
# names (``binopt.cli.solve`` and ``binopt.solver.solve``) is wrapped at both.
TARGETS = (
    ("binopt.cli", "main", "cli.main", None),
    ("binopt.cli", "transform_values", "cli.transform_values", len),
    ("binopt.preprocess", "split_missing_special",
     "preprocess.split_missing_special", _routed),
    ("binopt.preprocess", "prebin_numeric", "preprocess.prebin_numeric", None),
    ("binopt.preprocess", "prebin_categorical",
     "preprocess.prebin_categorical", None),
    ("binopt.preprocess", "build_prebin_table", "preprocess.build_prebin_table",
     lambda table: table.n),
    ("binopt.preprocess", "refine_prebins", "preprocess.refine", None),
    ("binopt.preprocess", "refine_prebins_multiclass", "preprocess.refine", None),
    ("binopt.aggregate", "refine_prebins_multiclass", "preprocess.refine", None),
    ("binopt.aggregate", "build_binary", "aggregate.build", None),
    ("binopt.aggregate", "build_continuous", "aggregate.build", None),
    ("binopt.aggregate", "build_multiclass", "aggregate.build", None),
    ("binopt.aggregate", "pvalue_pairs", "aggregate.pvalue_pairs",
     lambda pairs: len(pairs.pairs)),
    ("binopt.cli", "solve", "solver.solve", _feasible),
    ("binopt.solver", "solve", "solver.solve", _feasible),
    ("binopt.solver", "presolve_monotonic", "solver.presolve",
     lambda mask: len(mask.forbidden)),
    ("binopt.solver", "evaluate_partition", "solver.evaluate_partition", None),
    ("binopt.cli", "ls_solve", "localsearch.ls_solve", _feasible),
    ("binopt.localsearch", "ls_solve", "localsearch.ls_solve", _feasible),
    ("binopt.localsearch", "evaluate_partition", "localsearch.evaluate", None),
    ("binopt.quality", "assess", "quality.assess", None),
    ("binopt.core:BinningModel", "to_json", "core.to_json", None),
    ("binopt.core:BinningModel", "from_json", "core.from_json", None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None            # current operation id
        self.op_tags = {}         # operation id -> tags for the metrics
        self.recording = False
        self._stack = []
        self._patches = []

    def install(self) -> None:
        for owner_path, attr, name, size in TARGETS:
            module_path, _, cls_name = owner_path.partition(":")
            owner = importlib.import_module(module_path)
            if cls_name:
                owner = getattr(owner, cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, size))
            else:
                wrapped = self._wrap(raw, name, size)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, raw))

    def remove(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def _wrap(self, fn, name, size):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if size is not None:
                span[5] = size(result)
            return result

        return traced


# --------------------------------------------------------------------------- #
# per-layer metrics from the spans
# --------------------------------------------------------------------------- #

KINDS = ("binary", "continuous", "multiclass")
LAYERS = ("cli", "preprocess", "aggregate", "solver", "localsearch",
          "quality", "core")


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _self_times(spans) -> list:
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _, _), c in zip(spans, child)]


def layer_metrics(spans, op_tags: dict) -> dict:
    """Per-layer metrics as {name: (value, unit)}.

    ``op_tags`` maps an operation id to its tags (``family``, ``kind`` and,
    for CLI calls, ``command``).  Times named after a function, as in
    ``aggregate.build_s``, are self times."""
    self_s = defaultdict(float)
    dur_s = defaultdict(float)
    calls = defaultdict(int)
    sizes = defaultdict(list)
    solve_by_tag = defaultdict(float)
    main_by_command = defaultdict(float)
    top_ls = []
    for (name, start, end, parent, op, size), own in zip(spans,
                                                         _self_times(spans)):
        self_s[name] += own
        dur_s[name] += end - start
        calls[name] += 1
        if size is not None:
            sizes[name].append(size)
        tags = op_tags.get(op, {})
        if name == "solver.solve":
            solve_by_tag["family:" + tags.get("family", "")] += own
            solve_by_tag["kind:" + tags.get("kind", "")] += own
        elif name == "cli.main":
            main_by_command[tags.get("command", "")] += end - start
        elif name == "localsearch.ls_solve" and (
                parent is None or spans[parent][0] != name):
            top_ls.append((end - start, size))

    s, c = "s", "count"
    out = {
        "cli.self_s": (self_s["cli.main"], s),
        "cli.transform_values_s": (dur_s["cli.transform_values"], s),
        "cli.transform_values.rows": (sum(sizes["cli.transform_values"]), c),
    }
    for command in CLI_COMMANDS:
        out["cli.main_s." + command] = (main_by_command[command], s)
    for fn in ("split_missing_special", "prebin_numeric", "prebin_categorical",
               "build_prebin_table", "refine"):
        out["preprocess.{}_s".format(fn)] = (self_s["preprocess." + fn], s)
    routed = sizes["preprocess.split_missing_special"]
    for k, stream in enumerate(("clean", "special", "missing")):
        out["preprocess.records." + stream] = (sum(r[k] for r in routed), c)
    out["preprocess.prebins"] = (sum(sizes["preprocess.build_prebin_table"]), c)
    out.update({
        "aggregate.build_s": (self_s["aggregate.build"], s),
        "aggregate.pvalue_pairs_s": (self_s["aggregate.pvalue_pairs"], s),
        "aggregate.pvalue_pairs.count": (sum(sizes["aggregate.pvalue_pairs"]), c),
        "solver.self_s": (self_s["solver.solve"], s),
    })
    for family in TREND_FAMILIES:
        out["solver.solve_s." + family] = (solve_by_tag["family:" + family], s)
    for kind in KINDS:
        out["solver.solve_s." + kind] = (solve_by_tag["kind:" + kind], s)
    solves = sizes["solver.solve"]
    out.update({
        "solver.presolve_s": (self_s["solver.presolve"], s),
        "solver.presolve.masked": (sum(sizes["solver.presolve"]), c),
        "solver.evaluate_partition.calls": (calls["solver.evaluate_partition"], c),
        "solver.evaluate_partition_s": (dur_s["solver.evaluate_partition"], s),
        "solver.infeasible_share": (
            _share(len(solves) - sum(solves), len(solves)), "ratio"),
        "localsearch.ls_solve_s": (sum(d for d, _ in top_ls), s),
        "localsearch.evaluations": (calls["localsearch.evaluate"], c),
        "localsearch.evaluate_s": (dur_s["localsearch.evaluate"], s),
        "localsearch.self_s": (self_s["localsearch.ls_solve"], s),
        "localsearch.feasible_share": (
            _share(sum(f for _, f in top_ls), len(top_ls)), "ratio"),
        "quality.assess_s": (dur_s["quality.assess"], s),
        "core.to_json_s": (dur_s["core.to_json"], s),
        "core.from_json_s": (dur_s["core.from_json"], s),
    })
    return out


def layer_shares(spans, blocking_s: float) -> dict:
    """Each layer's self time as a share of the operations' traced time."""
    own = defaultdict(float)
    for span, span_self in zip(spans, _self_times(spans)):
        own[span[0].split(".")[0]] += span_self
    return {layer: _share(own[layer], blocking_s) for layer in LAYERS}
