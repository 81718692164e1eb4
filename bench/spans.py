"""Spans recorded from outside the fddsense package.

The tracer wraps every public function and public method defined in the
layer modules.  A function is patched at every module attribute that
refers to it, so a caller that imported it by name (``from .trees import
fit_tree`` in ensembles) sees the wrapper as well as one that resolves it
through its home module.  Each span holds its name, start, end, parent
span and operation id.  Spans stay in memory until the run ends.

Counts come from call arguments and returned objects.  Extraction that
costs more than a few attribute reads (walking a tree, sizing a JSON
text) keeps a reference and runs after the run, so it never lands inside
another span.  The tracer keeps one span stack, which is right for the
single-threaded runs the benchmark makes (``n_threads=1``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from contextlib import contextmanager

LAYERS = (
    "simgen",
    "dataset",
    "trees",
    "ensembles",
    "metrics",
    "robustness",
    "selection",
    "pipeline",
    "fileio",
)

OP_SPAN = "bench.op"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "attrs", "kept")

    def __init__(self, span_id, name, parent, op):
        self.id = span_id
        self.name = name
        self.start = None
        self.end = None
        self.parent = parent
        self.op = op
        self.attrs = None
        self.kept = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "attrs": self.attrs or {},
        }


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _tree_counts(tree) -> dict:
    splits = leaves = 0
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if hasattr(node, "split"):
            splits += 1
            stack.append(node.left)
            stack.append(node.right)
        else:
            leaves += 1
    return {"splits": splits, "leaves": leaves, "nodes": splits + leaves}


def _json_bytes(payload) -> dict:
    from fddsense.fileio import canonical_json

    return {"bytes": len(canonical_json(payload).encode("utf-8"))}


# name -> (args, kwargs, result) -> attrs.  Each must cost O(1): it runs
# between the span's end and the caller's next statement.
NOW = {
    "trees.fit_tree": lambda a, k, r: {"task": _arg(a, k, 2, "cfg").task},
    "trees.DecisionTree.predict_batch": lambda a, k, r: {"rows": len(_arg(a, k, 1, "x"))},
    "ensembles.fit_ensemble": lambda a, k, r: {"trees": len(r.trees)},
    "ensembles.load_model": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "dataset.load_dataset": lambda a, k, r: {"rows": r.n_rows},
    "simgen.generate_dataset": lambda a, k, r: {"rows": r.n_rows},
    "selection.run_rfa": lambda a, k, r: {"steps": len(r.steps)},
    "robustness.run_scenarios": lambda a, k, r: {"scenarios": len(r.scenarios)},
}

# name -> (pick, count): pick keeps a reference at call time, count turns
# it into attrs after the run.
LATER = {
    "trees.fit_tree": (lambda a, k, r: r, _tree_counts),
    "ensembles.model_to_dict": (lambda a, k, r: r, _json_bytes),
    "fileio.atomic_write_text": (
        lambda a, k, r: _arg(a, k, 1, "text"),
        lambda text: {"bytes": len(text.encode("utf-8"))},
    ),
}


def public_callables(package) -> dict:
    """Span name -> (owner, attribute, function) for every public function
    and public method defined in a layer module."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{package.__name__}.{layer}")
        for attr, value in vars(module).items():
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                found[f"{layer}.{attr}"] = (module, attr, value)
            elif inspect.isclass(value):
                for method, fn in vars(value).items():
                    if not method.startswith("_") and inspect.isfunction(fn):
                        found[f"{layer}.{attr}.{method}"] = (value, method, fn)
    return found


class Tracer:
    """Records spans while installed; restores every patched attribute on
    uninstall."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = None
        self._patches: list[tuple[object, str, object]] = []

    def _begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self._op)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, op_id):
        """Root span of one benchmark operation; library spans inside it
        carry op_id."""
        self._op = op_id
        span = self._begin(OP_SPAN)
        try:
            yield span
        finally:
            self._end(span)
            self._op = None

    def _wrap(self, name: str, fn):
        now = NOW.get(name)
        later = LATER.get(name)
        begin, end = self._begin, self._end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(span)
            if now is not None:
                span.attrs = now(args, kwargs, result)
            if later is not None:
                span.kept = later[0](args, kwargs, result)
            return result

        return traced

    def install(self, package) -> list[str]:
        """Patch every public layer callable wherever the package refers to
        it.  Returns the span names that were wrapped."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        callables = public_callables(package)
        wrappers = {}
        for name, (owner, attr, fn) in callables.items():
            wrapper = self._wrap(name, fn)
            wrappers[fn] = wrapper
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
        prefix = package.__name__ + "."
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == package.__name__ or key.startswith(prefix))
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        return sorted(callables)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def finish(self) -> None:
        """Run the deferred count extraction; call once tracing is over."""
        for span in self.spans:
            if span.kept is None:
                continue
            extra = LATER[span.name][1](span.kept)
            span.attrs = {**(span.attrs or {}), **extra}
            span.kept = None


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end] intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


class OpView:
    """The spans of one operation, indexed for the per-layer metrics."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {s.id: s for s in spans}
        self.children: dict[int, list[Span]] = {}
        self.by_name: dict[str, list[Span]] = {}
        for s in spans:
            self.children.setdefault(s.parent, []).append(s)
            self.by_name.setdefault(s.name, []).append(s)
        self.root = self.by_name[OP_SPAN][0]

    @property
    def wall(self) -> float:
        return self.root.duration

    def named(self, name: str) -> list[Span]:
        return self.by_name.get(name, [])

    def time(self, names) -> float:
        """Time inside spans named in names, each instant counted once."""
        names = {names} if isinstance(names, str) else set(names)
        total = 0.0
        for s in self.spans:
            if s.name in names and not self._has_ancestor(s, names):
                total += s.duration
        return total

    def _has_ancestor(self, span: Span, names: set[str]) -> bool:
        parent = self.by_id.get(span.parent)
        while parent is not None:
            if parent.name in names:
                return True
            parent = self.by_id.get(parent.parent)
        return False

    def self_time(self, name: str) -> float:
        """Duration of the spans named name minus what their children cover."""
        return sum(
            s.duration - _covered([(c.start, c.end) for c in self.children.get(s.id, [])])
            for s in self.named(name)
        )

    def count(self, name: str) -> int:
        return len(self.named(name))

    def attr(self, name: str, key: str) -> int:
        """Sum of one count over the spans named name.  A span whose call
        raised has no counts."""
        return sum((s.attrs or {}).get(key, 0) for s in self.named(name))

    def attributed(self) -> float:
        """Share of the operation's wall time inside its top-level spans."""
        top = [(c.start, c.end) for c in self.children.get(self.root.id, [])]
        return _covered(top) / self.wall


FIT_TREE = "trees.fit_tree"
PREDICT_TREE = "trees.DecisionTree.predict_batch"
FIT_ENSEMBLE = "ensembles.fit_ensemble"
RUN_PIPELINE = "pipeline.run_pipeline"
RUN_RFA = "selection.run_rfa"
RUN_SCENARIOS = "robustness.run_scenarios"
PREDICT_SCORES = "ensembles.predict_scores"
WRITE_FILE = "fileio.atomic_write_text"


def _ratio(num: float, den: float, scale: float) -> float:
    return num / den * scale if den else 0.0


def _fileio(view: OpView) -> float:
    return view.time([n for n in view.by_name if n.startswith("fileio.")])


def _pipeline_fits(view: OpView) -> tuple[float, float]:
    """(rank fit, final fit): fit_ensemble spans directly under
    run_pipeline, before and after its run_rfa child."""
    rank = final = 0.0
    for run in view.named(RUN_PIPELINE):
        kids = view.children.get(run.id, [])
        rfa = [c for c in kids if c.name == RUN_RFA]
        for c in kids:
            if c.name != FIT_ENSEMBLE or not rfa:
                continue
            if c.end <= rfa[0].start:
                rank += c.duration
            elif c.start >= rfa[0].end:
                final += c.duration
    return rank, final


def op_metrics(view: OpView) -> dict[str, float]:
    """Per-layer figures of one traced operation."""
    fit_s = view.time(FIT_TREE)
    splits = view.attr(FIT_TREE, "splits")
    predict_s = view.time(PREDICT_TREE)
    rows = view.attr(PREDICT_TREE, "rows")
    rank_fit, final_fit = _pipeline_fits(view)
    return {
        "trees.fit_tree_s": fit_s,
        "trees.fit_tree_calls": view.count(FIT_TREE),
        "trees.nodes": view.attr(FIT_TREE, "nodes"),
        "trees.splits": splits,
        "trees.leaves": view.attr(FIT_TREE, "leaves"),
        "trees.us_per_split": _ratio(fit_s, splits, 1e6),
        "trees.predict_batch_s": predict_s,
        "trees.predict_batch_calls": view.count(PREDICT_TREE),
        "trees.rows_routed": rows,
        "trees.ns_per_row_routed": _ratio(predict_s, rows, 1e9),
        "ensembles.fit_ensemble_s": view.time(FIT_ENSEMBLE),
        "ensembles.fit_ensemble_self_s": view.self_time(FIT_ENSEMBLE),
        "ensembles.fit_ensemble_calls": view.count(FIT_ENSEMBLE),
        "ensembles.trees_built": view.attr(FIT_ENSEMBLE, "trees"),
        "ensembles.predict_scores_s": view.time(PREDICT_SCORES),
        "ensembles.predict_scores_self_s": view.self_time(PREDICT_SCORES),
        "ensembles.evaluate_s": view.time("ensembles.evaluate"),
        "ensembles.rank_features_s": view.time("ensembles.rank_features"),
        "ensembles.load_model_s": view.time("ensembles.load_model"),
        "ensembles.model_to_dict_s": view.time("ensembles.model_to_dict"),
        "ensembles.model_json_bytes": view.attr("ensembles.load_model", "bytes")
        + view.attr("ensembles.model_to_dict", "bytes"),
        "dataset.load_dataset_s": view.time("dataset.load_dataset"),
        "dataset.rows_loaded": view.attr("dataset.load_dataset", "rows"),
        "dataset.undersample_s": view.time("dataset.undersample_majority"),
        "dataset.split_s": view.time("dataset.split_train_test"),
        "dataset.select_sensors_s": view.time("dataset.Dataset.select_sensors"),
        "dataset.select_sensors_calls": view.count("dataset.Dataset.select_sensors"),
        "simgen.generate_dataset_s": view.time("simgen.generate_dataset"),
        "simgen.rows": view.attr("simgen.generate_dataset", "rows"),
        "selection.run_rfa_s": view.time(RUN_RFA),
        "selection.run_rfa_self_s": view.self_time(RUN_RFA),
        "selection.rfa_steps": view.attr(RUN_RFA, "steps"),
        "pipeline.run_pipeline_s": view.time(RUN_PIPELINE),
        "pipeline.run_pipeline_self_s": view.self_time(RUN_PIPELINE),
        "pipeline.rank_fit_s": rank_fit,
        "pipeline.final_fit_s": final_fit,
        "robustness.run_scenarios_s": view.time(RUN_SCENARIOS),
        "robustness.run_scenarios_self_s": view.self_time(RUN_SCENARIOS),
        "robustness.scenarios": view.attr(RUN_SCENARIOS, "scenarios"),
        "robustness.inject_awgn_s": view.time("robustness.inject_awgn"),
        "robustness.fail_sensor_s": view.time("robustness.fail_sensor"),
        "metrics.build_report_s": view.time("metrics.build_report"),
        "metrics.build_report_calls": view.count("metrics.build_report"),
        "fileio.write_s": _fileio(view),
        "fileio.files_written": view.count(WRITE_FILE),
        "fileio.bytes_written": view.attr(WRITE_FILE, "bytes"),
        "trace.spans": len(view.spans) - 1,
        "trace.attributed_ratio": view.attributed(),
    }


def setup_metrics(view: OpView) -> dict[str, float]:
    """Per-layer figures of the traced set-up, which builds the inputs."""
    return {
        "setup.traced_s": view.wall,
        "setup.simgen.generate_dataset_s": view.time("simgen.generate_dataset"),
        "setup.dataset.write_csv_s": view.time("dataset.write_csv"),
        "setup.ensembles.fit_ensemble_s": view.time(FIT_ENSEMBLE),
        "setup.ensembles.model_to_dict_s": view.time("ensembles.model_to_dict"),
        "setup.fileio.write_s": _fileio(view),
    }


def views(spans: list[Span]) -> dict[object, OpView]:
    """Operation id -> its spans."""
    grouped: dict[object, list[Span]] = {}
    for s in spans:
        grouped.setdefault(s.op, []).append(s)
    return {op: OpView(group) for op, group in grouped.items()}
