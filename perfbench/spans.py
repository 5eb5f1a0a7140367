"""Spans and counters around joist's public functions, applied from outside.

:class:`Tracer` replaces each traced function, wherever a joist module holds
a reference to it, with a wrapper that records a span: name, start, end,
parent span and the command (request) it ran under. Counts are taken at the
same boundaries. Functions called once per row or per draw are "hot": they
add their calls and seconds to the enclosing span instead of making one span
each, so the span list stays small. Garbage collections seen through
``gc.callbacks`` are charged to the innermost open span.

Spans are kept in memory and written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import gc
import importlib
import itertools
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter


def _rows(args, kwargs, result):
    return len(result)


def _file_bytes(args, kwargs, result):
    # The output target is the first path-like argument, or one holding a .path.
    for arg in list(args) + list(kwargs.values()):
        path = getattr(arg, "path", arg)
        if isinstance(path, (str, os.PathLike)):
            return os.path.getsize(path)
    return 0


# (metric, module, attribute, kind, count name, count function). Several
# functions may feed one metric; a call nested in another call of the same
# metric is folded into the outer one.
TARGETS = (
    ("ingest.read_dataset", "joist.ingest", "read_dataset", "span", "ingest.rows_read", _rows),
    ("ingest.write_dataset", "joist.ingest", "write_dataset", "span", "ingest.bytes_written", _file_bytes),
    ("ingest.write_dataset", "joist.ingest", "write_features_csv", "span", "ingest.bytes_written", _file_bytes),
    ("ingest.fetch_block_features", "joist.ingest", "fetch_block_features", "span", None, None),
    ("features.extract", "joist.features", "extract_tx_features", "hot", "features.txs", None),
    ("features.dataset_build", "joist.features", "Dataset.__init__", "span", None, None),
    ("features.dataset_build", "joist.features", "Dataset.from_samples", "span", None, None),
    ("rng.draws", "joist.rng", "SplitMix64.next_uint64", "hot", "rng.draws", None),
    ("rng.shuffled_indices", "joist.rng", "shuffled_indices", "span", None, None),
    ("experiment.generate_synthetic", "joist.experiment", "generate_synthetic", "span", None, None),
    ("experiment.split", "joist.experiment", "split", "span", None, None),
    ("experiment.run_comparison", "joist.experiment", "run_comparison", "span", None, None),
    ("experiment.correlation_table", "joist.experiment", "correlation_table", "span", None, None),
    ("experiment.composition_analysis", "joist.experiment", "composition_analysis", "span", None, None),
    ("experiment.emit_plot_data", "joist.experiment", "emit_plot_data", "span", None, None),
    ("fit.design_matrix", "joist.fit", "design_matrix", "span", None, None),
    ("fit.ols_fit", "joist.fit", "ols_fit", "span", None, None),
    ("fit.standard_errors", "joist.fit", "standard_errors", "span", None, None),
    ("models.predict", "joist.models", "predict", "hot", "models.predictions", None),
    ("stats.evaluate", "joist.stats", "evaluate", "span", None, None),
    ("stats.pearson_r", "joist.stats", "pearson_r", "span", None, None),
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.gc_s = 0.0
        self.gc_collections = [0, 0, 0]
        self.request = None
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> dict:
        stack = self._stack()
        span = {
            "id": next(self._ids),
            "parent": stack[-1]["id"] if stack else None,
            "name": name,
            "request": self.request,
            "thread": threading.get_ident(),
            "gc_s": 0.0,
            "gc_collections": 0,
            "start": perf_counter(),
        }
        stack.append(span)
        return span

    def close(self, span: dict, count_name=None, count=None) -> None:
        span["end"] = perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)
            self.seconds[span["name"]] += span["end"] - span["start"]
            if count_name is not None:
                span["count"] = count
                self.counts[count_name] += count

    def _span_wrapper(self, metric, fn, count_name, count_fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if any(s["name"] == metric for s in self._stack()):
                return fn(*args, **kwargs)
            span = self.open(metric)
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                n = count_fn(args, kwargs, result) if count_fn and done else 0
                self.close(span, count_name, n)

        return wrapper

    def _hot_wrapper(self, metric, fn, count_name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                stack = self._stack()
                with self._lock:
                    self.seconds[metric] += dt
                    self.counts[count_name] += 1
                    if stack:
                        hot = stack[-1].setdefault("hot", {}).setdefault(metric, [0, 0.0])
                        hot[0] += 1
                        hot[1] += dt

        return wrapper

    # -- garbage collector ---------------------------------------------------

    def _gc_callback(self, phase, info):
        if phase == "start":
            self._local.gc_start = perf_counter()
            return
        start = getattr(self._local, "gc_start", None)
        if start is None:
            return
        dt = perf_counter() - start
        stack = self._stack()
        with self._lock:
            self.gc_s += dt
            self.gc_collections[info["generation"]] += 1
            if stack:
                stack[-1]["gc_s"] += dt
                stack[-1]["gc_collections"] += 1

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists in the loaded joist package."""
        self.missing = []
        for metric, module_name, attr, kind, count_name, count_fn in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                module = None
            owner, _, name = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            raw = vars(holder).get(name) if holder is not None else None
            if raw is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if kind == "hot":
                wrapped = self._hot_wrapper(metric, fn, count_name)
            else:
                wrapped = self._span_wrapper(metric, fn, count_name, count_fn)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            if owner:
                self._patch(holder, name, wrapped)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "joist":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, key, wrapped)
        gc.callbacks.append(self._gc_callback)

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Per span name: duration minus the time its child spans and hot calls cover."""
        child = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child[span["parent"]] += span["end"] - span["start"]
        out = defaultdict(float)
        for span in self.spans:
            hot = sum(s for _, s in span.get("hot", {}).values())
            out[span["name"]] += span["end"] - span["start"] - child[span["id"]] - hot
        return dict(out)
