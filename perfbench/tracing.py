"""Spans and counters recorded around calls into the taplab layers.

The tracer wraps public functions and methods of an imported taplab from
outside the package: it replaces module attributes and class methods with
timing wrappers and restores them on ``uninstall``.  Spans are kept in
memory as ``[name, start, end, parent, row, thread]`` lists; ``parent`` is
the enclosing span object on the same thread, or the current root span
(a ``cli.sweep`` call) for spans opened on a worker thread of the sweep.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import threading
import time
from collections import defaultdict

# (module, public function, span name); a None span name only counts calls.
FUNCTIONS = [
    ("oracle", "opt_awake_exhaustive", "oracle.exhaustive"),
    ("oracle", "opt_awake_given_decisions", None),
    ("oracle", "opt_trt_lower", "oracle.trt_lower"),
    ("engine", "simulate", "engine.simulate"),
    ("engine", "validate_trace", "engine.validate"),
    ("core", "metrics_from_trace", "core.metrics"),
    ("core", "tap_from_json", "core.json_load"),
    ("adversary", "gen_random", "adversary.gen"),
    ("adversary", "gen_random_dtap", "adversary.gen"),
    ("cli", "main", "cli.sweep"),
]
CALLBACKS = ("on_arrival", "on_completion", "on_timer", "allocate")
SCHEDULER_MODULES = ("sched_awake", "sched_mrt", "dtap")

LAYER_METRICS = [
    ("oracle.exhaustive_s", "s"),
    ("oracle.exhaustive_calls", "count"),
    ("oracle.decision_vectors", "count"),
    ("oracle.trt_lower_s", "s"),
    ("engine.simulate_s", "s"),
    ("engine.self_s", "s"),
    ("engine.slices", "count"),
    ("engine.us_per_slice", "us"),
    ("engine.validate_s", "s"),
    ("sched_awake.callback_s", "s"),
    ("sched_awake.callbacks", "count"),
    ("sched_mrt.callback_s", "s"),
    ("sched_mrt.callbacks", "count"),
    ("sched_mrt.nested_advance_s", "s"),
    ("sched_mrt.nested_slices", "count"),
    ("dtap.callback_s", "s"),
    ("dtap.callbacks", "count"),
    ("rationals.max_den_bits", "bits"),
    ("core.metrics_s", "s"),
    ("core.json_load_s", "s"),
    ("adversary.gen_s", "s"),
    ("cli.sweep_s", "s"),
    ("cli.self_s", "s"),
]
COUNTS = [name for name, unit in LAYER_METRICS if unit in ("count", "bits")]
# self-time metric -> span name; every other time metric "<span>_s" is inclusive
SELF_TIMES = {"engine.self_s": "engine.simulate", "cli.self_s": "cli.sweep"}


def _merge(intervals) -> list:
    """Sorted disjoint union of (start, end) intervals."""
    merged = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        elif b > a:
            merged.append([a, b])
    return merged


def _length(intervals) -> float:
    return sum((b - a for a, b in _merge(intervals)), 0.0)


def _den_bits(trace) -> int:
    bits = 0
    for t0, t1, alloc in trace.slices:
        for value in (t0, t1, *alloc.values()):
            bits = max(bits, int(value.denominator).bit_length())
    return bits


class Tracer:
    """Records spans and counters while installed on one taplab import."""

    def __init__(self, tl):
        self.tl = tl
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self._local = threading.local()
        self._root = None
        self._sweeps = 0
        self._restore: list = []

    # -- span bookkeeping ----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_row(self, row) -> None:
        """Row id for the spans the calling thread opens from now on."""
        self._local.row = row

    def _open(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        if name == "engine.simulate" and not stack and self._root is not None:
            # a sweep worker starts a new row with each top-level simulate
            self._local.rows = getattr(self._local, "rows", 0) + 1
            self._local.row = (
                f"sweep{self._sweeps}:{threading.current_thread().name}:"
                f"{self._local.rows}"
            )
        span = [name, time.perf_counter(), None, parent,
                getattr(self._local, "row", None), threading.get_ident()]
        self.spans.append(span)
        stack.append(span)
        if name == "cli.sweep":
            self._sweeps += 1
            self._root = span
        return span

    def _close(self, span) -> None:
        span[2] = time.perf_counter()
        self._stack().pop()
        if span is self._root:
            self._root = None

    # -- wrappers --------------------------------------------------------------

    def _wrap_function(self, fn, name):
        tracer = self

        if name is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.counts["oracle.decision_vectors"] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if name == "engine.simulate":
                tracer.counts["engine.slices"] += len(result.slices)
                tracer.counts["rationals.max_den_bits"] = max(
                    tracer.counts["rationals.max_den_bits"], _den_bits(result))
            elif name == "oracle.exhaustive":
                tracer.counts["oracle.exhaustive_calls"] += 1
            return result
        return traced

    def _wrap_callback(self, fn, layer):
        tracer = self
        name = f"{layer}.callback"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.counts[f"{layer}.callbacks"] += 1
            span = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)
        return traced

    def _wrap_advance(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(engine, t):
            before = len(engine.trace.slices)
            span = tracer._open("sched_mrt.nested_advance")
            try:
                return fn(engine, t)
            finally:
                tracer._close(span)
                tracer.counts["sched_mrt.nested_slices"] += (
                    len(engine.trace.slices) - before)
        return traced

    def _patch(self, owner, attr, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every reference to the traced functions in every taplab
        module, each scheduler class's callbacks and ``Engine.advance_to``."""
        modules = [m for name, m in sys.modules.items()
                   if name == "taplab" or name.startswith("taplab.")]
        for mod_name, fn_name, span_name in FUNCTIONS:
            original = getattr(getattr(self.tl, mod_name), fn_name)
            wrapped = self._wrap_function(original, span_name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapped)
        base = self.tl.engine.Scheduler
        for layer in SCHEDULER_MODULES:
            module = getattr(self.tl, layer)
            for cls in vars(module).values():
                if not (isinstance(cls, type) and issubclass(cls, base)
                        and cls.__module__ == module.__name__):
                    continue
                for attr in CALLBACKS:
                    fn = getattr(cls, attr)
                    # a subclass may inherit a callback wrapped on its parent
                    fn = getattr(fn, "__wrapped__", fn)
                    self._restore.append((cls, attr, cls.__dict__.get(attr)))
                    setattr(cls, attr, self._wrap_callback(fn, layer))
        engine_cls = self.tl.engine.Engine
        self._patch(engine_cls, "advance_to", self._wrap_advance(engine_cls.advance_to))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            if value is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
        self._restore = []

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values over the spans and counts recorded so far.

        A layer's time is the length of the union of its spans' intervals
        (or of their self intervals: a span minus its child spans), so a
        layer busy on the sweep's two threads at once counts that time once.
        """
        children = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[id(span[3])].append((span[1], span[2]))
        whole = defaultdict(list)
        own = defaultdict(list)
        for span in self.spans:
            name, t0, t1 = span[0], span[1], span[2]
            whole[name].append((t0, t1))
            cursor = t0
            for a, b in _merge(children[id(span)]):
                own[name].append((cursor, a))
                cursor = b
            own[name].append((cursor, t1))
        out = {}
        for name, unit in LAYER_METRICS:
            if unit in ("count", "bits"):
                out[name] = self.counts[name]
            elif name.endswith("callback_s"):
                out[name] = _length(own[name[:-2]])
            elif name in SELF_TIMES:
                out[name] = _length(own[SELF_TIMES[name]])
            elif name != "engine.us_per_slice":
                out[name] = _length(whole[name[:-2]])
        slices = self.counts["engine.slices"]
        out["engine.us_per_slice"] = 1e6 * out["engine.self_s"] / slices if slices else 0.0
        return out

    def write(self, path) -> None:
        """Write the recorded spans as gzipped JSON lines, parents by index."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with gzip.open(path, "wt") as fh:
            for i, (name, t0, t1, parent, row, thread) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": t0, "end": t1,
                    "parent": None if parent is None else index[id(parent)],
                    "row": row, "thread": thread,
                }) + "\n")
