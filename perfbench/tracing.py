"""Span recorder for the traced benchmark run (stdlib only).

Each span records a name, a start and an end on ``time.perf_counter``
(``CLOCK_MONOTONIC`` on Linux, so times from different processes on one
host share a time base), the span that caused it and a few attributes.
Spans are kept in memory; a process writes its spans to
``<trace dir>/spans-<pid>.jsonl`` when it is done:

* the benchmark process and the launcher of a ``repro`` child process
  write once, when their run ends (:meth:`Recorder.dump`);
* a pool worker forked from a traced process appends its spans after
  every task it runs, because the program may SIGKILL its workers at
  shutdown (``JobScheduler.close`` does), which would lose spans held
  until exit.

:func:`install` wraps the public functions of each layer, as the
benchmark calls into them, so no code of the program is changed.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time

CLOCK = time.perf_counter

#: Environment variable naming the trace directory of a child process.
TRACE_ENV = "PERFBENCH_TRACE_DIR"


class Recorder:
    """In-memory spans of one process, with a per-thread parent stack."""

    def __init__(self, out_dir):
        self.out_dir = str(out_dir)
        self.after_fork()

    def after_fork(self):
        """Start empty; in a forked child, forget the parent's spans."""
        self.pid = os.getpid()
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name, parent=None):
        stack = self._stack()
        span = {
            "name": name,
            "id": f"{self.pid}-{next(self._ids)}",
            "parent": parent if parent is not None else (
                stack[-1]["id"] if stack else None),
            "pid": self.pid,
            "start": CLOCK(),
            "end": None,
            "attrs": {},
        }
        stack.append(span)
        return span

    def end(self, span):
        span["end"] = CLOCK()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def add(self, name, start, end, parent=None):
        """Record a span whose interval was measured elsewhere."""
        span = {
            "name": name,
            "id": f"{self.pid}-{next(self._ids)}",
            "parent": parent,
            "pid": self.pid,
            "start": start,
            "end": end,
            "attrs": {},
        }
        with self._lock:
            self.spans.append(span)

    def dump(self):
        """Append this process's spans to its file and forget them."""
        with self._lock:
            spans, self.spans = self.spans, []
        if not spans:
            return
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


#: The process's recorder; ``None`` until :func:`install` turns tracing on
#: (the wrappers exist only from then on).
RECORDER = None


def load_spans(out_dir):
    """Every span written under ``out_dir``, from every process."""
    spans = []
    if not os.path.isdir(out_dir):
        return spans
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(out_dir, name), encoding="utf-8") as handle:
                spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def self_times(spans):
    """``{span id: duration minus the time its child spans cover}``."""
    covered = {}
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + (
                span["end"] - span["start"])
    return {
        span["id"]: (span["end"] - span["start"]) - covered.get(span["id"], 0.0)
        for span in spans
    }


# ----------------------------------------------------------------------
# Wrappers around the layers' public functions


def _traced(fn, name, attrs=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = RECORDER.start(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            RECORDER.end(span)
        if attrs is not None:
            span["attrs"].update(attrs(args, result))
        return result

    return traced


def _simulator_attrs(args, _result):
    return {"events": int(args[0].events)}


def _cache_get_attrs(_args, result):
    return {"hit": result is not None}


def _predict_attrs(_args, result):
    return {"tier": result.get("tier"), "source": result.get("source")}


def _sweep_attrs(_args, report):
    return {"workers": int(report.workers), "wall_s": float(report.wall_s)}


def in_worker(submitted_at, parent, fn, *args):
    """Pool-side half of the traced ``ExecPool.submit``.

    Records the queue wait (submit to start in this worker), runs the
    call, and appends this worker's spans to its trace file.
    """
    RECORDER.add("jobs.queue_wait", submitted_at, CLOCK(), parent=parent)
    span = RECORDER.start("jobs.run", parent=parent)
    try:
        return fn(*args)
    finally:
        RECORDER.end(span)
        RECORDER.dump()


def _traced_submit(original):
    @functools.wraps(original)
    def submit(self, fn, *args):
        before = self.spawns
        span = RECORDER.start("jobs.submit")
        try:
            return original(self, in_worker, CLOCK(), span["id"], fn, *args)
        finally:
            RECORDER.end(span)
            span["attrs"]["spawned"] = self.spawns - before

    return submit


def _replace_everywhere(original, replacement):
    """Point every module attribute bound to ``original`` at the wrapper.

    A function re-exported with ``from x import f`` has one binding per
    importing module; each call site resolves its own module's binding.
    """
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, replacement)


def install(out_dir):
    """Start recording in this process and wrap every traced layer.

    Also arms forked children (pool workers) to start with an empty
    span list of their own.  Tracing stays on until the process ends.
    """
    global RECORDER
    if RECORDER is not None:
        return RECORDER
    import repro.graphs.datasets as datasets
    import repro.piuma.engine as engine
    import repro.piuma.kernels as kernels
    import repro.piuma.multinode as multinode
    import repro.runtime.cache as cache
    import repro.runtime.jobs as jobs
    import repro.runtime.runner as runner
    import repro.runtime.service as service
    import repro.runtime.shard as shard

    RECORDER = Recorder(out_dir)
    os.register_at_fork(after_in_child=RECORDER.after_fork)

    for owner, attr, name, attrs in (
        (datasets.DatasetSpec, "materialize", "graphs.materialize", None),
        (engine.Simulator, "run", "piuma.run", _simulator_attrs),
        (runner.SpMMTask, "run", "runner.task", None),
        (shard.ShardTask, "run", "runner.task", None),
        (cache.ResultCache, "get", "cache.get", _cache_get_attrs),
        (cache.ResultCache, "put", "cache.put", None),
        (service.PredictionService, "predict", "service.predict",
         _predict_attrs),
    ):
        setattr(owner, attr, _traced(owner.__dict__[attr], name, attrs))
    jobs.ExecPool.submit = _traced_submit(jobs.ExecPool.submit)

    for original, name, attrs in (
        (shard.shard_geometry, "graphs.partition", None),
        (kernels.run_spmm_kernel, "piuma.kernel", None),
        (runner.run_sweep, "runner.sweep", _sweep_attrs),
        (multinode.assemble_multinode, "multinode.assemble", None),
    ):
        _replace_everywhere(original, _traced(original, name, attrs))
    return RECORDER
