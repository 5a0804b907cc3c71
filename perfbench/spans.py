"""In-memory span recording around the public entry points of ``repro``.

The benchmark attributes wall time to layers without editing the
package: :func:`instrument` replaces a fixed list of public methods and
functions with wrappers that record a span per call (name, start, end,
parent span, discovery-run id) and restores the originals on exit.

Self time is computed online: when a span closes, its duration is
charged to its parent's "covered" time, and its own self time is its
duration minus the time its children covered. Every second of a traced
pass therefore lands in exactly one span's self time (the pass itself
is the root span, so uninstrumented code shows up as the root's self
time, reported as ``harness``).

Spans are kept in memory up to a cap and written out as JSON lines by
:meth:`SpanRecorder.dump` when the benchmark ends.
"""

import contextlib
import functools
import gzip
import json
import os
import sys
import threading
import time
from collections import defaultdict

#: Spans kept for :meth:`SpanRecorder.dump`; later spans are still
#: aggregated, only not stored.
SPAN_CAP = 50_000


class SpanRecorder:
    """Stack-based span recorder for one thread (the benchmark's main
    thread; calls from other threads or forked workers pass through
    unrecorded)."""

    def __init__(self, cap=SPAN_CAP):
        self.cap = cap
        self.owner = threading.get_ident()
        self.pid = os.getpid()
        self.stack = []
        self.names = {}
        self.spans = []
        self.dropped = 0
        self.run_id = 0
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._active = defaultdict(int)

    def recording(self):
        return threading.get_ident() == self.owner \
            and os.getpid() == self.pid

    def push(self, name, new_run=False):
        if new_run and not self._active[name]:
            self.run_id += 1
        index = -1
        if len(self.spans) < self.cap:
            index = len(self.spans)
            parent = self.stack[-1][3] if self.stack else -1
            self.spans.append([self.names.setdefault(name, len(self.names)),
                               0.0, 0.0, parent, self.run_id])
        else:
            self.dropped += 1
        self._active[name] += 1
        frame = [name, time.perf_counter(), 0.0, index]
        self.stack.append(frame)
        return frame

    def pop(self, frame):
        end = time.perf_counter()
        name, start, covered, index = frame
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError("span %r closed out of order" % name)
        duration = end - start
        if self.stack:
            self.stack[-1][2] += duration
        self.self_s[name] += duration - covered
        self._active[name] -= 1
        if not self._active[name]:
            self.total_s[name] += duration
        self.calls[name] += 1
        if index >= 0:
            self.spans[index][1] = start
            self.spans[index][2] = end

    def count(self, name, amount=1):
        self.counts[name] += amount

    def layer_self_s(self):
        """Self time per layer (the span name's first component)."""
        layers = defaultdict(float)
        for name, seconds in self.self_s.items():
            layers[name.split(".", 1)[0]] += seconds
        return dict(layers)

    def dump(self, path):
        """Write the stored spans as gzipped JSON lines: a header, then
        ``[name, start, end, parent index, run id]`` per span."""
        names = {index: name for name, index in self.names.items()}
        with gzip.open(path, "wt") as handle:
            handle.write(json.dumps({"spans": len(self.spans),
                                     "dropped": self.dropped}) + "\n")
            for name, start, end, parent, run in self.spans:
                handle.write(json.dumps([names[name], start, end, parent,
                                         run]) + "\n")


def _call_wrapper(rec, fn, name, new_run=False, after=None):
    """Wrap ``fn``; ``name`` is a string or ``f(args) -> str``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.recording():
            return fn(*args, **kwargs)
        label = name(args, kwargs) if callable(name) else name
        frame = rec.push(label, new_run=new_run)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.pop(frame)
        if after is not None:
            after(rec, label, result)
        return result

    return wrapper


def _generator_wrapper(rec, fn, name):
    """Wrap a generator function: one span per ``next()``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        try:
            while True:
                if not rec.recording():
                    item = next(inner)
                else:
                    frame = rec.push(name)
                    try:
                        item = next(inner)
                    finally:
                        rec.pop(frame)
                yield item
        except StopIteration:
            return
        finally:
            inner.close()

    return wrapper


def _count_executions(rec, label, result):
    rec.count(label.rsplit(".", 1)[0] + ".executions",
              result.num_executions)


def _count_build(rec, label, space):
    rec.count("ess.cells", space.grid.size)
    rec.count("ess.posp_plans", space.posp_size())


def _count_locations(rec, label, sweep):
    rec.count("metrics.locations", sweep.sub_optimalities.size)


def _algorithm_name(args, kwargs):
    return "algorithms.%s.run" % args[0].name


def _backend_name(suffix):
    def name(args, kwargs):
        return "ir.%s.%s" % (args[0].backend_name, suffix)
    return name


def _journal_open_name(args, kwargs):
    return "robustness.replay" if kwargs.get("resume") \
        else "robustness.journal_open"


def _targets():
    """``(owner, attribute, wrapper factory)`` for every traced entry
    point, grouped by the ``repro`` module (layer) that owns it."""
    from repro.algorithms.planbouquet import PlanBouquet
    from repro.algorithms.spillbound import SpillBound
    from repro.catalog.datagen import DatabaseSpec
    from repro.common import atomicio
    from repro.cost.kernel import GridKernel
    from repro.engine.simulated import SimulatedEngine
    from repro.ess.contours import ContourSet
    from repro.ess.space import ExplorationSpace
    from repro.executor.rowengine import RowBackedEngine
    from repro.metrics import mso
    from repro.optimizer.dp import Optimizer
    from repro.robustness.checkpoint import DiscoveryCheckpoint
    from repro.robustness.durable import SweepJournal
    from repro.session import parallel_sweep
    from repro.session.sweep import SweepDriver

    def call(name, **kw):
        return lambda rec, fn: _call_wrapper(rec, fn, name, **kw)

    def gen(name):
        return lambda rec, fn: _generator_wrapper(rec, fn, name)

    run = call(_algorithm_name, new_run=True, after=_count_executions)
    return [
        # algorithms (AlignedBound inherits SpillBound.run)
        (PlanBouquet, "run", run),
        (SpillBound, "run", run),
        # engine
        (SimulatedEngine, "execute", call("engine.execute")),
        (SimulatedEngine, "execute_spill", call("engine.spill")),
        # cost
        (GridKernel, "plan_surface", call("cost.plan_surface")),
        (GridKernel, "spill_profile", call("cost.spill_profile")),
        # optimizer
        (Optimizer, "optimize_batch", call("optimizer.batch_dp")),
        (Optimizer, "optimize", call("optimizer.scalar_dp")),
        (Optimizer, "optimize_spilling_on", call("optimizer.scalar_dp")),
        # ess
        (ExplorationSpace, "build", call("ess.build", after=_count_build)),
        (ContourSet, "members", call("ess.contour_members")),
        # metrics
        (mso, "exhaustive_sweep",
         call("metrics.sweep", after=_count_locations)),
        # session
        (SweepDriver, "run", gen("session.sweep.unit")),
        (parallel_sweep, "parallel_run", gen("session.parallel_sweep")),
        # robustness
        (DiscoveryCheckpoint, "save", call("robustness.checkpoint_save")),
        (SweepJournal, "begin", call("robustness.journal")),
        (SweepJournal, "commit", call("robustness.journal")),
        (SweepJournal, "open", call(_journal_open_name)),
        # common
        (atomicio, "atomic_write_bytes", call("common.atomic_write")),
        (os, "fsync", call("common.fsync")),
        # executor / ir
        (RowBackedEngine, "__init__", call("executor.truth")),
        (RowBackedEngine, "execute", call(_backend_name("execute"))),
        (RowBackedEngine, "execute_spill", call(_backend_name("execute"))),
        # catalog
        (DatabaseSpec, "resolve", call("catalog.datagen")),
    ]


class instrument:
    """Context manager: trace the ``repro`` entry points into ``rec``.

    Module-level functions are also replaced in every loaded ``repro``
    module that imported them by name, so call sites that did
    ``from repro.metrics.mso import exhaustive_sweep`` are traced too.
    """

    def __init__(self, rec):
        self.rec = rec
        self._undo = []

    def __enter__(self):
        for owner, attr, factory in _targets():
            original = owner.__dict__[attr]
            wrapped = factory(self.rec, original)
            self._set(owner, attr, original, wrapped)
            if not isinstance(owner, type):
                for module in list(sys.modules.values()):
                    if module is owner or not getattr(
                            module, "__name__", "").startswith("repro"):
                        continue
                    if module.__dict__.get(attr) is original:
                        self._set(module, attr, original, wrapped)
        return self.rec

    def _set(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False


@contextlib.contextmanager
def traced_section(rec, name):
    """Trace the enclosed block into ``rec`` under a root span ``name``
    (a no-op when ``rec`` is ``None``, i.e. in an untraced pass)."""
    if rec is None:
        yield
        return
    with instrument(rec):
        frame = rec.push(name)
        try:
            yield
        finally:
            rec.pop(frame)
