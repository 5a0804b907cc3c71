"""Seeded network/protocol chaos for the serving path.

The serving daemon's robustness claims -- structured errors instead of
connection teardown, retrying clients that always converge on the
fault-free answer -- are only worth making under *actual* wire-level
adversity. This module makes that adversity deterministic, with the
seeded discipline the engine and backend plans share
(:class:`repro.common.faults.SeededFaultPlan`):

* :class:`ServeFaultPlan` declares per-frame fault probabilities, all
  keyed by ``(seed, frame_ordinal)`` so a (plan, frame sequence) pair
  is exactly reproducible and
  :meth:`~ServeFaultPlan.schedule` computes the whole injected
  schedule without opening a socket;
* :class:`FaultInjector` applies a plan to a live stream of frames
  (one global ordinal per process position, counters per fault kind);
* the daemon installs an injector **in-process** on its reply path
  (``ServeConfig(fault_plan=...)`` / ``repro serve --faults``), which
  drops connections, truncates frames mid-write, prepends garbage
  lines and slow-lorises replies.

Fault kinds (one per frame, first drawn wins): **drop** (connection
closed without the frame), **truncate** (a seeded fraction of the
frame's bytes written, then the connection closed -- a torn write),
**garbage** (a line of seeded junk bytes injected before the frame),
**slow** (the frame delayed by a seeded number of milliseconds).
"""

import itertools
import threading

from repro.common.faults import FaultKind, SeededFaultPlan

#: Bounds of the uniformly drawn fraction of a truncated frame's bytes
#: that are actually written before the connection dies.
TRUNCATE_KEEP_LO = 0.05
TRUNCATE_KEEP_HI = 0.85

#: Bounds (bytes) of an injected garbage line's length.
GARBAGE_LEN_LO = 1
GARBAGE_LEN_HI = 64


def _truncate_keep(plan, rng, resolution):
    return {"keep_fraction": float(rng.uniform(TRUNCATE_KEEP_LO,
                                               TRUNCATE_KEEP_HI))}


def _garbage_data(plan, rng, resolution):
    length = int(rng.integers(GARBAGE_LEN_LO, GARBAGE_LEN_HI + 1))
    data = rng.integers(0, 256, size=length)
    # Keep the junk a single line: a newline inside would split it into
    # several frames and make schedules harder to reason about.
    return {"data": [int(b) if b != 0x0A else 0x2A for b in data]}


def _slow_delay(plan, rng, resolution):
    delay = rng.uniform(plan.slow_ms / 4.0, plan.slow_ms) \
        if plan.slow_ms else 0.0
    return {"delay_ms": float(delay)}


class ServeFaultPlan(SeededFaultPlan):
    """Declarative description of the wire adversity to inject.

    Rates (``drop_rate``, ``truncate_rate``, ``garbage_rate``,
    ``slow_rate``) are independent per-frame probabilities in
    ``[0, 1]``; ``slow_ms`` bounds the injected delay (drawn uniformly
    from ``[slow_ms / 4, slow_ms]``). The ``*_on_frames`` sets force a
    fault at specific 1-based frame ordinals regardless of the rates --
    the hook targeted tests use for deterministic single-fault
    scenarios. Draw order is drop -> truncate -> garbage -> slow, one
    fault per frame; decisions carry ``keep_fraction`` for truncation,
    ``data`` (newline-free byte values) for garbage and ``delay_ms`` for
    slowness. A bare-float spec sets the drop rate.
    """

    KINDS = (
        FaultKind("drop", "drop", "drop_rate", "drop_on_frames"),
        FaultKind("truncate", "truncate", "truncate_rate",
                  "truncate_on_frames", draw=_truncate_keep),
        FaultKind("garbage", "garbage", "garbage_rate",
                  "garbage_on_frames", draw=_garbage_data),
        FaultKind("slow", "slow", "slow_rate", "slow_on_frames",
                  draw=_slow_delay),
    )
    ORDINAL = "frame"
    DEFAULT_KNOB = "drop"
    EXTRA = ("slow_ms", 40.0, 0.0)


class FaultInjector:
    """Applies a :class:`ServeFaultPlan` to a live frame stream.

    One injector holds one global frame counter (thread-safe), so the
    injected sequence across all connections follows the plan's
    schedule in arrival order; per-kind counters feed the daemon's
    ``stats`` payload.
    """

    __slots__ = ("plan", "_ordinals", "_lock", "counts")

    def __init__(self, plan):
        self.plan = plan
        self._ordinals = itertools.count(1)
        self._lock = threading.Lock()
        self.counts = {"frames": 0, "drop": 0, "truncate": 0,
                       "garbage": 0, "slow": 0}

    def next_fault(self):
        """The decision for the next frame (advances the ordinal)."""
        with self._lock:
            ordinal = next(self._ordinals)
            decision = self.plan.fault_at(ordinal)
            self.counts["frames"] += 1
            if decision["fault"]:
                self.counts[decision["fault"]] += 1
        return decision

    def snapshot(self):
        """JSON-safe counters + the plan, for ``stats``."""
        with self._lock:
            counts = dict(self.counts)
        return {"plan": self.plan.describe(), "seed": self.plan.seed,
                "injected": counts}

    def __repr__(self):
        return "FaultInjector(%r, %d frames)" % (self.plan,
                                                 self.counts["frames"])


def garbage_line(decision):
    """The injected junk bytes for a ``garbage`` decision, terminated."""
    return bytes(decision["data"]) + b"\n"
