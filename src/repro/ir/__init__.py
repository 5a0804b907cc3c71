"""Relation-algebra IR with pluggable execution backends.

The discovery algorithms of the paper are *platform-independent*: they
consume only completion verdicts, spend totals and monitored join
selectivities. This package makes that literal. Finalised physical
plans (:mod:`repro.plans.nodes`) are lowered onto a minimal
relation-algebra IR (:mod:`repro.ir.nodes`) -- scan, filter, equi-join
with a physical-strategy hint, project, spill-truncate -- and every
executor is a backend implementing one protocol
(:class:`repro.ir.contracts.IRBackend`):

* :class:`~repro.ir.backends.NativeIterBackend` -- the tuple-at-a-time
  Volcano-style iterator executor (finest budget granularity);
* :class:`~repro.ir.backends.VectorBackend` -- the columnar numpy
  executor (whole-query granularity: closed-form spend and verdict);
* :class:`~repro.ir.backends.SqliteBackend` -- compiles the same SPJ
  trees to SQL on in-memory sqlite3 (whole-query granularity), with a
  progress-handler cost meter as runaway backstop and per-join counting
  subqueries supplying the selectivity monitors.

The cross-cutting execution contracts -- cost metering
(:class:`~repro.ir.contracts.CostMeter`), monitor lower-bound semantics
(:class:`~repro.ir.contracts.JoinMonitor`), abort observations
(:func:`~repro.ir.contracts.abort_observation`) -- live here once
instead of per interpreter. See DESIGN.md §11 for the backend
obligations and the cross-backend agreement guarantees.
"""

from repro.ir.contracts import (
    CostMeter,
    ExecutionResult,
    IRBackend,
    JoinMonitor,
    abort_observation,
    snapshot_monitors,
)
from repro.ir.lower import lower
from repro.ir.nodes import (
    Filter,
    IndexJoin,
    IRNode,
    Join,
    Project,
    Scan,
    SpillTruncate,
)

__all__ = [
    "CostMeter",
    "ExecutionResult",
    "IRBackend",
    "JoinMonitor",
    "abort_observation",
    "snapshot_monitors",
    "lower",
    "IRNode",
    "Scan",
    "Filter",
    "Join",
    "IndexJoin",
    "Project",
    "SpillTruncate",
]
