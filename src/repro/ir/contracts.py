"""Cross-cutting execution contracts every IR backend implements once.

They are contracts of the *IR layer*: whatever substrate executes a
tree must meter cost against the same budget semantics, report monitors
with the same lower-bound guarantees, surface abort-time observations
the same way, and resolve tables and join keys the same way.
"""

from repro.common.errors import BudgetExhaustedError, ExecutionError


class CostMeter:
    """Accumulates cost units and enforces an optional budget.

    ``observer`` optionally supplies the selectivity observations made
    up to the abort point, so the raised :class:`BudgetExhaustedError`
    carries them to discovery algorithms (partial executions still teach
    something).
    """

    __slots__ = ("spent", "budget", "observer")

    def __init__(self, budget=None, observer=None):
        self.spent = 0.0
        self.budget = budget
        self.observer = observer

    def charge(self, units):
        self.spent += units
        if self.budget is not None and self.spent > self.budget:
            observed = self.observer() if self.observer is not None else {}
            raise BudgetExhaustedError(
                "budget %.4g exhausted" % self.budget,
                observed=observed, spent=self.spent
            )


class JoinMonitor:
    """Run-time cardinality observations for one join node.

    The ``left_done``/``right_done`` flags are part of the backend
    contract: a backend sets them exactly when the corresponding input
    has been *fully* consumed, which is what licenses reading
    :attr:`selectivity` as the true value.
    """

    __slots__ = ("left_rows", "right_rows", "out_rows", "left_done",
                 "right_done")

    def __init__(self):
        self.left_rows = 0
        self.right_rows = 0
        self.out_rows = 0
        self.left_done = False
        self.right_done = False

    @property
    def selectivity(self):
        """True join selectivity ``|out| / (|L| * |R|)`` of a completed
        join.

        Reading it from a join whose inputs are still incomplete would
        silently return a *biased* estimate (the denominator undercounts
        unseen input), so that is refused; :meth:`lower_bound` is the
        only partial-run API.
        """
        if not (self.left_done and self.right_done):
            raise ExecutionError(
                "selectivity read from an incomplete join (left_done=%s, "
                "right_done=%s); use lower_bound() for partial runs"
                % (self.left_done, self.right_done))
        denom = self.left_rows * self.right_rows
        return self.out_rows / denom if denom else 0.0

    def lower_bound(self, left_total, right_total):
        """Sound lower bound on the true selectivity from a partial run."""
        denom = float(left_total) * float(right_total)
        return self.out_rows / denom if denom else 0.0


class ExecutionResult:
    """Outcome of one (possibly budget-aborted, possibly spilled) run."""

    __slots__ = ("completed", "row_count", "spent", "monitors", "rows",
                 "observed")

    def __init__(self, completed, row_count, spent, monitors, rows=None,
                 observed=None):
        self.completed = completed
        self.row_count = row_count
        self.spent = spent
        #: ``{origin node_id: JoinMonitor}`` observations.
        self.monitors = monitors
        #: Materialised output rows (only when ``keep_rows`` was set).
        self.rows = rows
        #: ``{node_id: (left_rows, right_rows, out_rows)}`` snapshot
        #: carried by :class:`BudgetExhaustedError` at the abort point
        #: (``None`` for completed runs).
        self.observed = observed


def snapshot_monitors(monitors):
    """Observer over a live ``{node_id: JoinMonitor}`` mapping.

    The returned callable snapshots every monitor's counters as plain
    tuples -- the payload :class:`CostMeter` attaches to
    :class:`BudgetExhaustedError` and backends report as
    :attr:`ExecutionResult.observed`.
    """
    def observe():
        return {
            nid: (m.left_rows, m.right_rows, m.out_rows)
            for nid, m in monitors.items()
        }
    return observe


def over_budget_result(budget, monitors):
    """The failed verdict of a backend that judges a run in closed form.

    A set-oriented backend learns the whole run's cardinalities before
    pricing it, so when the total exceeds ``budget`` it reports what a
    per-tuple meter would have spent by its abort -- the budget itself
    -- with the (complete) monitors as the abort snapshot.
    """
    return ExecutionResult(False, 0, budget, monitors, None,
                           observed=snapshot_monitors(monitors)())


def base_table(database, table):
    """Columnar arrays of base ``table``; unknown names are an
    :class:`~repro.common.errors.ExecutionError`."""
    try:
        return database[table]
    except KeyError:
        raise ExecutionError("database has no table %r" % table) from None


def join_keys(query, node):
    """``(left_qualified, right_qualified)`` column pairs of a
    :class:`~repro.ir.nodes.Join`'s predicates, primary first, each
    oriented so its first column lies under ``node.left``."""
    left_tables = node.left.tables
    keys = []
    for name in node.predicate_names:
        predicate = query.predicate(name)
        if predicate.left_table in left_tables:
            keys.append((predicate.left, predicate.right))
        else:
            keys.append((predicate.right, predicate.left))
    return keys


def abort_observation(result, node_id):
    """Best-available ``(left, right, out)`` observation for ``node_id``
    from a budget-aborted run.

    Prefers the abort-time snapshot carried by
    :class:`BudgetExhaustedError` (threaded through
    :attr:`ExecutionResult.observed`); falls back to the node's live
    monitor when the abort fired before the observer could run (or the
    backend reports monitors but no snapshot). Returns ``None`` when the
    run learnt nothing about the node.
    """
    observation = (result.observed or {}).get(node_id)
    if observation is None:
        monitor = result.monitors.get(node_id)
        if monitor is not None:
            observation = (monitor.left_rows, monitor.right_rows,
                           monitor.out_rows)
    return observation


class IRBackend:
    """Protocol every execution backend implements.

    A backend executes lowered IR trees (accepting finalised plan trees
    and lowering internally) under the shared contracts:

    * **metering** -- every run reports ``spent`` in cost-model units;
      with a ``budget``, completion means total metered cost stayed
      within it. The native interpreter aborts per tuple; the
      set-oriented backends price a whole run through
      :mod:`repro.ir.costing` and report an over-budget run with
      :func:`over_budget_result`.
    * **spill truncation** -- ``spill_node_id`` truncates the plan at
      that node (:class:`~repro.ir.nodes.SpillTruncate`): its output is
      drained, counted and discarded.
    * **monitoring** -- every join node reports a
      :class:`JoinMonitor` keyed by its plan ``node_id``, with done
      flags set iff the input was fully consumed.
    """

    #: Short substrate name recorded in obs traces and spec vocabulary.
    backend_name = "abstract"

    def run(self, plan, budget=None, spill_node_id=None, keep_rows=False):
        """Execute ``plan``; returns an :class:`ExecutionResult`."""
        raise NotImplementedError

    def true_selectivity(self, plan, node_id):
        """True selectivity of the join at ``node_id`` (unbudgeted run)."""
        result = self.run(plan, budget=None, spill_node_id=node_id)
        return result.monitors[node_id].selectivity
