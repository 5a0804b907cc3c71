"""Sqlite execution backend: the same IR trees, compiled to SQL.

This is the "platform-independent" claim made literal: a genuinely
different substrate -- set-oriented, SQL-compiled, executed by sqlite's
bytecode VM over an in-memory copy of the row store -- that discovery
algorithms drive through the exact same
:class:`~repro.ir.contracts.IRBackend` contract as the tuple-at-a-time
interpreter.

How the contracts map onto a set-oriented engine:

* **metering** -- sqlite does not execute our cost algebra, so spend is
  *modelled*: per-join counting subqueries (and per-filter prefix
  counts) observe the true cardinalities, and
  :mod:`repro.ir.costing` applies the same closed-form charge formulas
  the interpreters accumulate tuple-at-a-time. The merge join's
  data-dependent iteration count is replayed exactly from ``GROUP BY``
  key-group counts (:func:`~repro.ir.costing.merge_iterations`), so a
  completed run's spend equals the native engine's up to float
  summation order. Completion is the budget verdict ``total <=
  budget`` -- the same condition under which the native engine never
  aborts.
* **budget enforcement** -- a sqlite *progress handler* charges a
  :class:`~repro.ir.contracts.CostMeter` denominated in VM operations
  (an allowance proportional to the cost budget); if it exhausts, the
  statement is interrupted. It is a runaway backstop: sized so finite
  over-budget queries still finish their counting pass (their verdict
  and observations come from the model), while pathological executions
  are cut off mid-statement like a native per-tuple abort.
* **abort granularity** -- whole-query. By the time sqlite can report
  anything it has the complete counts, so even a failed-verdict run
  carries *complete* monitors (done flags set) and exact abort
  observations. Discovery only consumes them as lower bounds, so the
  extra precision is sound.
* **spill truncation** -- a :class:`~repro.ir.nodes.SpillTruncate` root
  compiles to a ``COUNT(*)`` over the truncated subtree.
"""

import sqlite3

from repro.common.errors import BudgetExhaustedError, ExecutionError
from repro.cost.params import CostParams
from repro.ir import costing
from repro.ir.contracts import (
    CostMeter,
    ExecutionResult,
    IRBackend,
    JoinMonitor,
    base_table,
    join_keys,
    over_budget_result,
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

#: VM operations granted per cost unit of budget; generous so the
#: progress handler only interrupts runaway statements, never finite
#: over-budget ones (whose verdict comes from the cost model).
OPS_PER_COST_UNIT = 200_000

#: Minimum VM-operation allowance regardless of budget size.
MIN_OPS_ALLOWANCE = 5_000_000

#: VM operations between progress-handler invocations.
PROGRESS_STRIDE = 10_000


class _Rel:
    """One compiled subtree: its SQL, output columns and cardinality."""

    __slots__ = ("sql", "columns", "rows")

    def __init__(self, sql, columns, rows):
        self.sql = sql
        self.columns = columns
        self.rows = rows


def _q(name):
    """Quote an identifier (qualified names contain a dot)."""
    return '"%s"' % name


def _const(value):
    """Render a numeric predicate constant as a SQL literal."""
    return repr(int(value)) if float(value).is_integer() \
        else repr(float(value))


class SqliteBackend(IRBackend):
    """Executes IR trees as SQL over an in-memory sqlite3 database.

    Constructed like the interpreting backends: ``database`` maps table
    names to columnar numpy arrays (copied into sqlite lazily, once per
    backend), ``query`` supplies predicate definitions.
    """

    backend_name = "sqlite"

    def __init__(self, database, query, params=None):
        self.database = database
        self.query = query
        self.params = params or CostParams()
        self._conn = None

    # ------------------------------------------------------------------
    # store

    def _connection(self):
        if self._conn is None:
            conn = sqlite3.connect(":memory:")
            for table, columns in self.database.items():
                names = list(columns)
                if not names:
                    continue
                conn.execute("CREATE TABLE %s (%s)" % (
                    _q(table),
                    ", ".join("%s INTEGER" % _q(n) for n in names)))
                arrays = [columns[n].tolist() for n in names]
                conn.executemany(
                    "INSERT INTO %s VALUES (%s)"
                    % (_q(table), ", ".join("?" for _ in names)),
                    zip(*arrays))
            conn.commit()
            self._conn = conn
        return self._conn

    def _table_rows(self, table):
        for values in base_table(self.database, table).values():
            return len(values)
        return 0

    # ------------------------------------------------------------------
    # execution

    def run(self, plan, budget=None, spill_node_id=None, keep_rows=False):
        """Execute ``plan``; completion is the verdict ``total metered
        cost <= budget`` over the modelled spend (see module docs)."""
        root = plan if isinstance(plan, IRNode) \
            else lower(plan, spill_node_id)
        conn = self._connection()
        monitors = {}
        remove = self._install_guard(conn, budget)
        try:
            rel, total = self._build(root, conn, monitors)
            rows = None
            if keep_rows:
                rows = self._fetch_rows(conn, rel)
        except sqlite3.OperationalError:
            # The progress-handler meter interrupted a runaway
            # statement; report the abort like a native budget abort.
            return over_budget_result(budget, monitors)
        finally:
            remove()
        if budget is not None and total > budget:
            return over_budget_result(budget, monitors)
        return ExecutionResult(True, rel.rows, total, monitors, rows)

    def _install_guard(self, conn, budget):
        """Arm the progress-handler cost meter; returns its disarm hook."""
        if budget is None:
            return lambda: None
        allowance = max(MIN_OPS_ALLOWANCE,
                        int(budget * OPS_PER_COST_UNIT))
        ops_meter = CostMeter(budget=allowance)

        def handler():
            try:
                ops_meter.charge(PROGRESS_STRIDE)
            except BudgetExhaustedError:
                return 1
            return 0

        conn.set_progress_handler(handler, PROGRESS_STRIDE)
        return lambda: conn.set_progress_handler(None, 0)

    def _fetch_rows(self, conn, rel):
        cursor = conn.execute(rel.sql)
        return [dict(zip(rel.columns, row)) for row in cursor]

    def _count(self, conn, sql):
        cursor = conn.execute("SELECT COUNT(*) FROM (%s)" % sql)
        return int(cursor.fetchone()[0])

    # ------------------------------------------------------------------
    # compilation + analysis (one recursion: SQL, counts, model cost)

    def _build(self, node, conn, monitors):
        """Compile ``node``, run its counting queries, price it.

        Returns ``(_Rel, subtree model cost)``; fills ``monitors`` for
        every join keyed by origin id, done flags set (whole-query
        granularity: observations are complete by construction).
        """
        if isinstance(node, Scan):
            return self._build_scan(node, conn)
        if isinstance(node, Filter):
            return self._build_filter(node, conn, monitors)
        if isinstance(node, Join):
            return self._build_join(node, conn, monitors)
        if isinstance(node, IndexJoin):
            return self._build_index_join(node, conn, monitors)
        if isinstance(node, Project):
            return self._build_project(node, conn, monitors)
        if isinstance(node, SpillTruncate):
            # Truncation: the child's output is counted and discarded;
            # nothing above it exists, and the count is free.
            return self._build(node.child, conn, monitors)
        raise ExecutionError(
            "cannot execute node %r" % type(node).__name__)

    def _filter_sql(self, name, qualified):
        """One filter predicate as SQL over base (or derived) columns."""
        predicate = self.query.predicate(name)
        column = predicate.column if qualified else predicate.column_name
        op = "=" if predicate.op == "=" else predicate.op
        return "%s %s %s" % (_q(column), op, _const(predicate.constant))

    def _build_scan(self, node, conn):
        columns = list(base_table(self.database, node.table))
        n_rows = self._table_rows(node.table)
        select = ", ".join(
            "%s AS %s" % (_q(c), _q("%s.%s" % (node.table, c)))
            for c in columns)
        conditions = [self._filter_sql(name, qualified=False)
                      for name in node.filter_names]
        sql = "SELECT %s FROM %s" % (select, _q(node.table))
        survivors = []
        for k in range(1, len(conditions) + 1):
            survivors.append(self._count(
                conn, "SELECT 1 FROM %s WHERE %s"
                % (_q(node.table), " AND ".join(conditions[:k]))))
        if conditions:
            sql += " WHERE %s" % " AND ".join(conditions)
        out = survivors[-1] if survivors else n_rows
        cost = costing.scan_cost(self.params, n_rows, len(columns),
                                 survivors)
        qualified = ["%s.%s" % (node.table, c) for c in columns]
        return _Rel(sql, qualified, out), cost

    def _build_filter(self, node, conn, monitors):
        child, cost = self._build(node.child, conn, monitors)
        conditions = [self._filter_sql(name, qualified=True)
                      for name in node.filter_names]
        survivors = []
        for k in range(1, len(conditions) + 1):
            survivors.append(self._count(
                conn, "SELECT 1 FROM (%s) WHERE %s"
                % (child.sql, " AND ".join(conditions[:k]))))
        sql = "SELECT * FROM (%s)" % child.sql
        if conditions:
            sql += " WHERE %s" % " AND ".join(conditions)
        out = survivors[-1] if survivors else child.rows
        cost += costing.filter_stage_cost(self.params, child.rows,
                                          survivors)
        return _Rel(sql, child.columns, out), cost

    def _build_join(self, node, conn, monitors):
        left, left_cost = self._build(node.left, conn, monitors)
        right, right_cost = self._build(node.right, conn, monitors)
        keys = join_keys(self.query, node)
        on = " AND ".join(
            "l.%s = r.%s" % (_q(lq), _q(rq)) for lq, rq in keys)
        select = ", ".join(
            ["l.%s AS %s" % (_q(c), _q(c)) for c in left.columns]
            + ["r.%s AS %s" % (_q(c), _q(c)) for c in right.columns])
        sql = "SELECT %s FROM (%s) AS l JOIN (%s) AS r ON %s" % (
            select, left.sql, right.sql, on)

        monitor = monitors.setdefault(node.origin_id, JoinMonitor())
        monitor.left_rows = left.rows
        monitor.right_rows = right.rows
        monitor.left_done = True
        monitor.right_done = True

        params = self.params
        if node.strategy == "merge":
            left_groups = self._key_groups(conn, left,
                                           [lq for lq, _rq in keys])
            right_groups = self._key_groups(conn, right,
                                            [rq for _lq, rq in keys])
            iterations, out = costing.merge_iterations(left_groups,
                                                       right_groups)
            cost = costing.merge_join_cost(params, left.rows, right.rows,
                                           iterations, out)
        else:
            out = self._count(conn, sql)
            if node.strategy == "hash":
                cost = costing.hash_join_cost(params, left.rows,
                                              right.rows, out)
            else:
                cost = costing.nl_join_cost(params, left.rows,
                                            right.rows, out)
        monitor.out_rows = out
        columns = left.columns + [c for c in right.columns
                                  if c not in left.columns]
        return _Rel(sql, columns, out), left_cost + right_cost + cost

    def _key_groups(self, conn, rel, key_columns):
        """Sorted ``[(key_tuple, count), ...]`` of a side's join keys."""
        cols = ", ".join(_q(c) for c in key_columns)
        cursor = conn.execute(
            "SELECT %s, COUNT(*) FROM (%s) GROUP BY %s ORDER BY %s"
            % (cols, rel.sql, cols, cols))
        return [(tuple(row[:-1]), int(row[-1])) for row in cursor]

    def _build_index_join(self, node, conn, monitors):
        outer, outer_cost = self._build(node.outer, conn, monitors)
        inner_rows = self._table_rows(node.inner_table)
        inner_columns = list(self.database[node.inner_table])
        predicate = self.query.predicate(node.primary_predicate)
        outer_key = predicate.other_side(node.inner_table)

        primary = "o.%s = i.%s" % (_q(outer_key), _q(node.inner_column))
        base = "FROM (%s) AS o JOIN %s AS i" % (
            outer.sql, _q(node.inner_table))
        fetched = self._count(conn,
                              "SELECT 1 %s ON %s" % (base, primary))

        conditions = [primary]
        survivors = []
        for name in node.inner_filters:
            filt = self.query.predicate(name)
            conditions.append("i.%s %s %s" % (
                _q(filt.column_name), filt.op, _const(filt.constant)))
            survivors.append(self._count(
                conn, "SELECT 1 %s ON %s"
                % (base, " AND ".join(conditions))))

        for name in node.predicate_names[1:]:
            residual = self.query.predicate(name)
            conditions.append("%s = %s" % (
                self._side_ref(residual.left, outer, node.inner_table),
                self._side_ref(residual.right, outer, node.inner_table)))

        select = ", ".join(
            ["o.%s AS %s" % (_q(c), _q(c)) for c in outer.columns]
            + ["i.%s AS %s"
               % (_q(c), _q("%s.%s" % (node.inner_table, c)))
               for c in inner_columns])
        sql = "SELECT %s %s ON %s" % (select, base,
                                      " AND ".join(conditions))
        emitted = self._count(conn, sql)

        monitor = monitors.setdefault(node.origin_id, JoinMonitor())
        monitor.left_rows = outer.rows
        monitor.right_rows = inner_rows
        # Primary-predicate matches (fetched rows), undiluted by inner
        # filters -- the IR monitoring contract.
        monitor.out_rows = fetched
        monitor.left_done = True
        monitor.right_done = True

        cost = costing.index_join_cost(self.params, outer.rows, fetched,
                                       survivors, emitted)
        columns = outer.columns + [
            "%s.%s" % (node.inner_table, c) for c in inner_columns
            if "%s.%s" % (node.inner_table, c) not in outer.columns]
        return _Rel(sql, columns, emitted), outer_cost + cost

    def _side_ref(self, qualified, outer, inner_table):
        """SQL reference for one side of a residual predicate."""
        if qualified in outer.columns:
            return "o.%s" % _q(qualified)
        table, column = qualified.split(".", 1)
        if table != inner_table:
            raise ExecutionError(
                "residual column %r is neither in the outer input nor "
                "on the inner table %r" % (qualified, inner_table))
        return "i.%s" % _q(column)

    def _build_project(self, node, conn, monitors):
        child, cost = self._build(node.child, conn, monitors)
        select = ", ".join(_q(c) for c in node.columns)
        sql = "SELECT %s FROM (%s)" % (select, child.sql)
        return _Rel(sql, list(node.columns), child.rows), cost
