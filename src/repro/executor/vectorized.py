"""Columnar (numpy) backend: the row executor's fast sibling.

Implements the same IR operators as
:class:`repro.executor.runtime.RowEngine`, but processes whole columns
per operator instead of tuple-at-a-time generators. Like the sqlite
backend it is set-oriented: each operator measures its cardinalities
(and, for the merge join, its full-key group histograms) and prices
itself through the closed-form algebra of :mod:`repro.ir.costing`, so
a completed run spends what the native meter charges up to float
summation order. The verdict is ``total <= budget``; an over-budget
run reports the budget as its spend and carries complete monitors
(:func:`~repro.ir.contracts.over_budget_result`), which discovery
consumes only as lower bounds.

Like the row engine it is an :class:`~repro.ir.contracts.IRBackend`:
plan trees are lowered to the relation-algebra IR and evaluation
dispatches on IR operators. Intermediates are columnar dicts (qualified
column name -> ndarray). Equi-join matching uses sort + binary search
(``_match_indices``); residual predicates filter matched pairs
afterwards.
"""

import numpy as np

from repro.common.errors import ExecutionError
from repro.cost.params import CostParams
from repro.ir import costing
from repro.ir.contracts import (
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


def _match_indices(left_keys, right_keys):
    """All matching index pairs of an equi-join, as (li, ri) arrays."""
    left_keys = np.asarray(left_keys)
    right_keys = np.asarray(right_keys)
    if left_keys.size == 0 or right_keys.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    order = np.argsort(right_keys, kind="stable")
    sorted_right = right_keys[order]
    lo = np.searchsorted(sorted_right, left_keys, side="left")
    hi = np.searchsorted(sorted_right, left_keys, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    li = np.repeat(np.arange(left_keys.size), counts)
    starts = np.repeat(lo, counts)
    bases = np.repeat(np.cumsum(counts) - counts, counts)
    ri = order[starts + (np.arange(total) - bases)]
    return li, ri


class VectorEngine(IRBackend):
    """Columnar executor over a numpy database."""

    backend_name = "vectorized"

    def __init__(self, database, query, params=None):
        self.database = database
        self.query = query
        self.params = params or CostParams()

    # ------------------------------------------------------------------

    def run(self, plan, budget=None, spill_node_id=None, keep_rows=False):
        """Execute ``plan``; completion is the verdict ``total metered
        cost <= budget`` over the closed-form spend (see module docs)."""
        monitors = {}
        root = plan if isinstance(plan, IRNode) else lower(plan, spill_node_id)
        columns, total = self._eval(root, monitors)
        if budget is not None and total > budget:
            return over_budget_result(budget, monitors)
        count = _batch_len(columns)
        rows = None
        if keep_rows:
            names = list(columns)
            rows = [{name: columns[name][i] for name in names}
                    for i in range(count)]
        return ExecutionResult(True, count, total, monitors, rows)

    # ------------------------------------------------------------------
    # operators: each returns ``(columns, subtree cost)``

    def _eval(self, node, monitors):
        if isinstance(node, Scan):
            return self._scan(node)
        if isinstance(node, Join):
            return self._join(node, monitors)
        if isinstance(node, IndexJoin):
            return self._index_join(node, monitors)
        if isinstance(node, Filter):
            return self._filter(node, monitors)
        if isinstance(node, Project):
            batch, cost = self._eval(node.child, monitors)
            return {name: batch[name] for name in node.columns}, cost
        if isinstance(node, SpillTruncate):
            # Truncation point: the child's batch surfaces to run(),
            # which counts (and, unless keep_rows, discards) it.
            return self._eval(node.child, monitors)
        raise ExecutionError(
            "cannot execute node %r" % type(node).__name__)

    def _filter_mask(self, n_rows, filter_names, values_of):
        """Conjunctive filter mask plus the survivor count after each
        filter (the short-circuit stages the cost algebra prices)."""
        mask = np.ones(n_rows, dtype=bool)
        survivors = []
        for name in filter_names:
            predicate = self.query.predicate(name)
            mask &= _apply_filter(values_of(predicate),
                                  predicate.op, predicate.constant)
            survivors.append(int(mask.sum()))
        return mask, survivors

    def _scan(self, node):
        table = base_table(self.database, node.table)
        n_rows = _batch_len(table)
        mask, survivors = self._filter_mask(
            n_rows, node.filter_names, lambda p: table[p.column_name])
        out = {
            "%s.%s" % (node.table, name): values[mask]
            for name, values in table.items()
        }
        return out, costing.scan_cost(self.params, n_rows, len(table),
                                      survivors)

    def _filter(self, node, monitors):
        batch, cost = self._eval(node.child, monitors)
        n_rows = _batch_len(batch)
        mask, survivors = self._filter_mask(
            n_rows, node.filter_names, lambda p: batch[p.column])
        cost += costing.filter_stage_cost(self.params, n_rows, survivors)
        return {name: values[mask] for name, values in batch.items()}, cost

    def _join(self, node, monitors):
        left, left_cost = self._eval(node.left, monitors)
        right, right_cost = self._eval(node.right, monitors)
        n_left, n_right = _batch_len(left), _batch_len(right)
        keys = join_keys(self.query, node)
        l_col, r_col = keys[0]
        li, ri = _match_indices(left[l_col], right[r_col])
        for l_col, r_col in keys[1:]:
            keep = left[l_col][li] == right[r_col][ri]
            li, ri = li[keep], ri[keep]
        out = int(li.size)
        _complete(monitors, node, n_left, n_right, out)

        params = self.params
        if node.strategy == "merge":
            iterations, _out = costing.merge_iterations(
                _key_groups(left, [lq for lq, _rq in keys]),
                _key_groups(right, [rq for _lq, rq in keys]))
            cost = costing.merge_join_cost(params, n_left, n_right,
                                           iterations, out)
        elif node.strategy == "hash":
            cost = costing.hash_join_cost(params, n_left, n_right, out)
        else:
            cost = costing.nl_join_cost(params, n_left, n_right, out)
        return _gather(left, li, right, ri), left_cost + right_cost + cost

    def _index_join(self, node, monitors):
        outer, outer_cost = self._eval(node.outer, monitors)
        inner_table = base_table(self.database, node.inner_table)
        inner = {
            "%s.%s" % (node.inner_table, name): values
            for name, values in inner_table.items()
        }
        predicate = self.query.predicate(node.primary_predicate)
        li, ri = _match_indices(
            outer[predicate.other_side(node.inner_table)],
            inner["%s.%s" % (node.inner_table, node.inner_column)])
        fetched = int(li.size)
        keep, survivors = self._filter_mask(
            fetched, node.inner_filters, lambda p: inner[p.column][ri])
        li, ri = li[keep], ri[keep]

        def side(name):
            return outer[name][li] if name in outer else inner[name][ri]

        for name in node.predicate_names[1:]:
            residual = self.query.predicate(name)
            ok = side(residual.left) == side(residual.right)
            li, ri = li[ok], ri[ok]
        # The monitor counts primary-predicate matches (fetched rows),
        # undiluted by inner filters -- the IR monitoring contract.
        _complete(monitors, node, _batch_len(outer), _batch_len(inner),
                  fetched)
        cost = costing.index_join_cost(self.params, _batch_len(outer),
                                       fetched, survivors, int(li.size))
        return _gather(outer, li, inner, ri), outer_cost + cost


# ----------------------------------------------------------------------
# batch helpers


def _batch_len(columns):
    for values in columns.values():
        return len(values)
    return 0


def _apply_filter(values, op, constant):
    if op == "<":
        return values < constant
    if op == "<=":
        return values <= constant
    if op == ">":
        return values > constant
    if op == ">=":
        return values >= constant
    return values == constant


def _complete(monitors, node, left_rows, right_rows, out_rows):
    """Record a join's complete observations (both inputs consumed)."""
    monitor = monitors.setdefault(node.origin_id, JoinMonitor())
    monitor.left_rows = left_rows
    monitor.right_rows = right_rows
    monitor.out_rows = out_rows
    monitor.left_done = True
    monitor.right_done = True


def _gather(left, li, right, ri):
    """Joined batch of matched pairs: left columns, then right's."""
    merged = {name: values[li] for name, values in left.items()}
    merged.update({name: values[ri] for name, values in right.items()})
    return merged


def _key_groups(batch, key_columns):
    """Sorted ``[(key_tuple, count), ...]`` over a side's full join key,
    the histogram :func:`~repro.ir.costing.merge_iterations` replays."""
    if not _batch_len(batch):
        return []
    stacked = np.column_stack([batch[c] for c in key_columns])
    keys, counts = np.unique(stacked, axis=0, return_counts=True)
    return list(zip(map(tuple, keys.tolist()), counts.tolist()))
