"""Tests for the sqlite execution backend (SQL-compiled IR).

The backend's promise is *exact* agreement with the tuple-at-a-time
interpreter on everything discovery consumes: spend of completed runs,
row counts, monitor counters and spill semantics -- plus the sqlite-only
machinery (budget verdicts from the closed-form model, the
progress-handler runaway guard). The closed-form verdict tests also run
against the vector engine, which judges runs the same way.
"""

import pytest

from repro.catalog.datagen import generate_database
from repro.catalog.schema import Catalog, Column, Table
from repro.common.errors import ExecutionError
from repro.executor.vectorized import VectorEngine
from repro.ir import sqlite_backend
from repro.ir.backends import NativeIterBackend
from repro.ir.costing import merge_iterations
from repro.ir.sqlite_backend import SqliteBackend
from repro.plans.nodes import (
    HashJoin,
    IndexNLJoin,
    MergeJoin,
    NestedLoopJoin,
    SeqScan,
    finalize_plan,
)
from repro.query.query import Query, make_filter, make_join


@pytest.fixture(scope="module")
def sqlite_setup():
    catalog = Catalog("sqlcat", [
        Table("fact", 500, [
            Column("f_id", 500),
            Column("f_d1", 40),
            Column("f_d2", 25),
            Column("f_val", 20, lo=0, hi=20),
        ]),
        Table("d1", 70, [
            Column("k1", 40),
            Column("k_val", 12, lo=0, hi=12),
        ]),
        Table("d2", 50, [Column("k2", 25)]),
    ])
    query = Query(
        "sqlite_q", catalog,
        ["fact", "d1", "d2"],
        [
            make_join("j1", "fact.f_d1", "d1.k1"),
            make_join("j2", "fact.f_d2", "d2.k2"),
        ],
        [make_filter("f", "fact.f_val", "<", 11),
         make_filter("g", "d1.k_val", "<", 7)],
        epps=("j1", "j2"),
    )
    database = generate_database(
        catalog, rng=17, skew={"fact.f_d1": 1.4, "d1.k1": 0.8})
    return query, database


def plans(query):
    """One finalised plan per join strategy (incl. a bushy residual)."""
    del query  # plans reference predicates by name only
    return {
        "hash-hash": finalize_plan(HashJoin(
            HashJoin(SeqScan("fact", ("f",)), SeqScan("d1", ("g",)),
                     ("j1",)),
            SeqScan("d2"), ("j2",))),
        "merge-nl": finalize_plan(NestedLoopJoin(
            MergeJoin(SeqScan("fact", ("f",)), SeqScan("d1"), ("j1",)),
            SeqScan("d2"), ("j2",))),
        "index-outer": finalize_plan(HashJoin(
            IndexNLJoin(SeqScan("fact", ("f",)), ("j1",), "d1", "k1",
                        ("g",)),
            SeqScan("d2"), ("j2",))),
        "merge-merge": finalize_plan(MergeJoin(
            MergeJoin(SeqScan("fact",), SeqScan("d1"), ("j1",)),
            SeqScan("d2"), ("j2",))),
    }


class TestExactAgreementWithNative:
    def test_unbudgeted_spend_rows_and_monitors(self, sqlite_setup):
        query, database = sqlite_setup
        native = NativeIterBackend(database, query)
        sqlite = SqliteBackend(database, query)
        for label, plan in plans(query).items():
            a = native.run(plan, budget=None)
            b = sqlite.run(plan, budget=None)
            assert b.row_count == a.row_count, label
            assert b.spent == pytest.approx(a.spent, rel=1e-9), label
            assert set(b.monitors) == set(a.monitors), label
            for nid, monitor in a.monitors.items():
                other = b.monitors[nid]
                assert (other.left_rows, other.right_rows,
                        other.out_rows) == \
                    (monitor.left_rows, monitor.right_rows,
                     monitor.out_rows), (label, nid)

    def test_keep_rows_produces_identical_row_sets(self, sqlite_setup):
        query, database = sqlite_setup
        native = NativeIterBackend(database, query)
        sqlite = SqliteBackend(database, query)
        plan = plans(query)["hash-hash"]
        a = native.run(plan, budget=None, keep_rows=True)
        b = sqlite.run(plan, budget=None, keep_rows=True)

        def canon(rows):
            return sorted(
                tuple(sorted((k, int(v)) for k, v in row.items()))
                for row in rows)
        assert canon(b.rows) == canon(a.rows)

    def test_spill_truncation_matches(self, sqlite_setup):
        query, database = sqlite_setup
        native = NativeIterBackend(database, query)
        sqlite = SqliteBackend(database, query)
        plan = plans(query)["hash-hash"]
        spill_id = plan.left.node_id  # the inner join
        a = native.run(plan, budget=None, spill_node_id=spill_id)
        b = sqlite.run(plan, budget=None, spill_node_id=spill_id)
        assert b.row_count == a.row_count
        assert b.spent == pytest.approx(a.spent, rel=1e-9)
        # Nothing above the truncation point executed: only the spilled
        # join has a monitor.
        assert set(b.monitors) == set(a.monitors) == {spill_id}


#: Set-oriented backends whose verdict is the closed form ``total <=
#: budget``.
CLOSED_FORM = pytest.mark.parametrize(
    "backend_cls", [SqliteBackend, VectorEngine],
    ids=["sqlite", "vectorized"])


class TestBudgetVerdicts:
    @CLOSED_FORM
    def test_over_budget_reports_budget_as_spend(self, sqlite_setup,
                                                 backend_cls):
        query, database = sqlite_setup
        backend = backend_cls(database, query)
        plan = plans(query)["hash-hash"]
        full = backend.run(plan, budget=None).spent
        partial = backend.run(plan, budget=full * 0.5)
        assert not partial.completed
        assert partial.spent == pytest.approx(full * 0.5)
        assert partial.row_count == 0

    @CLOSED_FORM
    def test_failed_run_still_carries_full_observations(self, sqlite_setup,
                                                        backend_cls):
        """Whole-query abort granularity: by the time the backend
        reports, counts are complete, so monitors are done and the abort
        snapshot is exact (sound as a lower bound)."""
        query, database = sqlite_setup
        backend = backend_cls(database, query)
        plan = plans(query)["hash-hash"]
        full = backend.run(plan, budget=None)
        partial = backend.run(plan, budget=full.spent * 0.5)
        assert partial.observed is not None
        for nid, monitor in full.monitors.items():
            assert partial.observed[nid] == (
                monitor.left_rows, monitor.right_rows, monitor.out_rows)
            assert partial.monitors[nid].left_done
            assert partial.monitors[nid].right_done

    def test_within_budget_completes(self, sqlite_setup):
        query, database = sqlite_setup
        sqlite = SqliteBackend(database, query)
        plan = plans(query)["merge-nl"]
        full = sqlite.run(plan, budget=None)
        again = sqlite.run(plan, budget=full.spent * 1.01)
        assert again.completed
        assert again.spent == pytest.approx(full.spent)

    def test_progress_guard_interrupts_runaway_statements(
            self, sqlite_setup, monkeypatch):
        """With the allowance collapsed, the VM-op meter fires and the
        interrupt is reported like a native budget abort."""
        query, database = sqlite_setup
        monkeypatch.setattr(sqlite_backend, "MIN_OPS_ALLOWANCE", 1)
        monkeypatch.setattr(sqlite_backend, "OPS_PER_COST_UNIT", 0)
        monkeypatch.setattr(sqlite_backend, "PROGRESS_STRIDE", 2)
        sqlite = SqliteBackend(database, query)
        result = sqlite.run(plans(query)["hash-hash"], budget=1.0)
        assert not result.completed
        assert result.spent == 1.0
        assert result.observed is not None


class TestCompilation:
    def test_unknown_table_rejected(self, sqlite_setup):
        query, database = sqlite_setup
        sqlite = SqliteBackend(database, query)
        plan = finalize_plan(SeqScan("nowhere"))
        with pytest.raises(ExecutionError, match="nowhere"):
            sqlite.run(plan)

    def test_connection_is_lazy_and_reused(self, sqlite_setup):
        query, database = sqlite_setup
        sqlite = SqliteBackend(database, query)
        assert sqlite._conn is None
        sqlite.run(finalize_plan(SeqScan("fact")))
        conn = sqlite._conn
        sqlite.run(finalize_plan(SeqScan("d1")))
        assert sqlite._conn is conn


class TestMergeIterations:
    """The closed-form replay of the interpreter's merge loop."""

    def test_disjoint_keys_advance_single_side(self):
        left = [((1,), 2), ((3,), 1)]
        right = [((2,), 4)]
        iterations, out = merge_iterations(left, right)
        # advance left group (2 rows), then the right side exhausts
        # after its group is passed by the comparison with key 3.
        assert out == 0
        assert iterations == 2 + 4

    def test_equal_groups_emit_cross_products(self):
        left = [((1,), 2), ((2,), 3)]
        right = [((1,), 5), ((2,), 1)]
        iterations, out = merge_iterations(left, right)
        assert out == 2 * 5 + 3 * 1
        assert iterations == 2

    def test_stops_when_either_side_exhausts(self):
        left = [((1,), 1)]
        right = [((1,), 1), ((2,), 100)]
        iterations, out = merge_iterations(left, right)
        assert (iterations, out) == (1, 1)
