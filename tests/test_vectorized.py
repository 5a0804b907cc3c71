"""Equivalence tests: vectorized executor vs the row executor."""

import numpy as np
import pytest

from repro.catalog.datagen import generate_database
from repro.catalog.schema import Catalog, Column, Table
from repro.executor.runtime import RowEngine
from repro.executor.vectorized import VectorEngine, _match_indices
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
def vec_setup():
    catalog = Catalog("vec", [
        Table("orders", 600, [
            Column("o_id", 600),
            Column("o_cust", 50),
            Column("o_total", 40, lo=0, hi=40),
        ]),
        Table("cust", 80, [
            Column("c_id", 50, indexed=True),
            Column("c_region", 6, lo=0, hi=6),
        ]),
        Table("region", 12, [
            Column("r_id", 6),
        ]),
    ])
    query = Query(
        "vec_q", catalog, ["orders", "cust", "region"],
        [
            make_join("oc", "orders.o_cust", "cust.c_id"),
            make_join("cr", "cust.c_region", "region.r_id"),
        ],
        [make_filter("cheap", "orders.o_total", "<", 20),
         make_filter("near", "cust.c_region", "<", 3)],
        epps=("oc", "cr"),
    )
    database = generate_database(catalog, rng=3)
    return query, database


def two_join_plan(join_cls):
    return finalize_plan(join_cls(
        join_cls(
            SeqScan("orders", ("cheap",)),
            SeqScan("cust"),
            ("oc",),
        ),
        SeqScan("region"),
        ("cr",),
    ))


class TestMatchIndices:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        left = rng.integers(0, 12, size=40)
        right = rng.integers(0, 12, size=25)
        li, ri = _match_indices(left, right)
        got = sorted(zip(li.tolist(), ri.tolist()))
        expected = sorted(
            (i, j)
            for i in range(left.size)
            for j in range(right.size)
            if left[i] == right[j]
        )
        assert got == expected

    def test_empty_inputs(self):
        empty = np.array([], dtype=int)
        for left, right in ((np.array([1, 2]), empty),
                            (empty, np.array([1, 2]))):
            li, ri = _match_indices(left, right)
            assert li.size == 0 and ri.size == 0


class TestOperatorEquivalence:
    @pytest.mark.parametrize("join_cls",
                             [HashJoin, MergeJoin, NestedLoopJoin])
    def test_row_counts_match(self, vec_setup, join_cls):
        query, database = vec_setup
        plan = two_join_plan(join_cls)
        row_result = RowEngine(database, query).run(plan)
        vec_result = VectorEngine(database, query).run(plan)
        assert vec_result.completed
        assert vec_result.row_count == row_result.row_count

    @pytest.mark.parametrize("join_cls",
                             [HashJoin, MergeJoin, NestedLoopJoin])
    def test_spent_identical_for_hash_and_nl(self, vec_setup, join_cls):
        """The closed-form spend of a completed run equals the row
        engine's metered spend for every join class -- the merge join
        included, whose iteration count is replayed from full-key group
        histograms."""
        query, database = vec_setup
        plan = two_join_plan(join_cls)
        row_spent = RowEngine(database, query).run(plan).spent
        vec_spent = VectorEngine(database, query).run(plan).spent
        assert vec_spent == pytest.approx(row_spent, rel=1e-12)

    def test_monitor_selectivities_match(self, vec_setup):
        query, database = vec_setup
        plan = two_join_plan(HashJoin)
        node_id = plan.left.node_id
        row_sel = RowEngine(database, query).true_selectivity(
            plan, node_id)
        vec_sel = VectorEngine(database, query).true_selectivity(
            plan, node_id)
        assert vec_sel == pytest.approx(row_sel)

    def test_index_join_matches_row_engine(self, vec_setup):
        """Inner filters are charged on fetched rows only; the monitor
        counts fetched rows, undiluted by the filter."""
        query, database = vec_setup
        for inner_filters in ((), ("near",)):
            plan = finalize_plan(IndexNLJoin(
                SeqScan("orders", ("cheap",)), ("oc",), "cust", "c_id",
                inner_filters))
            row_result = RowEngine(database, query).run(plan)
            vec_result = VectorEngine(database, query).run(plan)
            assert vec_result.row_count == row_result.row_count
            assert vec_result.spent == pytest.approx(row_result.spent,
                                                     rel=1e-12)
            row_mon = row_result.monitors[plan.node_id]
            vec_mon = vec_result.monitors[plan.node_id]
            assert (vec_mon.left_rows, vec_mon.right_rows,
                    vec_mon.out_rows) == (row_mon.left_rows,
                                          row_mon.right_rows,
                                          row_mon.out_rows)

    def test_keep_rows(self, vec_setup):
        query, database = vec_setup
        plan = two_join_plan(HashJoin)
        result = VectorEngine(database, query).run(plan, keep_rows=True)
        assert len(result.rows) == result.row_count
        if result.rows:
            assert "region.r_id" in result.rows[0]


class TestBudgets:
    def test_abort_partial(self, vec_setup):
        query, database = vec_setup
        plan = two_join_plan(HashJoin)
        engine = VectorEngine(database, query)
        full = engine.run(plan)
        partial = engine.run(plan, budget=full.spent / 3)
        assert not partial.completed
        assert partial.spent <= full.spent

    def test_spill_truncation(self, vec_setup):
        query, database = vec_setup
        plan = two_join_plan(HashJoin)
        engine = VectorEngine(database, query)
        node_id = plan.left.node_id
        spilled = engine.run(plan, spill_node_id=node_id)
        row_spilled = RowEngine(database, query).run(
            plan, spill_node_id=node_id)
        assert spilled.row_count == row_spilled.row_count
