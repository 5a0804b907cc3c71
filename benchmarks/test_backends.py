"""Execution-backend bake-off over one skewed star query.

The IR layer promises that swapping the execution substrate changes
wall-clock only, never discovery behaviour. This benchmark makes both
halves of that promise numbers: it runs the same SpillBound discovery
through every registered backend (tuple-at-a-time interpreter, numpy
vector engine, sqlite SQL compiler), asserts the discovered truth,
result cardinality and reported sub-optimality agree, and emits the
per-backend timings as ``results/BENCH_backends.json``.
"""

import time

import pytest
from conftest import run_once, write_bench_json

from repro.algorithms.spillbound import SpillBound
from repro.catalog.datagen import generate_database
from repro.catalog.schema import Catalog, Column, Table
from repro.ess.contours import ContourSet
from repro.ess.space import ExplorationSpace
from repro.executor.rowengine import RowBackedEngine
from repro.ir.backends import BACKENDS
from repro.query.query import Query, make_filter, make_join


def _setup():
    catalog = Catalog("benchbk", [
        Table("fact", 1500, [
            Column("f_id", 1500),
            Column("f_d1", 60),
            Column("f_d2", 40),
            Column("f_val", 20, lo=0, hi=20),
        ]),
        Table("d1", 90, [Column("k1", 60)]),
        Table("d2", 70, [Column("k2", 40)]),
    ])
    query = Query(
        "bench_backends", catalog,
        ["fact", "d1", "d2"],
        [
            make_join("j1", "fact.f_d1", "d1.k1"),
            make_join("j2", "fact.f_d2", "d2.k2"),
        ],
        [make_filter("f", "fact.f_val", "<", 12)],
        epps=("j1", "j2"),
    )
    database = generate_database(
        catalog, rng=7,
        skew={"fact.f_d1": 1.5, "d1.k1": 0.7, "fact.f_d2": 0.9})
    space = ExplorationSpace(query, resolution=10, s_min=1e-5)
    space.build(mode="exact")
    return space, database


def _discover(space, database, name):
    start = time.perf_counter()
    engine = RowBackedEngine(space, database, delta=1.0, backend=name)
    contours = ContourSet(space)
    result = SpillBound(space, contours).run(engine.qa_index,
                                             engine=engine)
    seconds = time.perf_counter() - start
    return {
        "engine": engine,
        "result": result,
        "discovery_seconds": seconds,
    }


def test_backend_bakeoff(benchmark):
    space, database = _setup()
    runs = {"native": run_once(
        benchmark, lambda: _discover(space, database, "native"))}
    for name in BACKENDS:
        if name not in runs:
            runs[name] = _discover(space, database, name)

    # Platform independence, half one: every substrate snaps the same
    # data to the same hidden truth, and the closed-form spend of the
    # set-oriented backends (sqlite, vectorized) replays the native
    # meter, so every backend reports the same sub-optimality.
    qa = {name: run["engine"].qa_index for name, run in runs.items()}
    assert len(set(qa.values())) == 1, qa
    native = runs["native"]["result"]
    for name, run in runs.items():
        assert run["result"].sub_optimality == pytest.approx(
            native.sub_optimality, rel=1e-4), name

    # Half two: unbudgeted execution of the truth-optimal plan returns
    # the same cardinality everywhere (timed per backend).
    plan = space.optimal_plan(runs["native"]["engine"].qa_index)
    rows, plan_seconds = {}, {}
    for name, cls in BACKENDS.items():
        backend = cls(database, space.query, space.cost_model.params)
        start = time.perf_counter()
        rows[name] = backend.run(plan.tree, budget=None).row_count
        plan_seconds[name] = time.perf_counter() - start
    assert len(set(rows.values())) == 1, rows

    payload = {
        "workload": "3-table star, fact=1500 rows, skewed, res 10",
        "qa_index": list(qa["native"]),
        "optimal_plan_rows": rows["native"],
        "backends": {
            name: {
                "discovery_seconds": runs[name]["discovery_seconds"],
                "sub_optimality": runs[name]["result"].sub_optimality,
                "executions": len(runs[name]["result"].executions),
                "optimal_plan_seconds": plan_seconds[name],
            }
            for name in sorted(runs)
        },
    }
    write_bench_json(payload, "BENCH_backends.json")
    print("\nbackend bake-off (discovery / optimal-plan seconds):")
    for name in sorted(runs):
        print("  %-10s %8.3fs / %.3fs" % (
            name, runs[name]["discovery_seconds"], plan_seconds[name]))
