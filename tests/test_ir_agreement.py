"""Cross-backend agreement suite: the platform-independence check.

The paper's claim is that robust discovery is a property of the
algorithm + cost contract, not of any particular execution engine. The
IR makes that testable: over randomized catalogs, skews and queries,
SpillBound driven by the tuple-at-a-time interpreter and by each
set-oriented backend -- the sqlite SQL compiler and the numpy vector
engine, both pricing through the closed forms of :mod:`repro.ir.costing`
-- must walk the *same* discovery trajectory: identical completion
verdicts, identical learned grid indices from completed spills,
identical execution transcripts. All three backends must also report
identical result cardinalities for unbudgeted runs.
"""

import numpy as np
import pytest

from repro.algorithms.spillbound import SpillBound
from repro.catalog.schema import Catalog, Column, Table
from repro.ess.contours import ContourSet
from repro.ess.space import ExplorationSpace
from repro.executor.rowengine import RowBackedEngine
from repro.ir.backends import BACKENDS
from repro.query.query import Query, make_filter, make_join

#: Number of randomized agreement cases (acceptance floor: 20).
CASES = 22


def make_case(seed):
    """One randomized (catalog, query, skew) instance."""
    rng = np.random.default_rng(seed)
    fact_rows = int(rng.integers(240, 600))
    d1_rows = int(rng.integers(40, 60))
    d2_rows = int(rng.integers(30, 45))
    ndv1 = int(rng.integers(15, 40))
    ndv2 = int(rng.integers(12, 30))
    catalog = Catalog("agree%d" % seed, [
        Table("fact", fact_rows, [
            Column("f_id", fact_rows),
            Column("f_d1", ndv1),
            Column("f_d2", ndv2),
            Column("f_val", 20, lo=0, hi=20),
        ]),
        Table("d1", d1_rows, [Column("k1", ndv1)]),
        Table("d2", d2_rows, [Column("k2", ndv2)]),
    ])
    query = Query(
        "agree_q%d" % seed, catalog,
        ["fact", "d1", "d2"],
        [
            make_join("j1", "fact.f_d1", "d1.k1"),
            make_join("j2", "fact.f_d2", "d2.k2"),
        ],
        [make_filter("f", "fact.f_val", "<",
                     int(rng.integers(8, 16)))],
        epps=("j1", "j2"),
    )
    skew = {
        "fact.f_d1": float(rng.uniform(0.6, 1.8)),
        "d1.k1": float(rng.uniform(0.0, 1.2)),
        "fact.f_d2": float(rng.uniform(0.0, 1.0)),
    }
    from repro.catalog.datagen import generate_database
    database = generate_database(catalog, rng=seed + 1000, skew=skew)
    resolution = int(rng.integers(6, 9))
    space = ExplorationSpace(query, resolution=resolution, s_min=1e-5)
    space.build(mode="exact")
    return space, database


def transcript(result):
    """The discovery trajectory an algorithm actually consumed."""
    return [(r.contour, r.mode, r.plan_id, r.epp, r.completed, r.learned)
            for r in result.executions]


def assert_walks_native_trajectory(seed, backend):
    """SpillBound on ``backend`` replays the native interpreter's run."""
    space, database = make_case(seed)
    native = RowBackedEngine(space, database, delta=1.0,
                             backend="native")
    other = RowBackedEngine(space, database, delta=1.0, backend=backend)
    # Both substrates snap the same data to the same hidden truth.
    assert other.qa_index == native.qa_index

    contours = ContourSet(space)
    a = SpillBound(space, contours).run(native.qa_index, engine=native)
    b = SpillBound(space, contours).run(other.qa_index, engine=other)

    assert transcript(b) == transcript(a)
    # Completed spills are exact learning events: same epp, same
    # learned grid index on both substrates.
    learned_a = [(r.epp, r.learned) for r in a.executions
                 if r.mode == "spill" and r.completed]
    learned_b = [(r.epp, r.learned) for r in b.executions
                 if r.mode == "spill" and r.completed]
    assert learned_b == learned_a
    for ra, rb in zip(a.executions, b.executions):
        if ra.completed:
            # Completed runs: the closed-form spend replays the metered
            # spend exactly.
            assert rb.spent == pytest.approx(ra.spent, rel=1e-9)
        else:
            # Failed runs differ only by abort granularity: the native
            # meter overshoots the budget by its final per-tuple
            # charge, a closed-form verdict reports the budget itself.
            assert rb.spent == pytest.approx(ra.spent, rel=1e-4)
    assert b.sub_optimality == pytest.approx(a.sub_optimality, rel=1e-4)


@pytest.mark.parametrize("seed", range(CASES))
def test_native_and_sqlite_walk_identical_trajectories(seed):
    assert_walks_native_trajectory(seed, "sqlite")


@pytest.mark.parametrize("seed", range(CASES))
def test_native_and_vectorized_walk_identical_trajectories(seed):
    assert_walks_native_trajectory(seed, "vectorized")


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_all_backends_agree_on_unbudgeted_cardinalities(seed):
    space, database = make_case(seed)
    reference = RowBackedEngine(space, database, backend="native")
    plan = space.optimal_plan(reference.qa_index)
    counts = {}
    for name, cls in BACKENDS.items():
        backend = cls(database, space.query,
                      space.cost_model.params)
        counts[name] = backend.run(plan.tree, budget=None).row_count
    assert len(set(counts.values())) == 1, counts
