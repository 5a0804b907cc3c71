"""``cold-run``: the one-shot ``repro run`` path, cold, on real tuples.

Each pass gives every query a fresh :class:`RobustSession`, an exact ESS
build and its full contour ladder (``ContourSet.members`` for every
contour). For 2D_Q91 and 4D_Q7 SpillBound then runs at the data's truth
through the ``native``, ``vectorized`` and ``sqlite`` row backends
(:class:`RowBackedEngine`). The row store,
``DatabaseSpec(rng=seed, max_rows=20000)``, is generated in set-up
(three times; the median is ``setup_s``).

Checks: every backend snaps the data to the same truth; native and
sqlite walk the same trajectory, their completed executions spend the
same to 1e-9 relative and their aborted ones to 1e-4 (the abort
granularity the IR agreement contract allows). The vectorized backend's
spend gap against native is recorded, not asserted.
"""

from harness import grid_digest, reuse_layers
from spans import traced_section

BUILDS = (("2D_Q91", 100), ("4D_Q7", 12), ("5D_Q91", 8), ("6D_Q91", 5))
ROW_QUERIES = ("2D_Q91", "4D_Q7")
BACKENDS = ("native", "vectorized", "sqlite")
MAX_ROWS = 20000
SETUPS = 3


class Workload:
    name = "cold-run"
    #: Spans the traced run must record (see ``run.check_spans``).
    traced_spans = (
        "algorithms.spillbound.run", "ir.native.execute",
        "ir.vectorized.execute", "ir.sqlite.execute", "executor.truth",
        "catalog.datagen", "ess.build", "ess.contour_members",
        "optimizer.batch_dp", "cost.plan_surface")

    def __init__(self, ctx, result, expected):
        self.ctx = ctx
        self.result = result
        self.database = None
        self.traced_setup = False
        self.first = None

    def _setup(self, rec):
        from repro.catalog.datagen import DatabaseSpec
        from repro.harness.workloads import workload

        clock = self.ctx.clock
        catalog = workload(ROW_QUERIES[0]).catalog
        for _ in range(SETUPS if rec is None else 1):
            with traced_section(rec, "harness.setup"):
                start = clock.now()
                database = DatabaseSpec(rng=self.ctx.seed,
                                        max_rows=MAX_ROWS).resolve(catalog)
                span = (start, clock.now())
            if rec is None:
                self.result.setup.add([span])
                clock.tick()
        self.database = database

    def one_pass(self, index, rec):
        from repro.executor.rowengine import RowBackedEngine
        from repro.session import RobustSession

        res = self.result
        clock = self.ctx.clock
        if self.database is None:
            self._setup(None)
        if rec is not None and not self.traced_setup:
            self._setup(rec)
            self.traced_setup = True
        runs, spaces = {}, {}
        builds, rows = [], []
        with traced_section(rec, "harness.pass"):
            start = clock.now()
            for query, resolution in BUILDS:
                clock.tick()
                began = clock.now()
                session = RobustSession(mode="exact")
                space, contours = session.space_and_contours(
                    query, resolution=resolution)
                for i in range(len(contours)):
                    contours.members(i)
                spaces[query] = (session, space)
                ran = clock.now()
                builds.append((began, ran))
                if query in ROW_QUERIES:
                    for backend in BACKENDS:
                        clock.tick()
                        engine = RowBackedEngine(space, self.database,
                                                 backend=backend)
                        algo = session.algorithm("spillbound", space=space,
                                                 contours=contours)
                        runs[query, backend] = (
                            engine, algo.run(engine.qa_index,
                                             engine=engine))
                    rows.append((ran, clock.now()))
            spans = [(start, clock.now())]

        res.attempted += len(runs)
        res.passes.append({"wall_s": spans[0][1] - spans[0][0],
                           "runs": len(runs), "requests": len(BUILDS),
                           "traced": bool(rec),
                           "build_s": sum(b - a for a, b in builds),
                           "rows_s": sum(b - a for a, b in rows),
                           "spans": spans})
        if not rec:
            # One sample of each kind per pass: the build stage (every
            # exact build and contour ladder) is the cold path, the
            # row-backed stage (every backend's truth snap and SpillBound
            # run) the warm one.
            res.cold.add(builds)
            res.warm.add(rows)
        self._verify(index, spaces, runs)

    def _verify(self, index, spaces, runs):
        res = self.result
        digests = {q: grid_digest([s.opt_cost, s.plan_at])
                   for q, (_session, s) in spaces.items()}
        if self.first is None:
            self.first = digests
        elif digests != self.first:
            res.check("pass %d exact builds equal pass 0" % index, False,
                      digests)
            res.failed += len(runs)
        gaps = {}
        for query in ROW_QUERIES:
            engines = {b: runs[query, b][0] for b in BACKENDS}
            results = {b: runs[query, b][1] for b in BACKENDS}
            truths = {e.qa_index for e in engines.values()}
            native, sqlite = results["native"], results["sqlite"]
            trajectory = _transcript(native) == _transcript(sqlite)
            spend = trajectory and all(
                _close(a.spent, b.spent, 1e-9 if a.completed else 1e-4)
                for a, b in zip(native.executions, sqlite.executions))
            optimal = _close(engines["native"].optimal_cost,
                             engines["sqlite"].optimal_cost, 1e-9)
            ok = len(truths) == 1 and trajectory and spend and optimal
            if not ok or index == 0:
                res.check(
                    "%s: one truth %s on all backends; native and sqlite "
                    "trajectories and spend agree" % (query, sorted(truths)),
                    ok, "truths=%s trajectory=%s spend=%s optimal=%s"
                    % (sorted(truths), trajectory, spend, optimal))
            if not ok:
                res.failed += len(BACKENDS)
            vec = results["vectorized"]
            gaps[query] = {
                "sub_optimality": {b: r.sub_optimality
                                   for b, r in results.items()},
                "vectorized_vs_native_rel": vec.sub_optimality
                / native.sub_optimality - 1.0,
                "same_trajectory": _transcript(vec) == _transcript(native),
            }
        if index != 0:
            return
        res.notes["vectorized_gap"] = gaps
        res.counters.update({
            "posp_size": {q: s.posp_size()
                          for q, (_session, s) in spaces.items()},
            "cells": {q: int(s.grid.size)
                      for q, (_session, s) in spaces.items()},
            "executions": {"%s/%s" % k: r.num_executions
                           for k, (_e, r) in runs.items()},
            "truth": {q: list(runs[q, "native"][0].qa_index)
                      for q in ROW_QUERIES},
            "build_digests": digests,
        })
        res.layers.update(reuse_layers(spaces[BUILDS[0][0]][0]))


def _transcript(result):
    return [(r.contour, r.mode, r.plan_id, r.epp, r.completed, r.learned)
            for r in result.executions]


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))
