"""``sweep-sim``: serial exhaustive sweeps on the simulated engine.

Each pass sets up a fresh :class:`RobustSession` (exact ESS build and
contour ladder, built ten times) and then runs
:func:`repro.metrics.mso.exhaustive_sweep` for PlanBouquet, SpillBound
and AlignedBound over 4D_Q7 at resolution 8 (4096 locations) and 3D_Q15
at resolution 10 (1000 locations), query order drawn from the workload
seed. No journal, pool, daemon or row store is involved: this is the
per-location discovery hot path.

The cold-latency samples are further fresh-session builds of the same
artifacts, four after each sweep and outside the pass's timing, so that
they are spread over the run: this machine class's cores change speed
in streaks of seconds, and a block of consecutive builds lands in one
streak.

The exact build makes the grids independent of the seed, so every run
checks them against the digests in ``expected.json``; the seed decides
the query order and the locations re-run directly in the untimed part.
"""

import numpy as np

from harness import add_run_latencies, grid_digest, reuse_layers
from spans import traced_section

QUERIES = (("4D_Q7", 8), ("3D_Q15", 10))
ALGORITHMS = ("planbouquet", "spillbound", "alignedbound")
#: Locations per unit re-run directly (untimed, first pass) to read
#: ``RunResult.num_executions`` and cross-check the sweep grid.
SAMPLED_RUNS = 64
#: Fresh-session artifact builds in a pass's set-up (the last one's
#: artifacts are swept).
BUILD_REPS = 10
#: Cold samples taken after each sweep (untraced passes only).
COLD_BUILDS = 4


class Workload:
    name = "sweep-sim"
    #: Spans the traced run must record (see ``run.check_spans``).
    traced_spans = (
        "algorithms.planbouquet.run", "algorithms.spillbound.run",
        "algorithms.alignedbound.run", "engine.execute", "engine.spill",
        "optimizer.scalar_dp", "ess.build", "ess.contour_members",
        "metrics.sweep")

    def __init__(self, ctx, result, expected):
        self.ctx = ctx
        self.result = result
        self.expected = expected.get(self.name)
        # The seed orders the queries only: algorithms on one space share
        # its caches, so their order would change the work measured.
        rng = np.random.default_rng(ctx.seed)
        self.order = [(QUERIES[i][0], a)
                      for i in rng.permutation(len(QUERIES))
                      for a in ALGORITHMS]
        self.first = None

    def one_pass(self, index, rec):
        from repro.metrics import mso
        from repro.session import RobustSession

        res = self.result
        clock = self.ctx.clock

        def build():
            session = RobustSession(mode="exact")
            return session, {q: session.space_and_contours(q, resolution=r)
                             for q, r in QUERIES}

        with traced_section(rec, "harness.setup"):
            start = clock.now()
            for _ in range(BUILD_REPS):
                session, artifacts = build()
                clock.tick()
            units = []
            for query, name in self.order:
                space, contours = artifacts[query]
                units.append((query, name, session.algorithm(
                    name, space=space, contours=contours)))
            setup = [(start, clock.now())]

        stamps = []

        def progress(done, total):
            stamps.append(clock.now())
            clock.tick()

        sweeps, cold, spans = [], [], []
        with traced_section(rec, "harness.pass"):
            for _query, _name, algo in units:
                start = clock.now()
                stamps.append(start)
                sweeps.append(mso.exhaustive_sweep(algo, progress=progress))
                spans.append((start, clock.now()))
                for _ in range(0 if rec else COLD_BUILDS):
                    clock.tick()
                    built = clock.now()
                    build()
                    cold.append((built, clock.now()))

        runs = sum(s.sub_optimalities.size for s in sweeps)
        res.attempted += runs
        res.passes.append({"wall_s": sum(b - a for a, b in spans),
                           "runs": runs, "requests": len(units),
                           "traced": bool(rec), "spans": spans})
        if not rec:
            res.setup.add(setup)
            for span in cold:
                res.cold.add([span])
            add_run_latencies(res.warm, stamps, sweeps)
        self._verify(index, session, artifacts, units, sweeps)

    def _verify(self, index, session, artifacts, units, sweeps):
        from repro.algorithms.spillbound import spillbound_guarantee

        res = self.result
        digests = {"%s/%s" % (q, a): grid_digest([s.sub_optimalities])
                   for (q, a, _), s in zip(units, sweeps)}
        if self.first is None:
            self.first = digests
            ok = digests == self.expected
            res.check("grids match the recorded digests", ok,
                      "" if ok else digests)
        else:
            ok = digests == self.first
            if not ok:
                res.check("pass %d grids equal pass 0" % index, False,
                          digests)
        if not ok:
            res.failed += sum(s.sub_optimalities.size for s in sweeps)
        for (query, name, algo), sweep in zip(units, sweeps):
            bound = algo.mso_guarantee() if name == "planbouquet" \
                else spillbound_guarantee(algo.space.grid.dims)
            over = int((sweep.sub_optimalities > bound * (1 + 1e-9)).sum())
            if over or index == 0:
                res.check("%s/%s MSO %.4f <= %.4f" % (
                    query, name, sweep.mso, bound), not over)
            res.failed += over
        if index != 0:
            return
        rng = np.random.default_rng(self.ctx.seed)
        executions = {}
        mismatches = 0
        for (query, name, algo), sweep in zip(units, sweeps):
            grid = algo.space.grid
            flats = rng.choice(grid.size, size=SAMPLED_RUNS, replace=False)
            for flat in sorted(int(f) for f in flats):
                qa = tuple(int(i) for i in np.unravel_index(flat,
                                                            grid.shape))
                run = algo.run(qa)
                executions[name] = executions.get(name, 0) \
                    + run.num_executions
                if run.sub_optimality != sweep.sub_optimalities[qa]:
                    mismatches += 1
        res.check("direct runs equal sweep grid at %d sampled locations"
                  % (SAMPLED_RUNS * len(units)), not mismatches,
                  "%d mismatches" % mismatches)
        res.failed += mismatches
        res.counters.update({
            "unit_order": ["%s/%s" % u for u in self.order],
            "locations_per_pass": sum(s.sub_optimalities.size
                                      for s in sweeps),
            "posp_size": {q: s.posp_size() for q, (s, _c) in
                          artifacts.items()},
            "executions_at_sampled_locations": executions,
            "sampled_locations_per_unit": SAMPLED_RUNS,
            "grid_digests": digests,
        })
        res.layers.update(reuse_layers(session))

