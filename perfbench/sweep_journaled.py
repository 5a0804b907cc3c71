"""``sweep-journaled``: the ``repro sweep --journal/--workers`` path.

One cycle builds exact spaces and contours for 2D_Q91 and 3D_Q15 at
resolution 8 in a fresh session (five times; each build is one cold
sample), then runs PlanBouquet, SpillBound and AlignedBound over them
(query order drawn from the workload seed) in four timed passes:

1. direct: :func:`repro.metrics.mso.exhaustive_sweep` of every unit,
   serial, no journal -- the baseline the journaled passes add to, and
   the warm samples (one per location, from the progress callback);
2. serial :class:`repro.session.sweep.SweepDriver` with a write-ahead
   journal and per-run checkpoint sidecars, over 4 sampled locations
   per 2D_Q91 unit (the checkpoint-bound slice: its cost is small-file
   writes, whose speed is the disk's, so it is kept short to keep the
   cycle steady);
3. ``workers=2`` over every location of both queries with a fresh
   journal (process pool, parent-side merge, no per-run checkpoints),
   timed on its own (``workers2_s`` in the pass record) and left out of
   ``wall_s`` and ``locations_per_s``, because its time follows how
   many CPUs the host gives the machine at the moment;
4. ``resume=True`` on the ``workers=2`` journal, five times: every unit
   replays from the WAL.

Every cycle's grids must be ==-identical: the direct pass's to the
first cycle's, the ``workers=2`` and replay grids to the direct pass's,
and the serial slice's to a direct sampled sweep with in-memory
checkpoints, run in the untimed part of the first cycle.
"""

import os
import shutil

import numpy as np

from harness import add_run_latencies, reuse_layers
from spans import traced_section

QUERIES = ("2D_Q91", "3D_Q15")
#: The queries of the serial journaled pass, and its locations per unit
#: (sampled with ``SweepDriver``'s default ``rng`` 0, the same every run).
SERIAL_QUERIES = ("2D_Q91",)
SERIAL_SAMPLE = 4
REPLAYS = 5
RESOLUTION = 8
ALGORITHMS = ("planbouquet", "spillbound", "alignedbound")
#: Fresh-session artifact builds per cycle; each is one cold sample (the
#: last session is the one swept).
BUILD_REPS = 5


class Workload:
    name = "sweep-journaled"
    #: Spans the traced run must record (see ``run.check_spans``).
    traced_spans = (
        "algorithms.planbouquet.run", "algorithms.spillbound.run",
        "algorithms.alignedbound.run", "metrics.sweep",
        "session.sweep.unit", "session.parallel_sweep",
        "robustness.checkpoint_save", "robustness.journal",
        "robustness.replay", "common.atomic_write", "common.fsync")

    def __init__(self, ctx, result, expected):
        self.ctx = ctx
        self.result = result
        # The seed orders the queries only: algorithms on one space share
        # its caches, so their order would change the work measured.
        rng = np.random.default_rng(ctx.seed)
        self.queries = [QUERIES[i] for i in rng.permutation(len(QUERIES))]
        self.serial_queries = [q for q in self.queries
                               if q in SERIAL_QUERIES]
        self.algorithms = list(ALGORITHMS)
        self.units = [(q, a) for q in self.queries for a in self.algorithms]
        self.first = None

    def one_pass(self, index, rec):
        from repro.metrics import mso
        from repro.session import RobustSession, SweepDriver

        res = self.result
        clock = self.ctx.clock
        serial_dir = os.path.join(self.ctx.workdir, "serial-%d" % index)
        pool_dir = os.path.join(self.ctx.workdir, "workers-%d" % index)
        with traced_section(rec, "harness.setup"):
            start = clock.now()
            cold = []
            for _ in range(BUILD_REPS):
                built = clock.now()
                session = RobustSession(mode="exact")
                artifacts = {q: session.space_and_contours(
                    q, resolution=RESOLUTION) for q in self.queries}
                cold.append((built, clock.now()))
                clock.tick()
            algos = [session.algorithm(a, space=artifacts[q][0],
                                       contours=artifacts[q][1])
                     for q, a in self.units]
            setup = [(start, clock.now())]

        stamps = []

        def progress(done, total):
            stamps.append(clock.now())
            clock.tick()

        def sweep(queries, **kwargs):
            # Serial passes tick between units; the workers=2 pass does
            # not, as its pool keeps computing through a pause.
            tick = kwargs.get("workers", 1) == 1
            driver = SweepDriver(session, resolution=RESOLUTION, **kwargs)
            began = clock.now()
            records = []
            for record in driver.run(queries, self.algorithms):
                records.append(record)
                if tick:
                    clock.tick()
            return records, (began, clock.now())

        with traced_section(rec, "harness.pass"):
            start = clock.now()
            direct = []
            for algo in algos:
                stamps.append(clock.now())
                direct.append(mso.exhaustive_sweep(algo, progress=progress))
            direct_span = (start, clock.now())
            serial, serial_span = sweep(self.serial_queries,
                                        journal=serial_dir,
                                        sample=SERIAL_SAMPLE)
            pooled, pooled_span = sweep(self.queries, journal=pool_dir,
                                        workers=2)
            replays = [sweep(self.queries, journal=pool_dir, resume=True)
                       for _ in range(REPLAYS)]

        # The workers=2 pass is timed but kept out of wall_s: how many
        # CPUs a shared host gives this machine changes between 1 and 2
        # for minutes at a time, and with them that pass's time by 2x.
        spans = [direct_span, serial_span] + [s for _r, s in replays]
        runs = sum(s.sub_optimalities.size for s in direct) + sum(
            r.sweep.sub_optimalities.size for r in serial)
        res.attempted += runs + sum(r.sweep.sub_optimalities.size
                                    for r in pooled) + REPLAYS * len(pooled)
        res.passes.append({
            "wall_s": sum(b - a for a, b in spans), "runs": runs,
            "traced": bool(rec),
            "direct_s": direct_span[1] - direct_span[0],
            "serial_s": serial_span[1] - serial_span[0],
            "workers2_s": pooled_span[1] - pooled_span[0],
            "replay_s": [b - a for _r, (a, b) in replays],
            "spans": spans})
        if not rec:
            res.setup.add(setup)
            for span in cold:
                res.cold.add([span])
            add_run_latencies(res.warm, stamps, direct)
        self._verify(session, artifacts, direct, serial, pooled,
                     [r for r, _s in replays], serial_dir, pool_dir)
        shutil.rmtree(serial_dir, ignore_errors=True)
        shutil.rmtree(pool_dir, ignore_errors=True)

    def _sampled(self, session, artifacts):
        """``{(query, algorithm): grid}`` of a direct sampled sweep of the
        serial slice's units, and its checkpoint captures."""
        from repro.metrics import mso
        from repro.robustness.checkpoint import DiscoveryCheckpoint

        checkpoints = []

        def factory(qa_index):
            checkpoints.append(DiscoveryCheckpoint(qa_index=qa_index))
            return checkpoints[-1]

        grids = {}
        for query, name in self.units:
            if query in self.serial_queries:
                space, contours = artifacts[query]
                algo = session.algorithm(name, space=space,
                                         contours=contours)
                grids[query, name] = mso.exhaustive_sweep(
                    algo, sample=SERIAL_SAMPLE, rng=0,
                    checkpoint_factory=factory).sub_optimalities
        return grids, sum(c.captures for c in checkpoints)

    def _verify(self, session, artifacts, direct, serial, pooled, replayed,
                serial_dir, pool_dir):
        from repro.robustness.durable import SweepJournal
        from repro.session.sweep import session_reuse_summary

        res = self.result
        grids = dict(zip(self.units, (d.sub_optimalities for d in direct)))
        first = self.first is None
        if first:
            self.first = (grids,) + self._sampled(session, artifacts)
        full, sampled, captures = self.first

        def same(got, want):
            want = [want[u] for u in self.units if u in want]
            return len(got) == len(want) and all(
                np.array_equal(g, w) and g.tobytes() == w.tobytes()
                for g, w in zip(got, want))

        def records(recs):
            return [r.sweep.sub_optimalities for r in recs]

        for label, ok, want in (
                ("direct grids equal the first cycle's",
                 same(list(grids.values()), full), full),
                ("serial journaled grids ==-identical to a direct sampled "
                 "sweep", same(records(serial), sampled), sampled),
                ("workers=2 grids ==-identical to the direct pass",
                 same(records(pooled), grids), grids),
                ("%d replays' grids ==-identical to the direct pass"
                 % len(replayed),
                 all(same(records(r), grids) for r in replayed), grids)):
            if not ok or first:
                res.check(label, ok)
            if not ok:
                res.failed += sum(d.size for d in want.values())
        all_replayed = all(r.replayed for recs in replayed for r in recs)
        if not all_replayed or first:
            res.check("resume replays every unit from the journal",
                      all_replayed)
        if not first:
            return

        def wal(path):
            journal = SweepJournal(path)
            segments = [os.path.join(path, f) for f in os.listdir(path)
                        if f.endswith(".wal")]
            return {"records": len(journal.records()),
                    "bytes": sum(os.path.getsize(s) for s in segments)}

        serial_wal, pool_wal = wal(serial_dir), wal(pool_dir)
        res.counters.update({
            "locations_per_pass": {
                "direct": sum(d.size for d in full.values()),
                "serial": sum(d.size for d in sampled.values()),
                "workers2": sum(d.size for d in full.values())},
            "unit_order": ["%s/%s" % u for u in self.units],
            "posp_size": {q: artifacts[q][0].posp_size() for q in QUERIES},
            "checkpoint_saves_serial": captures,
            "wal_serial": serial_wal,
            "wal_workers2": pool_wal,
            "reuse": session_reuse_summary(session),
        })
        res.layers.update(reuse_layers(session))
        res.layers["robustness.wal_bytes"] = float(serial_wal["bytes"]
                                                   + pool_wal["bytes"])
