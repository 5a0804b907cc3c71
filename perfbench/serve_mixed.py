"""``serve-mixed``: ``python -m repro serve`` under a seeded closed loop.

The daemon runs as a subprocess on a unix socket inside the run's
scratch directory, with 2 compute slots and tenant limits high enough
that the loop is never throttled. Two closed-loop :class:`ServeClient`
connections (each sends its next request only after the previous reply)
pull requests from one seeded stream:

* 95% warm ``run`` requests: 3 queries x 3 algorithms at a random
  truth ``qa``, on artifacts the set-up already built;
* every 20th request (5%) is cold: a fresh ``rng`` gives a new artifact
  fingerprint, so the daemon builds a space before running. Cold
  requests cycle through the three queries, so each block of 180
  requests holds the same cold builds.

The load runs one such block at a time: ``wall_s`` is the median block
time, and between blocks, with nothing in flight, the run samples the
host's speed (``harness.Clock``).

Set-up (daemon start until it answers, plus warming the three
artifacts) is repeated five times; the fifth daemon serves the load.
The first two blocks of replies fill the daemon's per-space caches and
are not measured.
Afterwards a fixed set of probe requests, and a sample of the warm
replies, must equal :meth:`RobustSession.run` at the same artifact and
truth.
"""

import contextlib
import os
import re
import signal
import subprocess
import sys
import threading
import time
from collections import Counter

import numpy as np

from harness import MAX_MEASURE_S

QUERIES = (("2D_Q91", 20), ("3D_Q15", 10), ("4D_Q7", 8))
ALGORITHMS = ("planbouquet", "spillbound", "alignedbound")
#: Every COLD_EVERY-th request is cold (5%), cycling through QUERIES so
#: every block holds the same cold builds.
COLD_EVERY = 20
CLIENTS = 2
#: Requests per throughput block (``wall_s`` is the median block time):
#: three cold requests per query.
BLOCK = COLD_EVERY * 3 * len(QUERIES)
#: Warm requests needed so that p99 has ten samples beyond it.
MIN_WARM = 1000
SETUPS = 5
#: Blocks before measuring starts: the daemon's per-space caches (spill
#: profiles, contour slices) fill during these, as they do early in any
#: long-lived daemon's life.
WARMUP_BLOCKS = 2
#: Reference samples (``harness.Clock``) taken after each block.
REFERENCE_PER_BLOCK = 3
#: Artifact ``rng`` of every warm request (cold ones get fresh values).
WARM_RNG = 0
#: Warm replies re-computed locally after the loop.
VERIFIED_WARM = 60
START_TIMEOUT_S = 60.0
RESULT_FIELDS = ("total_cost", "optimal_cost", "sub_optimality",
                 "executions")


class RequestStream:
    """The seeded request sequence, drawn in order under a lock."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.warm_rng = WARM_RNG
        self.cold_base = 1_000_000 + 100_000 * seed
        self.issued = 0
        self.lock = threading.Lock()

    def next(self):
        with self.lock:
            index = self.issued
            self.issued += 1
            cold = index % COLD_EVERY == COLD_EVERY - 1
            pick = index // COLD_EVERY % len(QUERIES) if cold \
                else int(self.rng.integers(len(QUERIES)))
            query, resolution = QUERIES[pick]
            algorithm = ALGORITHMS[int(self.rng.integers(len(ALGORITHMS)))]
            dims = int(query[0])
            qa = [int(i) for i in self.rng.integers(resolution, size=dims)]
        return index, cold, {
            "op": "run", "query": query, "resolution": resolution,
            "algorithm": algorithm, "qa": qa, "tenant": "bench",
            "rng": self.cold_base + index if cold else self.warm_rng}


class Workload:
    name = "serve-mixed"
    #: The daemon is not instrumented: its per-layer numbers come from
    #: its ``stats`` op, so the traced run records no spans.
    traced_spans = ()

    def __init__(self, ctx, result, expected):
        self.ctx = ctx
        self.result = result
        self.daemon = None
        sock = os.path.join(ctx.workdir, "serve.sock")
        # A relative path keeps the unix socket name under the 108-byte
        # limit wherever the checkout lives (daemon and clients share
        # the working directory).
        self.socket = os.path.relpath(sock)
        self.log = os.path.join(ctx.workdir, "daemon.log")

    # ------------------------------------------------------------------
    # daemon lifecycle

    def _start(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.ctx.root, "src")
        if os.path.exists(self.socket):
            os.unlink(self.socket)
        with open(self.log, "ab") as log:
            self.daemon = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--socket", self.socket, "--max-inflight", "2",
                 "--max-queue", "64", "--tenant-rate", "1000000",
                 "--tenant-burst", "1000000",
                 "--default-deadline", "120000"],
                env=env, stdout=log, stderr=subprocess.STDOUT)
        self._wait_healthy()

    def _wait_healthy(self):
        from repro.common.errors import ReproError
        from repro.serve import ServeClient

        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.daemon.poll() is not None:
                raise RuntimeError("daemon exited with %d during start"
                                   % self.daemon.returncode)
            try:
                with ServeClient(path=self.socket, timeout=5.0) as client:
                    client.health()
                    return
            except (ReproError, OSError):
                time.sleep(0.02)
        raise RuntimeError("daemon did not answer within %gs"
                           % START_TIMEOUT_S)

    def close(self):
        """SIGTERM the daemon (it drains and exits 0) and wait for it."""
        daemon, self.daemon = self.daemon, None
        if daemon is None or daemon.poll() is not None:
            return
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(30)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait(30)

    # ------------------------------------------------------------------

    def run(self, rec):
        from repro.serve import ServeClient

        res = self.result
        clock = self.ctx.clock
        stream = RequestStream(self.ctx.seed)
        for attempt in range(SETUPS):
            if attempt:
                self.close()
            clock.tick(force=True, every_cpu=True)
            start = clock.now()
            self._start()
            with ServeClient(path=self.socket, timeout=60.0) as client:
                for query, resolution in QUERIES:
                    client.warm(query, resolution=resolution,
                                rng=stream.warm_rng)
            res.setup.add([(start, clock.now())])

        with ServeClient(path=self.socket, timeout=60.0) as client:
            before = client.stats()
        records, blocks = self._load(stream)
        with ServeClient(path=self.socket, timeout=60.0) as client:
            after = client.stats()
        self._measure(records, blocks)
        self._layers(records, before, after, rec is not None)
        self._verify(stream, records)

    def _load(self, stream):
        """Drive the closed loop, one block of :data:`BLOCK` requests at
        a time; returns one record per request and each block's
        ``(start, end)`` on the run's clock."""
        from repro.serve import ServeClient

        clock = self.ctx.clock
        records, blocks, errors = [], [], []
        lock = threading.Lock()

        def client_loop(client, quota):
            try:
                while True:
                    with lock:
                        if not quota[0] or errors:
                            return
                        quota[0] -= 1
                    index, cold, payload = stream.next()
                    sent = clock.now()
                    reply = client.request(payload)
                    done = clock.now()
                    with lock:
                        records.append((index, cold, payload, reply, sent,
                                        done))
            except Exception as exc:  # reported as a failed check
                with lock:
                    errors.append(repr(exc))

        began = time.perf_counter()
        warm = 0
        with contextlib.ExitStack() as stack:
            clients = [stack.enter_context(ServeClient(
                path=self.socket, timeout=120.0, raise_errors=False))
                for _ in range(CLIENTS)]
            while not errors:
                quota = [BLOCK]
                threads = [threading.Thread(target=client_loop,
                                            args=(client, quota))
                           for client in clients]
                start = clock.now()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(MAX_MEASURE_S + 60)
                if any(thread.is_alive() for thread in threads):
                    errors.append("a load client did not finish")
                    break
                blocks.append((start, clock.now()))
                # Nothing is in flight between blocks: sample the host's
                # speed while the daemon is idle, on every CPU, as the
                # daemon and the clients share them all.
                for _ in range(REFERENCE_PER_BLOCK):
                    clock.tick(force=True, every_cpu=True)
                if len(blocks) <= WARMUP_BLOCKS:
                    if len(blocks) == WARMUP_BLOCKS:
                        began = time.perf_counter()
                    continue
                warm += BLOCK - BLOCK // COLD_EVERY
                elapsed = time.perf_counter() - began
                if elapsed >= self.ctx.seconds and warm >= MIN_WARM \
                        or elapsed >= MAX_MEASURE_S:
                    break
        self.result.check("load clients finished without transport "
                          "errors", not errors, "; ".join(errors[:3]))
        return sorted(records, key=lambda r: r[5]), blocks

    def _measure(self, records, blocks):
        res = self.result
        res.attempted += len(records)
        res.failed += sum(1 for r in records if not r[3].get("ok"))
        for index, cold, _payload, reply, sent, done in records:
            if reply.get("ok") and index >= WARMUP_BLOCKS * BLOCK:
                (res.cold if cold else res.warm).add([(sent, done)])
        for start, end in blocks[WARMUP_BLOCKS:]:
            res.passes.append({"wall_s": end - start, "runs": BLOCK,
                               "requests": BLOCK, "traced": False,
                               "spans": [(start, end)]})

    def _layers(self, records, before, after, traced):
        res = self.result

        def counter(snapshot, name):
            return snapshot["metrics"]["counters"].get(name, 0.0)

        def delta(name):
            return counter(after, name) - counter(before, name)

        def hist_mean(name):
            old = before["metrics"]["histograms"].get(name) or {}
            new = after["metrics"]["histograms"].get(name) or {}
            count = new.get("count", 0) - (old.get("count") or 0)
            total = new.get("total", 0.0) - (old.get("total") or 0.0)
            return total / count if count else 0.0

        degraded = sum(
            value - counter(before, name)
            for name, value in after["metrics"]["counters"].items()
            if name.startswith("serve.degraded."))
        rtt = [(r[5] - r[4]) * 1e3 for r in records]
        server_ms = hist_mean("serve.latency_ms")
        served = {name: delta("serve.served.%s" % name)
                  for name in ("cached", "full", "lowres", "native")}
        res.layers.update({
            "serve.queue_wait_ms": hist_mean("serve.queue_wait_ms"),
            "serve.server_ms": server_ms,
            "serve.wire_ms": float(np.mean(rtt)) - server_ms
            if rtt else 0.0,
            "serve.coalesced": delta("serve.coalesced"),
            "serve.shed": delta("serve.shed"),
            "serve.degraded": degraded,
            "serve.served_cached": served["cached"],
            "serve.served_full": served["full"],
        })
        summary = after["cache"]["summary"]
        match = re.match(r"space cache: (\d+) memory \+ (\d+) disk hits, "
                         r"(\d+) builds", summary)
        if match:
            hits = int(match.group(1)) + int(match.group(2))
            builds = int(match.group(3))
            res.layers["session.cache.hit_rate"] = hits / max(hits
                                                              + builds, 1)
            res.layers["session.cache.builds"] = float(builds)
        if traced:
            # The traced run adds no instrumentation: per-layer numbers
            # come from the daemon's own always-on metrics.
            block = float(np.median([p["wall_s"] for p in res.passes]))
            res.layers.update({"trace.untraced_pass_s": block,
                               "trace.traced_pass_s": block,
                               "trace.overhead_frac": 0.0})
        # Exact served-rung counts for the first block of the stream
        # (the same seed issues the same first requests every run).
        first = [r for r in records if r[0] < BLOCK]
        res.counters.update({
            "requests": len(records),
            "cold_requests": sum(1 for r in records if r[1]),
            "served_by_rung": {k: int(v) for k, v in served.items()},
            "first_block_served": dict(Counter(r[3].get("served")
                                               for r in first)),
            "first_block_executions": int(sum(
                (r[3].get("result") or {}).get("executions", 0)
                for r in first)),
            "degraded_replies": int(sum(
                1 for r in records if r[3].get("degraded_reasons"))),
        })

    def _verify(self, stream, records):
        from repro.serve import ServeClient
        from repro.session import RobustSession

        res = self.result
        warm = [r for r in records if not r[1] and r[3].get("ok")]
        wrong_rung = sum(1 for r in warm if r[3].get("served") != "cached"
                         or r[3].get("degraded_reasons"))
        res.check("warm replies served from the cache, undegraded",
                  not wrong_rung, "%d otherwise" % wrong_rung)
        res.failed += wrong_rung

        sessions = {}

        def local(payload):
            rng = payload["rng"]
            if rng not in sessions:
                sessions[rng] = RobustSession(rng=rng, guard=True,
                                              breaker=True)
            result = sessions[rng].run(
                payload["query"], qa_index=tuple(payload["qa"]),
                algorithm=payload["algorithm"],
                resolution=payload["resolution"])
            return {"total_cost": float(result.total_cost),
                    "optimal_cost": float(result.optimal_cost),
                    "sub_optimality": float(result.sub_optimality),
                    "executions": result.num_executions}

        def same(reply, payload):
            got = reply.get("result") or {}
            want = local(payload)
            return all(got.get(k) == want[k] for k in RESULT_FIELDS)

        mismatched = sum(1 for r in warm[:VERIFIED_WARM]
                         if not same(r[3], r[2]))
        res.check("%d warm replies equal RobustSession.run"
                  % min(len(warm), VERIFIED_WARM), not mismatched,
                  "%d differ" % mismatched)
        res.failed += mismatched

        probes = []
        rng = np.random.default_rng(self.ctx.seed + 7919)
        for query, resolution in QUERIES:
            for algorithm in ALGORITHMS:
                probes.append({
                    "op": "run", "query": query, "resolution": resolution,
                    "algorithm": algorithm, "tenant": "probe",
                    "qa": [int(i) for i in rng.integers(
                        resolution, size=int(query[0]))],
                    "rng": stream.warm_rng})
        probes.append(dict(probes[-1], rng=stream.cold_base - 1))
        with ServeClient(path=self.socket, timeout=60.0,
                         raise_errors=False) as client:
            replies = [client.request(p) for p in probes]
        wrong = sum(1 for reply, payload in zip(replies, probes)
                    if not reply.get("ok") or not same(reply, payload))
        res.check("%d probe requests equal RobustSession.run"
                  % len(probes), not wrong, "%d differ" % wrong)
        res.attempted += len(probes)
        res.failed += wrong

