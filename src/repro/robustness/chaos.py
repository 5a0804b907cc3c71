"""Chaos harnesses: SIGKILL real subprocesses, prove nothing broke.

Recovery claims are only worth making if they survive an *actual*
``kill -9`` -- not a simulated exception, but the process dying with no
chance to flush, close or clean up. Both harnesses here are
configurations of one kill/restart driver, :func:`kill_restart`: it
launches a real CLI child, watches a progress probe, SIGKILLs the child
once progress has advanced by a seeded amount (1-3, drawn from
``default_rng(seed)``) since that child's launch, relaunches at once,
and finally reaps every child it started. Because every kill waits for
observed progress, none can land before real work -- a kill before the
first unit of progress would test nothing.

* :func:`run_chaos` kills a journaled sweep (``python -m repro sweep
  --journal DIR``); progress is the journal's record count, read
  lock-free. The evidence asserts the durability contract of
  :mod:`repro.robustness.durable`: the recovered MSO/ASO grids are
  **bit-identical** to an uninterrupted run's (COMMIT payloads
  round-trip floats through ``repr``), **zero completed units are
  re-executed** (no BEGIN after a unit's COMMIT), and the journal
  replays cleanly (at most a torn tail truncated, never interior
  corruption).
* :func:`run_serve_chaos` kills the serving daemon (``python -m repro
  serve``), optionally under seeded wire chaos (``--faults``), while
  concurrent retrying clients keep issuing requests; progress is the
  fleet's completed-request count. Every completed request's result
  must be bit-identical to a fault-free run's (warm artifacts resume
  from the shared disk cache across restarts), and no daemon process
  may outlive the harness.
"""

import os
import signal
import subprocess
import sys
import time

import numpy as np

from repro.common.errors import JournalError, ReproError
from repro.robustness.durable import SweepJournal

#: Seconds the driver waits for a child to reach its kill point (or for
#: the run to finish) before declaring the run stuck.
WAIT_TIMEOUT = 120.0

#: Poll interval while watching the progress probe.
POLL = 0.01


def spawn(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    """Start ``cmd`` with the ``src`` directory providing :mod:`repro`
    first on ``PYTHONPATH``."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.Popen(cmd, env=env, stdout=stdout, stderr=stderr)


def _sigkill(proc):
    proc.send_signal(signal.SIGKILL)
    proc.wait()


def _reap(procs):
    """SIGTERM every live child, SIGKILL those still alive 30s later;
    returns the PIDs that outlived even that."""
    for proc in procs:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
    deadline = time.monotonic() + 30.0
    for proc in procs:
        if proc.poll() is None:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                _sigkill(proc)
    return [proc.pid for proc in procs if proc.poll() is None]


def _await(proc, progress, done, threshold):
    """Poll until ``done(proc)`` (returns ``None``) or, when a kill
    point is set, until progress reaches it (returns the progress)."""
    start = time.monotonic()
    while not done(proc):
        count = progress()
        if threshold is not None and count >= threshold:
            return count
        if time.monotonic() - start > WAIT_TIMEOUT:
            raise RuntimeError(
                "chaos child stalled at progress %d (kill point %s) "
                "for %gs" % (count, threshold, WAIT_TIMEOUT))
        time.sleep(POLL)
    return None


def kill_restart(launch, progress, done, kills, seed):
    """SIGKILL and relaunch a child up to ``kills`` times, then let the
    run finish.

    ``launch()`` starts one child and returns its ``Popen``;
    ``progress()`` reads a monotone progress count; ``done(proc)`` says
    whether the run is over. Each kill's threshold is the progress read
    just before the launch it applies to plus 1-3, drawn from
    ``default_rng(seed)``; once progress reaches it, the child is
    SIGKILLed and relaunched at once. A run that is done before its
    next kill point ends the killing. Any wait longer than
    :data:`WAIT_TIMEOUT` raises ``RuntimeError``; however the call
    ends, every child it started is reaped.

    Returns ``(procs, kill_progress, orphans)``: the children started,
    the progress observed at each kill, and the PIDs still alive after
    the reap.
    """
    chaos_rng = np.random.default_rng(seed)
    procs = []
    kill_progress = []
    try:
        while True:
            before = progress()
            procs.append(launch())
            threshold = None
            if len(kill_progress) < kills:
                threshold = before + int(chaos_rng.integers(1, 4))
            at = _await(procs[-1], progress, done, threshold)
            if at is None:
                break
            _sigkill(procs[-1])
            kill_progress.append(at)
    finally:
        orphans = _reap(procs)
    return procs, kill_progress, orphans


# ----------------------------------------------------------------------
# sweep chaos: SIGKILL/resume a journaled sweep


def sweep_command(journal_dir, workload, resolution, sample, algorithms,
                  resume=False, rng=0, workers=None):
    """The ``python -m repro sweep`` argv for one (resumable) run."""
    cmd = [
        sys.executable, "-m", "repro", "sweep", workload,
        "--resolution", str(resolution),
        "--sample", str(sample),
        "--rng", str(rng),
        "--algorithms", ",".join(algorithms),
    ]
    if workers is not None:
        cmd += ["--workers", str(workers)]
    cmd += ["--resume" if resume else "--journal", journal_dir]
    return cmd


def journal_records(journal_dir):
    """Decoded records currently on disk (lock-free, tolerant of a
    torn tail and of the directory not existing yet)."""
    if not SweepJournal.exists(journal_dir):
        return []
    try:
        return SweepJournal(journal_dir).records()
    except (JournalError, OSError):
        # Mid-rotation or mid-append damage seen by a racing reader;
        # the authoritative replay happens under the lock later.
        return []


def journal_grids(journal_dir):
    """``{unit: ndarray}`` of committed sub-optimality grids."""
    grids = {}
    for record in journal_records(journal_dir):
        if record.get("type") != "commit":
            continue
        result = record["result"]
        values = np.array(result["sub_optimalities"], dtype=float)
        grids[record["unit"]] = values.reshape(
            tuple(result["shape"]))
    return grids


def verify_single_execution(journal_dir):
    """Violations of the exactly-once contract (empty list = clean).

    A unit may BEGIN many times (each kill mid-unit causes a re-run on
    resume) but must COMMIT exactly once, and no BEGIN may follow its
    COMMIT -- a later BEGIN would mean a completed unit was re-executed,
    which is precisely what the write-ahead log exists to prevent.
    """
    problems = []
    committed = set()
    for pos, record in enumerate(journal_records(journal_dir)):
        kind = record.get("type")
        unit = record.get("unit")
        if kind == "commit":
            if unit in committed:
                problems.append(
                    "unit %r committed twice (record %d)" % (unit, pos))
            committed.add(unit)
        elif kind == "begin" and unit in committed:
            problems.append(
                "unit %r re-executed after its commit (record %d)"
                % (unit, pos))
    return problems


class ChaosOutcome:
    """What one chaos run did and left behind."""

    __slots__ = ("kills", "launches", "kill_records", "grids",
                 "problems")

    def __init__(self, kills, launches, kill_records, grids, problems):
        #: SIGKILLs actually delivered.
        self.kills = kills
        #: Child processes started (kills + the final clean run).
        self.launches = launches
        #: Journal record count observed at each kill.
        self.kill_records = kill_records
        #: ``{unit: ndarray}`` recovered from the journal.
        self.grids = grids
        #: Exactly-once violations (must be empty).
        self.problems = problems

    def __repr__(self):
        return "ChaosOutcome(%d kills at records %s, %d units)" % (
            self.kills, self.kill_records, len(self.grids))


def run_chaos(journal_dir, workload="2D_Q91", resolution=10, sample=16,
              algorithms=("planbouquet", "spillbound", "alignedbound"),
              kills=3, seed=0, rng=0, workers=None):
    """Kill a journaled sweep ``kills`` times, then let it finish.

    Drives :func:`kill_restart` with the real CLI sweep against
    ``journal_dir`` (``--resume`` once the journal exists) and the
    journal's record count as progress; the run is done when a child
    exits. A child that completes before its kill point ends the
    killing (the sweep is done), so ``launches == kills + 1``. The
    journal's evidence is collected into a :class:`ChaosOutcome`.
    ``workers`` runs every child sweep through the parallel backend
    (``--workers N``), so the SIGKILL lands on a parent mid-merge with
    live worker processes -- the recovery contract is identical
    because only the parent writes the journal.
    """
    def launch():
        return spawn(sweep_command(
            journal_dir, workload, resolution, sample, algorithms,
            resume=SweepJournal.exists(journal_dir), rng=rng,
            workers=workers))

    procs, kill_records, _ = kill_restart(
        launch, lambda: len(journal_records(journal_dir)),
        lambda proc: proc.poll() is not None, kills, seed)
    if procs[-1].returncode != 0:
        raise RuntimeError("final chaos resume exited with status %d"
                           % procs[-1].returncode)
    return ChaosOutcome(len(kill_records), len(procs), kill_records,
                        journal_grids(journal_dir),
                        verify_single_execution(journal_dir))


# ----------------------------------------------------------------------
# serve chaos: SIGKILL/restart the daemon under concurrent faulty clients


#: Wall budget (seconds) each chaos client gets to complete one request
#: across daemon kills, restarts and injected wire faults.
CLIENT_DEADLINE = 90.0


def serve_command(socket_path, cache_dir, resolution=6,
                  engine="simulated", faults=None, fault_seed=0,
                  max_queue=64, deadline_ms=60000.0):
    """The ``python -m repro serve`` argv for one chaos daemon."""
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--socket", socket_path,
        "--cache-dir", cache_dir,
        "--resolution", str(resolution),
        "--engine", engine,
        "--max-queue", str(max_queue),
        "--default-deadline", str(deadline_ms),
        "--drain-grace", "5",
    ]
    if faults:
        cmd += ["--faults", faults, "--fault-seed", str(fault_seed)]
    return cmd


def serve_chaos_requests(clients=8, per_client=4, resolution=6,
                         query="2D_Q91", algorithm="spillbound",
                         engine=None):
    """Per-client request payloads, deterministic and all distinct.

    Every payload carries an explicit unique ``id`` (so retried sends
    are idempotent and the fault-free comparison can key on it) and a
    per-client tenant; the hidden truth ``qa`` varies per request so
    the answers exercise many grid locations.
    """
    workloads = []
    for c in range(clients):
        payloads = []
        for j in range(per_client):
            payload = {
                "op": "run",
                "id": "c%d-r%d" % (c, j),
                "tenant": "tenant-%d" % c,
                "query": query,
                "algorithm": algorithm,
                "resolution": resolution,
                "qa": [(c + j) % resolution,
                       (3 + 2 * c + j) % resolution],
                "rng": 0,
            }
            if engine:
                payload["engine"] = engine
            payloads.append(payload)
        workloads.append(payloads)
    return workloads


class ServeChaosOutcome:
    """What one serve-chaos run did and left behind."""

    __slots__ = ("kills", "launches", "results", "errors", "orphans",
                 "kill_progress")

    def __init__(self, kills, launches, results, errors, orphans,
                 kill_progress):
        #: SIGKILLs actually delivered to the daemon.
        self.kills = kills
        #: Daemon processes started (kills + the final survivor).
        self.launches = launches
        #: ``{request id: result dict}`` for every completed request.
        self.results = results
        #: ``{request id: description}`` for requests that never
        #: completed (must be empty for the availability proof).
        self.errors = errors
        #: PIDs of daemon processes still alive at the end (must be
        #: empty -- the no-orphans obligation).
        self.orphans = orphans
        #: Completed-request count observed at each kill.
        self.kill_progress = kill_progress

    def __repr__(self):
        return ("ServeChaosOutcome(%d kills at progress %s, "
                "%d completed, %d failed, %d orphans)"
                % (self.kills, self.kill_progress, len(self.results),
                   len(self.errors), len(self.orphans)))


def launch_serve(socket_path, cache_dir, resolution, engine, faults,
                 fault_seed):
    """Start one :func:`serve_command` daemon on ``socket_path``."""
    # A SIGKILLed daemon never unlinks its socket; clear the stale
    # file so the replacement can bind.
    try:
        os.unlink(socket_path)
    except OSError:
        pass
    return spawn(serve_command(socket_path, cache_dir,
                               resolution=resolution, engine=engine,
                               faults=faults, fault_seed=fault_seed))


def wait_serving(socket_path, timeout=WAIT_TIMEOUT):
    """Block until a daemon answers ``health`` on ``socket_path``."""
    from repro.serve import ServeClient

    start = time.monotonic()
    while time.monotonic() - start < timeout:
        try:
            with ServeClient(path=socket_path, timeout=5.0) as client:
                client.health()
                return
        except (ReproError, OSError):
            time.sleep(0.05)
    raise RuntimeError("no daemon served %s within %gs"
                       % (socket_path, timeout))


def _serve_chaos_client(socket_path, payloads, results, errors,
                        completed, seed, stop):
    """One chaos client thread: complete every payload, whatever it takes.

    Each payload is pushed through :meth:`ServeClient.call` (stable id,
    reconnects, jittered backoff honouring ``retry_after_ms``); a dead
    daemon (connection refused while booting or restarting) is ridden
    out by an outer decorrelated-jitter loop under
    :data:`CLIENT_DEADLINE`. Once ``stop`` is set, a failed attempt is
    recorded as an error instead of retried.
    """
    from repro.common.backoff import BackoffPolicy
    from repro.serve import ServeClient

    policy = BackoffPolicy(base=0.05, cap=1.0, seed=seed)
    for payload in payloads:
        state = policy.start(deadline_s=CLIENT_DEADLINE)
        last = None
        while True:
            try:
                with ServeClient(path=socket_path, timeout=20.0,
                                 raise_errors=False, retries=6,
                                 retry_deadline_s=30.0) as client:
                    response = client.call(dict(payload))
            except (ReproError, OSError) as exc:
                last = repr(exc)
            else:
                if response.get("ok"):
                    results[payload["id"]] = response["result"]
                    completed.append(payload["id"])
                    break
                last = "%s: %s" % (response.get("error"),
                                   response.get("message"))
            if stop.is_set() or not state.sleep():
                errors[payload["id"]] = last or "request never answered"
                break


def run_serve_chaos(workdir, clients=8, per_client=4, kills=3, seed=0,
                    resolution=6, query="2D_Q91",
                    algorithm="spillbound",
                    engine="simulated+latency(ms=15)", faults=None,
                    fault_seed=0):
    """SIGKILL/restart a real serving daemon under concurrent clients.

    Starts ``clients`` concurrent retrying client threads working
    through :func:`serve_chaos_requests` and drives :func:`kill_restart`
    with ``python -m repro serve`` on a unix socket in ``workdir`` (an
    on-disk artifact cache alongside) and the fleet's completed-request
    count as progress; the run is done once every request completed or
    failed. The clients ride out the first boot exactly like every
    restart. Each kill is followed by an immediate relaunch against the
    *same* cache dir: warm artifacts resume from disk, which is what
    makes the post-restart answers cheap and, more importantly,
    provably identical. ``faults`` adds seeded wire chaos inside the
    daemon on top of the crashes.

    The surviving daemon is drained with SIGTERM and every launched
    process reaped; the returned :class:`ServeChaosOutcome` carries the
    per-request results (for the bit-identical comparison against a
    fault-free run), the requests that failed outright, and any
    orphaned PIDs.
    """
    import threading

    socket_path = os.path.join(workdir, "serve.sock")
    cache_dir = os.path.join(workdir, "cache")
    os.makedirs(cache_dir, exist_ok=True)
    workloads = serve_chaos_requests(clients=clients,
                                     per_client=per_client,
                                     resolution=resolution, query=query,
                                     algorithm=algorithm, engine=engine)
    total = sum(len(w) for w in workloads)
    results = {}
    errors = {}
    completed = []  # list appends are atomic; len() is the progress
    stop = threading.Event()
    threads = [
        threading.Thread(
            target=_serve_chaos_client,
            args=(socket_path, payloads, results, errors, completed,
                  seed * 1000 + i, stop),
            name="serve-chaos-client-%d" % i)
        for i, payloads in enumerate(workloads)
    ]
    for thread in threads:
        thread.start()
    try:
        procs, kill_progress, orphans = kill_restart(
            lambda: launch_serve(socket_path, cache_dir, resolution,
                                 engine, faults, fault_seed),
            lambda: len(completed),
            lambda proc: len(completed) + len(errors) >= total,
            kills, seed)
    finally:
        stop.set()
        for thread in threads:
            thread.join(WAIT_TIMEOUT)
        try:
            os.unlink(socket_path)
        except OSError:
            pass
    return ServeChaosOutcome(len(kill_progress), len(procs), results,
                             errors, orphans, kill_progress)


def serve_baseline(requests, resolution=6,
                   engine="simulated+latency(ms=15)", cache_dir=None):
    """Fault-free reference answers for :func:`run_serve_chaos`.

    Serves the same payloads from an in-process daemon with no faults
    and no kills; the chaos run's completed results must equal these
    bit-for-bit (the simulated substrate is deterministic, and
    ``latency(...)`` only spends wall time).
    """
    from repro.serve import ServeClient, ServeConfig, ServerThread

    import tempfile

    with tempfile.TemporaryDirectory(prefix="serve-baseline-") as tmp:
        socket_path = os.path.join(tmp, "serve.sock")
        config = ServeConfig(path=socket_path,
                             cache_dir=cache_dir or
                             os.path.join(tmp, "cache"),
                             resolution=resolution, engine=engine,
                             max_queue=64, default_deadline_ms=60000.0)
        reference = {}
        with ServerThread(config=config):
            with ServeClient(path=socket_path, timeout=60.0) as client:
                for payloads in requests:
                    for payload in payloads:
                        response = client.request(dict(payload))
                        if not response.get("ok"):
                            raise RuntimeError(
                                "baseline refused %r: %r"
                                % (payload["id"], response))
                        reference[payload["id"]] = response["result"]
        return reference


def verify_serve_results(results, reference):
    """Bit-identity violations between chaos and fault-free results.

    Returns a list of human-readable problems (empty = proof holds).
    Every completed chaos request must have a reference answer equal
    in every field -- costs compare with ``==``, not a tolerance.
    """
    problems = []
    for request_id, result in sorted(results.items()):
        expected = reference.get(request_id)
        if expected is None:
            problems.append("request %r has no reference answer"
                            % request_id)
            continue
        for field in sorted(set(expected) | set(result)):
            if field in ("degraded_reason", "failover", "degraded",
                         "retries", "wasted_cost"):
                continue  # adversity accounting legitimately differs
            if result.get(field) != expected.get(field):
                problems.append(
                    "request %r field %r: chaos %r != fault-free %r"
                    % (request_id, field, result.get(field),
                       expected.get(field)))
    return problems
