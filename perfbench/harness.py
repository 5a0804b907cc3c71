"""Shared plumbing for the workloads: timing loop, statistics, checks,
environment stamp and the result record every workload fills in."""

import array
import hashlib
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

#: Hard ceiling on one run's measuring loop, well inside the 180 s a
#: run may take in total.
MAX_MEASURE_S = 120.0

#: Median seconds :func:`reference_loop` takes on the machine the
#: benchmark was tuned on (2-CPU VM, python 3.11, numpy 2.x, its cores
#: uncontended). Reported times are in these units: see :class:`Clock`.
REFERENCE_S = 0.0039
#: Least real time between two reference samples taken by
#: :meth:`Clock.tick` (about 5% of a run goes to them).
TICK_S = 0.1
#: A reference sample longer than this many times the run's median was
#: descheduled, not slowed; it is clipped to that length.
REFERENCE_CLIP = 2.0
_REFERENCE_ARRAY = np.arange(64.0)


def reference_loop():
    """A fixed amount of CPU work that does not involve ``repro``:
    integer arithmetic, dict updates and small numpy operations, the
    kinds of work the workloads' discovery loops are made of."""
    total = 0
    for i in range(60000):
        total += i * i
    table = {}
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0) + i
    array = _REFERENCE_ARRAY
    for _ in range(300):
        array = np.minimum(array * 1.0001, array + 1.0)
    return total, table, array


class Clock:
    """The workloads' clock, with the host's speed measured alongside.

    The shared hosts this benchmark runs on slow a core down by up to
    1.6x while another guest contends for it, in episodes from a
    fraction of a second to tens of minutes, so raw times say as much
    about the host as about the program. The workloads therefore take
    their times from :meth:`now` and call :meth:`tick` at points where a
    short pause changes nothing they measure (between locations, units,
    builds, request blocks). At most every :data:`TICK_S` a tick runs
    :func:`reference_loop` once and records when and how long; the pause
    is left out of :meth:`now`, so no measured interval contains it.

    :meth:`scaled` converts intervals of the run's time line to seconds
    of the tuning machine: between reference samples the host's speed is
    interpolated, and an interval counts ``REFERENCE_S / reference
    time`` seconds per second it lasted. A change in the program's cost
    moves the scaled times as it moves the raw ones; a change in the
    host's speed moves the reference loop with them and cancels out.
    """

    def __init__(self):
        self.paused = 0.0
        self.samples = []
        self.stamps = []
        self.enabled = True
        self.last = float("-inf")

    def now(self):
        """Seconds of the run's time line, reference samples left out."""
        return time.perf_counter() - self.paused

    def tick(self, force=False, every_cpu=False):
        """Take a reference sample if :data:`TICK_S` has passed since
        the last one (or ``force``); a no-op while disabled.

        With ``every_cpu`` the sample is the mean of one reference loop
        pinned to each CPU this process may use: the speed of the whole
        machine, for load that runs on all of its CPUs at once.
        """
        began = time.perf_counter()
        if not self.enabled or not force and began - self.last < TICK_S:
            return
        if every_cpu and hasattr(os, "sched_setaffinity"):
            allowed = os.sched_getaffinity(0)
            loops = []
            try:
                for cpu in sorted(allowed):
                    os.sched_setaffinity(0, {cpu})
                    start = time.perf_counter()
                    reference_loop()
                    loops.append(time.perf_counter() - start)
            finally:
                os.sched_setaffinity(0, allowed)
            sample = sum(loops) / len(loops)
        else:
            reference_loop()
            sample = time.perf_counter() - began
        ended = time.perf_counter()
        self.samples.append(sample)
        self.stamps.append(began - self.paused)
        self.last = ended
        self.paused += ended - began

    def rates(self):
        """``(stamps, rate)``: tuning-machine seconds per second of the
        run's time line, at each reference sample."""
        samples = np.asarray(self.samples)
        samples = np.minimum(samples, REFERENCE_CLIP * np.median(samples))
        return np.asarray(self.stamps), REFERENCE_S / samples

    def scale(self):
        """The run's mean rate (for the report)."""
        return float(np.mean(self.rates()[1]))

    def scaled(self, samples):
        """Tuning-machine seconds of each of ``samples`` (a
        :class:`Samples`)."""
        stamps, rate = self.rates()
        # Cumulative scaled time at each reference sample (trapezoids).
        cumulative = np.concatenate(
            ([0.0], np.cumsum(np.diff(stamps) * (rate[1:] + rate[:-1])
                              / 2)))

        def warp(t):
            at = np.interp(t, stamps, rate)
            i = np.clip(np.searchsorted(stamps, t, side="right") - 1, 0,
                        len(stamps) - 1)
            return cumulative[i] + (t - stamps[i]) * (rate[i] + at) / 2

        seconds = warp(np.asarray(samples.ends)) \
            - warp(np.asarray(samples.starts))
        return np.bincount(np.asarray(samples.owners, dtype=np.intp),
                           weights=seconds, minlength=samples.count)


class Samples:
    """Timing samples, each the sum of one or more ``(start, end)``
    intervals on the run's :class:`Clock`, kept in flat arrays so that
    hundreds of thousands of them add little to the run's memory."""

    def __init__(self):
        self.owners = array.array("q")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.count = 0

    def add(self, spans):
        """One sample made of the intervals ``spans``."""
        for start, end in spans:
            self.owners.append(self.count)
            self.starts.append(start)
            self.ends.append(end)
        self.count += 1

    def add_each(self, starts, ends):
        """One sample per interval ``(starts[i], ends[i])``."""
        self.owners.extend(range(self.count, self.count + len(starts)))
        self.starts.extend(starts)
        self.ends.extend(ends)
        self.count += len(starts)

    def __len__(self):
        return self.count


class Context:
    """What a workload receives: its seed, time budget, scratch dir and
    the run's :class:`Clock`."""

    def __init__(self, root, seed, seconds, trace, workdir):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.clock = Clock()


class Result:
    """Everything one workload run measured and checked.

    ``passes`` holds one dict per measured pass (``wall_s``, ``runs``,
    ``traced`` and ``spans``, the intervals its ``wall_s`` adds up).
    ``setup``, ``warm`` and ``cold`` are :class:`Samples` from untraced
    passes only. ``counters`` are exact work counts read from public
    return values in the untimed part of the run.
    """

    def __init__(self):
        self.setup = Samples()
        self.passes = []
        self.warm = Samples()
        self.cold = Samples()
        self.attempted = 0
        self.failed = 0
        self.checks = []
        self.counters = {}
        self.layers = {}
        self.notes = {}

    def check(self, name, ok, detail=""):
        """Record one output check; a failed check fails the run."""
        self.checks.append({"check": name, "ok": bool(ok),
                            "detail": str(detail)})
        return bool(ok)

    @property
    def correct(self):
        return all(c["ok"] for c in self.checks) and bool(self.checks)


def timed_loop(ctx, min_passes=1):
    """Pass indices while the run's time budget lasts.

    Yields at least ``min_passes`` indices, then starts another pass
    only while it would end, at the mean pass length so far, no more
    than half a pass after ``ctx.seconds`` (and within
    :data:`MAX_MEASURE_S`).
    """
    start = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        if index >= min_passes:
            mean = elapsed / index
            if elapsed + mean / 2 >= ctx.seconds \
                    or elapsed + mean >= MAX_MEASURE_S:
                return
        yield index
        index += 1


def percentile(samples, q):
    """Linear-interpolated ``q``-th percentile (numpy's default)."""
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def tail_support(count, q):
    """Samples beyond the ``q``-th percentile of ``count`` samples."""
    return int(count - np.ceil(count * q / 100.0))


def median(values):
    return float(statistics.median(values))


def peak_rss_mb():
    """Peak resident set size of this process and of its largest
    waited-for child (daemon, pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def add_run_latencies(samples, stamps, sweeps):
    """Add one sample per swept location to ``samples``, from progress
    timestamps: ``stamps`` holds, per unit, its start time followed by
    one stamp per completed location."""
    pos = 0
    for sweep in sweeps:
        count = sweep.sub_optimalities.size
        samples.add_each(stamps[pos:pos + count],
                         stamps[pos + 1:pos + count + 1])
        pos += count + 1


def grid_digest(arrays):
    """SHA-256 over the exact bytes of a sequence of float grids."""
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array, dtype=np.float64)
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def reuse_layers(session):
    """The ``session.*`` per-layer numbers: artifact cache and plan bank
    counters of ``session`` (read from its public stats objects)."""
    from repro.session.sweep import session_reuse_summary

    reuse = session_reuse_summary(session)
    return {
        "session.cache.hit_rate": session.stats.hit_rate(),
        "session.cache.builds": float(reuse["space_builds"]),
        "session.bank.surface_hits": float(reuse.get("surface_hits", 0)),
        "session.bank.plan_hits": float(reuse.get("dp_result_hits", 0)),
    }


def _git_sha(root):
    """HEAD's sha read from ``.git`` directly (no subprocess); ``None``
    outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest(root):
    """SHA-256 over every ``src/**/*.py`` path and content: identifies
    the code measured even where there is no git metadata."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for directory, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def environment(root, ctx, workload):
    """The stamp every result carries: machine, software, inputs."""
    return {
        "workload": workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": bool(ctx.trace),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(root),
        "src_digest": source_digest(root),
        "argv": sys.argv[1:],
    }
