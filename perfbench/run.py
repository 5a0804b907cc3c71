"""One seeded benchmark for the ``repro`` package.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-sim --seed 0 --seconds 20 --trace 0

Workloads: ``sweep-sim``, ``sweep-journaled``, ``serve-mixed`` and
``cold-run`` (see ``perfbench/README.md``). With ``--trace 0`` the run
measures with no instrumentation and reports the end-to-end metrics
(times scaled to the tuning machine's speed, see ``harness.Clock``);
with ``--trace 1`` it alternates untraced and traced passes and reports
the per-layer metrics (self time per layer, call counts, tracing
overhead), under the names and units ``BENCHMARK.json`` declares. Every
run checks the program's outputs; a failed check makes the run exit 1
after printing its result. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. The full report (environment stamp, sample counts, checks,
exact work counters, per-layer table) is printed above it and written to
``.perfbench/results/``.
"""

import argparse
import importlib
import json
import os
import shutil
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = {
    "sweep-sim": "sweep_sim",
    "sweep-journaled": "sweep_journaled",
    "serve-mixed": "serve_mixed",
    "cold-run": "cold_run",
}

ALGORITHMS = ("planbouquet", "spillbound", "alignedbound")
BACKENDS = ("native", "vectorized", "sqlite")
#: Reference samples taken before the workload starts, so that every
#: run has some (``harness.Clock``).
REFERENCE_WARMUP = 5
LAYERS = ("algorithms", "engine", "cost", "optimizer", "ess", "session",
          "metrics", "robustness", "common", "serve", "executor", "ir",
          "catalog", "harness")


def declared_metrics():
    """``(end_to_end, per_layer)``: name -> unit of every metric that
    ``BENCHMARK.json`` declares, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import ``repro`` from this checkout's ``src/`` (never from
    anywhere else); raises ``SystemExit(2)`` when it is absent."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: no repro package under %s" % src,
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print("perfbench: repro imported from %s, not %s"
              % (repro.__file__, src), file=sys.stderr)
        raise SystemExit(2)


def warm_up():
    """Import and exercise every layer once on a tiny space, so lazy
    imports and first-call set-up land outside every timed region."""
    from repro.session import RobustSession

    session = RobustSession()
    space, contours = session.space_and_contours("2D_Q91", resolution=6)
    for name in ALGORITHMS:
        session.algorithm(name, space=space, contours=contours).run((3, 3))


def end_to_end(result, clock):
    """The end-to-end metrics of an untraced run, plus sample counts.

    Times are converted to the tuning machine's speed by
    ``clock.scaled`` (see ``harness.Clock``)."""
    from harness import Samples, median, peak_rss_mb, percentile, \
        tail_support

    walls = [p for p in result.passes if not p["traced"]]
    passes = Samples()
    for p in walls:
        passes.add(p["spans"])
    wall_s = clock.scaled(passes)
    warm_ms = clock.scaled(result.warm) * 1e3
    cold_ms = clock.scaled(result.cold) * 1e3
    values = {
        "setup_s": median(clock.scaled(result.setup)),
        "wall_s": median(wall_s),
        "peak_rss_mb": peak_rss_mb(),
        "locations_per_s": median([p["runs"] / s
                                   for p, s in zip(walls, wall_s)]),
        "warm_p50_ms": percentile(warm_ms, 50),
        "warm_p99_ms": percentile(warm_ms, 99),
        "cold_p50_ms": percentile(cold_ms, 50),
        "cold_p90_ms": percentile(cold_ms, 90),
    }
    samples = {
        "reference": len(clock.samples),
        "setup_s": len(result.setup),
        "wall_s": len(walls),
        "locations_per_s": len(walls),
        "warm_ms": len(warm_ms),
        "warm_p99_beyond": tail_support(len(warm_ms), 99),
        "cold_ms": len(cold_ms),
        "cold_p90_beyond": tail_support(len(cold_ms), 90),
    }
    return values, samples


#: Per-layer metrics the workloads fill in from public objects (reuse
#: counters, WAL bytes, the daemon's ``stats`` op); 0 where a workload
#: does not exercise them.
WORKLOAD_SOURCED = (
    "session.cache.hit_rate", "session.cache.builds",
    "session.bank.surface_hits", "session.bank.plan_hits",
    "robustness.wal_bytes", "serve.queue_wait_ms", "serve.server_ms",
    "serve.wire_ms", "serve.coalesced", "serve.shed", "serve.degraded",
    "serve.served_cached", "serve.served_full")


def per_layer(result, rec):
    """Per-layer metrics of a traced run, per traced pass."""
    from harness import median

    values = dict.fromkeys(WORKLOAD_SOURCED, 0.0)
    values.update(dict.fromkeys(("trace.untraced_pass_s",
                                 "trace.traced_pass_s",
                                 "trace.overhead_frac"), 0.0))
    traced = [p for p in result.passes if p["traced"]]
    untraced = [p for p in result.passes if not p["traced"]]
    passes = max(len(traced), 1)
    total, selfs, calls, counts = (rec.total_s, rec.self_s, rec.calls,
                                   rec.counts)

    def per(mapping, name):
        return mapping.get(name, 0.0) / passes

    for algo in ALGORITHMS:
        span = "algorithms.%s.run" % algo
        base = "algorithms.%s." % algo
        values[base + "run_s"] = per(total, span)
        values[base + "self_s"] = per(selfs, span)
        values[base + "runs"] = per(calls, span)
        values[base + "executions"] = per(counts, base + "executions")
    for span in ("engine.execute", "engine.spill", "cost.plan_surface",
                 "cost.spill_profile", "optimizer.batch_dp",
                 "optimizer.scalar_dp"):
        values[span + "_calls"] = per(calls, span)
        values[span + "_s"] = per(total, span)
    values.update({
        "ess.builds": per(calls, "ess.build"),
        "ess.cells": per(counts, "ess.cells"),
        "ess.posp_plans": per(counts, "ess.posp_plans"),
        "ess.build_s": per(total, "ess.build"),
        "ess.contour_members_calls": per(calls, "ess.contour_members"),
        "ess.contour_members_s": per(total, "ess.contour_members"),
        "session.sweep.unit_s": total.get("session.sweep.unit", 0.0)
        / max(calls.get("session.sweep.unit", 0), 1),
        "session.parallel_sweep.s": per(total, "session.parallel_sweep"),
        "metrics.sweep_s": per(total, "metrics.sweep"),
        "metrics.locations": per(counts, "metrics.locations"),
        "robustness.checkpoint_saves": per(
            calls, "robustness.checkpoint_save"),
        "robustness.checkpoint_save_s": per(
            total, "robustness.checkpoint_save"),
        "robustness.journal_records": per(calls, "robustness.journal"),
        "robustness.journal_s": per(total, "robustness.journal")
        + per(total, "robustness.journal_open"),
        "robustness.replay_s": per(total, "robustness.replay"),
        "common.atomic_writes": per(calls, "common.atomic_write"),
        "common.atomic_write_s": per(total, "common.atomic_write"),
        "common.fsyncs": per(calls, "common.fsync"),
        "executor.truth_s": per(total, "executor.truth"),
        "catalog.datagen_s": total.get("catalog.datagen", 0.0)
        / max(calls.get("catalog.datagen", 0), 1),
    })
    for backend in BACKENDS:
        span = "ir.%s.execute" % backend
        values[span + "_calls"] = per(calls, span)
        values[span + "_s"] = per(total, span)
    layers = rec.layer_self_s()
    for layer in LAYERS:
        values["self_s." + layer] = layers.get(layer, 0.0) / passes
    values["trace.wall_s"] = (per(total, "harness.setup")
                              + per(total, "harness.pass"))
    if traced and untraced:
        plain = median([p["wall_s"] for p in untraced])
        timed = median([p["wall_s"] for p in traced])
        values["trace.untraced_pass_s"] = plain
        values["trace.traced_pass_s"] = timed
        values["trace.overhead_frac"] = timed / plain - 1.0
    # Workload-sourced numbers (reuse counters, WAL bytes, the daemon's
    # stats op) override the span-derived defaults.
    values.update(result.layers)
    return values


def check_spans(result, rec, names):
    """Fail the run unless the traced passes recorded every span in
    ``names`` (and, for a discovery run, its executions): a renamed or
    re-routed entry point must not quietly zero its layer."""
    if not names:
        return
    missing = [name for name in names if not rec.calls.get(name)
               or name.startswith("algorithms.")
               and not rec.counts.get(name.rsplit(".", 1)[0]
                                      + ".executions")]
    result.check("traced run recorded %d expected spans" % len(names),
                 not missing,
                 "missing: " + ", ".join(missing) if missing else "")


def report(env, result, clock, metrics, units, samples, rec, out):
    """Human-readable report lines (everything above the JSON line)."""
    from harness import median

    write = out.write
    write("# perfbench %s seed=%d trace=%d\n"
          % (env["workload"], env["seed"], env["trace"]))
    write("# env %s\n" % json.dumps(
        {k: env[k] for k in ("cpu_count", "python", "numpy", "git_sha",
                             "src_digest", "seconds")}))
    for name in sorted(metrics):
        write("metric %-36s %16.6f %s\n" % (name, metrics[name],
                                            units[name]))
    if samples:
        write("# samples %s\n" % json.dumps(samples))
    if clock.samples:
        write("# speed reference loop median %.6f s over %d samples; "
              "times above are scaled by %.4f on average (raw times in "
              "passes)\n" % (median(clock.samples), len(clock.samples),
                             clock.scale()))
    write("# passes %s\n" % json.dumps(
        [{k: (round(v, 6) if isinstance(v, float) else v)
          for k, v in p.items() if k != "spans"} for p in result.passes]))
    for check in result.checks:
        write("check %s %s%s\n" % ("ok  " if check["ok"] else "FAIL",
                                   check["check"],
                                   (" -- " + check["detail"])
                                   if check["detail"] else ""))
    write("# counters %s\n" % json.dumps(result.counters, sort_keys=True))
    if result.notes:
        write("# notes %s\n" % json.dumps(result.notes, sort_keys=True))
    if rec is not None:
        wall = metrics["trace.wall_s"]
        write("# traced self time per layer (per traced pass; the layers "
              "sum to %.4f s of %.4f s traced; tracing overhead %+.1f%%)\n"
              % (sum(metrics["self_s." + layer] for layer in LAYERS), wall,
                 100.0 * metrics["trace.overhead_frac"]))
        for layer in LAYERS:
            seconds = metrics["self_s." + layer]
            if seconds:
                write("#   %-12s %10.4f s %6.1f%%\n" % (
                    layer, seconds, 100.0 * seconds / wall if wall else 0))


def main(argv=None):
    args = parse_args(argv)
    end_units, layer_units = declared_metrics()
    # SIGTERM unwinds like an error, so the daemon and scratch files the
    # workload owns are cleaned up in the ``finally`` below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import_program()
    sys.path.insert(0, HERE)
    import spans
    from harness import Context, Result, environment, timed_loop

    out_dir = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(out_dir, "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    ctx = Context(ROOT, args.seed, args.seconds, args.trace, workdir)
    with open(os.path.join(HERE, "expected.json")) as handle:
        expected = json.load(handle)

    module = importlib.import_module(WORKLOADS[args.workload])
    result = Result()
    rec = spans.SpanRecorder() if args.trace else None
    workload = module.Workload(ctx, result, expected)
    warm_up()
    for _ in range(REFERENCE_WARMUP):
        ctx.clock.tick(force=True)
    try:
        if hasattr(workload, "run"):
            workload.run(rec)
        else:
            for index in timed_loop(ctx, min_passes=2 if args.trace
                                    else 1):
                traced = args.trace and index % 2 == 1
                # Reference samples would land inside traced spans.
                ctx.clock.enabled = not traced
                workload.one_pass(index, rec if traced else None)
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(ROOT, ctx, args.workload)
    if args.trace:
        check_spans(result, rec, workload.traced_spans)
        metrics = per_layer(result, rec)
        units, samples = layer_units, {}
    else:
        metrics, samples = end_to_end(result, ctx.clock)
        units = end_units
    if set(metrics) != set(units):
        print("perfbench: metrics computed %s differ from those "
              "BENCHMARK.json declares" % sorted(set(metrics) ^ set(units)),
              file=sys.stderr)
        return 2
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)
    with open(os.path.join(out_dir, "results", tag + ".json"), "w") as f:
        json.dump({"env": env, "metrics": metrics, "counts": samples,
                   "speed": {"reference_s": ctx.clock.samples,
                             "at": ctx.clock.stamps,
                             "scale": ctx.clock.scale()},
                   "passes": result.passes, "checks": result.checks,
                   "counters": result.counters, "notes": result.notes},
                  f, indent=1, sort_keys=True)
    if rec is not None:
        os.makedirs(os.path.join(out_dir, "traces"), exist_ok=True)
        rec.dump(os.path.join(out_dir, "traces", tag + ".jsonl.gz"))
    report(env, result, ctx.clock, metrics, units, samples, rec,
           sys.stdout)
    line = {
        "correct": result.correct,
        "attempted": max(int(result.attempted), 1),
        "failed": int(result.failed),
        "metrics": {name: {"value": float(metrics[name]),
                           "unit": units[name]} for name in units},
    }
    print(json.dumps(line))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
