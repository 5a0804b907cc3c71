"""Serve chaos tests: SIGKILL a real serving daemon under fire.

The availability counterpart of :mod:`tests.test_chaos`: a genuine
``python -m repro serve`` subprocess is killed with SIGKILL at seeded
progress points -- under seeded wire chaos -- while concurrent retrying
clients keep issuing requests. Every completed answer must be
bit-identical to a fault-free run's, and no daemon process may outlive
the harness.
"""

import os
import signal
import subprocess
import time

import pytest

from repro.robustness import chaos


# ----------------------------------------------------------------------
# quick units (no subprocesses)


def test_serve_command_shape(tmp_path):
    cmd = chaos.serve_command(str(tmp_path / "s.sock"),
                              str(tmp_path / "cache"), resolution=6,
                              engine="simulated",
                              faults="drop=0.1", fault_seed=3)
    text = " ".join(cmd)
    assert "-m repro serve" in text
    assert "--socket" in cmd and "--cache-dir" in cmd
    assert "--faults" in cmd and "drop=0.1" in cmd
    assert "--fault-seed" in cmd and "3" in cmd


def test_serve_command_omits_faults_when_clean(tmp_path):
    cmd = chaos.serve_command(str(tmp_path / "s.sock"),
                              str(tmp_path / "cache"))
    assert "--faults" not in cmd


def test_serve_chaos_requests_are_distinct_and_deterministic():
    one = chaos.serve_chaos_requests(clients=4, per_client=3)
    two = chaos.serve_chaos_requests(clients=4, per_client=3)
    assert one == two
    ids = [p["id"] for workload in one for p in workload]
    assert len(ids) == len(set(ids)) == 12
    tenants = {p["tenant"] for workload in one for p in workload}
    assert len(tenants) == 4  # one tenant per client
    for workload in one:
        for payload in workload:
            assert payload["rng"] == 0
            assert all(0 <= i < 6 for i in payload["qa"])


def test_verify_serve_results_flags_divergence():
    reference = {"a": {"sub_optimality": 1.5, "total_cost": 10.0},
                 "b": {"sub_optimality": 2.0, "total_cost": 20.0}}
    good = {"a": {"sub_optimality": 1.5, "total_cost": 10.0}}
    assert chaos.verify_serve_results(good, reference) == []
    bad = {"a": {"sub_optimality": 1.5, "total_cost": 11.0}}
    problems = chaos.verify_serve_results(bad, reference)
    assert len(problems) == 1 and "total_cost" in problems[0]
    unknown = {"zz": {"sub_optimality": 1.0}}
    problems = chaos.verify_serve_results(unknown, reference)
    assert len(problems) == 1 and "no reference" in problems[0]


def test_verify_serve_results_ignores_adversity_accounting():
    reference = {"a": {"sub_optimality": 1.5, "degraded": False,
                       "failover": [], "retries": 0}}
    survived = {"a": {"sub_optimality": 1.5, "degraded": True,
                      "failover": ["backend-failover-sqlite-to-native"],
                      "retries": 2}}
    assert chaos.verify_serve_results(survived, reference) == []


def test_wait_serving_times_out_fast_on_nothing(tmp_path):
    with pytest.raises(RuntimeError):
        chaos.wait_serving(str(tmp_path / "void.sock"), timeout=0.5)


# ----------------------------------------------------------------------
# the availability proof


def _no_repro_serve_orphans():
    """PIDs of any ``repro serve`` processes currently alive."""
    out = subprocess.run(["ps", "-eo", "pid,args"], capture_output=True,
                         text=True).stdout
    return [line for line in out.splitlines()
            if "repro serve" in line and "ps -eo" not in line]


@pytest.mark.slow
def test_daemon_sigkill_availability_is_bit_identical(tmp_path):
    """The tentpole proof: >= 3 SIGKILL/restart cycles under 8
    concurrent retrying clients and seeded wire faults, every completed
    answer bit-identical to a fault-free run, no orphans."""
    outcome = chaos.run_serve_chaos(
        str(tmp_path), clients=8, per_client=4, kills=3, seed=0,
        faults="drop=0.04,garbage=0.04,truncate=0.02", fault_seed=1)
    # Real kills, each after observable progress.
    assert outcome.kills >= 3
    assert outcome.launches == outcome.kills + 1
    assert len(outcome.kill_progress) == outcome.kills
    # Availability: every request eventually completed.
    assert outcome.errors == {}
    assert len(outcome.results) == 8 * 4
    # No daemon outlived the harness.
    assert outcome.orphans == []
    assert _no_repro_serve_orphans() == []
    # Bit-identical to a fault-free serve of the same payloads.
    reference = chaos.serve_baseline(
        chaos.serve_chaos_requests(clients=8, per_client=4))
    problems = chaos.verify_serve_results(outcome.results, reference)
    assert problems == []


@pytest.mark.slow
def test_daemon_restart_resumes_from_the_disk_cache(tmp_path):
    """A kill after the artifact is warm: the restarted daemon serves
    the same space from the on-disk cache instead of rebuilding --
    observable as a 'cached' answer straight after restart."""
    from repro.serve import ServeClient

    sock = str(tmp_path / "serve.sock")
    cache_dir = str(tmp_path / "cache")
    os.makedirs(cache_dir, exist_ok=True)
    proc = chaos.launch_serve(sock, cache_dir, 6, "simulated", None, 0)
    try:
        chaos.wait_serving(sock)
        with ServeClient(path=sock, timeout=60.0) as client:
            first = client.run("2D_Q91", resolution=6, rng=0)
        assert first["ok"]
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        proc = chaos.launch_serve(sock, cache_dir, 6, "simulated",
                                  None, 0)
        chaos.wait_serving(sock)
        with ServeClient(path=sock, timeout=60.0) as client:
            again = client.run("2D_Q91", resolution=6, rng=0)
        assert again["ok"] and again["served"] == "cached"
        assert again["result"]["sub_optimality"] \
            == first["result"]["sub_optimality"]
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        time.sleep(0.1)
