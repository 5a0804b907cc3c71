"""Chaos tests: real SIGKILLs against a journaled sweep subprocess.

These are the end-to-end teeth of the durability layer. A genuine
``python -m repro sweep --journal`` child is killed with SIGKILL at
seeded points of journal progress and resumed; the recovered grids must
be bit-identical to an uninterrupted run's and no committed unit may
ever re-execute. Also covers the cross-process reproducibility of
seeded fault schedules (the property that makes chaos runs repeatable
at all).
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.engine.faulty import FaultPlan, FaultyEngine
from repro.engine.simulated import SimulatedEngine
from repro.robustness import chaos

WORKLOAD = "2D_Q91"
RESOLUTION = 10
SAMPLE = 16
ALGORITHMS = ("planbouquet", "spillbound", "alignedbound")


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (chaos.src_path(), env.get("PYTHONPATH")) if p)
    return env


def _clean_grids(tmp_path):
    """Grids from one uninterrupted journaled run of the same sweep."""
    journal_dir = str(tmp_path / "clean-journal")
    proc = subprocess.run(
        chaos.sweep_command(journal_dir, WORKLOAD, RESOLUTION, SAMPLE,
                            ALGORITHMS),
        env=_subprocess_env(),
        capture_output=True, timeout=chaos.WAIT_TIMEOUT)
    assert proc.returncode == 0, proc.stderr.decode()
    return chaos.journal_grids(journal_dir)


@pytest.mark.slow
def test_sigkill_recovery_is_bit_identical(tmp_path):
    outcome = chaos.run_chaos(str(tmp_path / "journal"),
                              workload=WORKLOAD,
                              resolution=RESOLUTION, sample=SAMPLE,
                              algorithms=ALGORITHMS, kills=3, seed=0)
    # The harness must have landed real kills mid-sweep, each after
    # observable journal progress.
    assert outcome.kills >= 3
    assert len(outcome.kill_records) == outcome.kills
    assert all(n > 0 for n in outcome.kill_records)
    # Exactly-once: no committed unit was re-executed after its COMMIT.
    assert outcome.problems == []
    # Every unit of the sweep completed despite the kills.
    assert len(outcome.grids) == len(ALGORITHMS)
    # Bit-identical to an uninterrupted run: COMMIT payloads round-trip
    # floats exactly, so recovery must not perturb a single ULP.
    clean = _clean_grids(tmp_path)
    assert sorted(clean) == sorted(outcome.grids)
    for unit, grid in clean.items():
        assert np.array_equal(grid, outcome.grids[unit]), unit


@pytest.mark.slow
def test_sigkill_mid_parallel_sweep_recovers(tmp_path):
    """SIGKILL lands on the *parent* of a --workers sweep: its forked
    workers die with it (broken pipes), yet only the parent ever writes
    the journal, so resume gives the same exactly-once, bit-identical
    recovery the serial chaos run guarantees."""
    outcome = chaos.run_chaos(str(tmp_path / "journal"),
                              workload=WORKLOAD,
                              resolution=RESOLUTION, sample=SAMPLE,
                              algorithms=ALGORITHMS, kills=2, seed=1,
                              workers=2)
    assert outcome.kills >= 1
    assert all(n > 0 for n in outcome.kill_records)
    assert outcome.problems == []
    assert len(outcome.grids) == len(ALGORITHMS)
    clean = _clean_grids(tmp_path)
    assert sorted(clean) == sorted(outcome.grids)
    for unit, grid in clean.items():
        assert np.array_equal(grid, outcome.grids[unit]), unit


def test_verify_single_execution_flags_reexecution(tmp_path):
    from repro.robustness.durable import SweepJournal

    journal = SweepJournal(str(tmp_path / "journal"), fsync=False)
    journal.open(config={"id": 1})
    journal.begin("q/a")
    journal.commit("q/a", {"ok": True})
    # Forge the violation the checker exists to catch.
    journal._append({"type": "begin", "unit": "q/a"})
    journal.close()
    problems = chaos.verify_single_execution(str(tmp_path / "journal"))
    assert len(problems) == 1
    assert "re-executed" in problems[0]


def test_journal_records_tolerates_absence(tmp_path):
    assert chaos.journal_records(str(tmp_path / "nowhere")) == []


# ----------------------------------------------------------------------
# fault-schedule reproducibility across process boundaries


SCHEDULE_PROG = """\
import json, sys
from repro.engine.faulty import FaultPlan
plan = FaultPlan.from_dict(json.loads(sys.argv[1]))
print(json.dumps(plan.schedule(int(sys.argv[2]), mode=sys.argv[3],
                               resolution=20)))
"""


@pytest.mark.parametrize("mode", ["execute", "spill"])
@pytest.mark.parametrize("seed", [0, 7, 23])
def test_fault_schedule_reproduces_across_processes(mode, seed):
    plan = FaultPlan(crash_rate=0.2, transient_rate=0.15,
                     corruption_rate=0.1, drift_rate=0.3,
                     drift_factor=1.4, seed=seed,
                     crash_on_calls=(5,), transient_on_calls=(2,))
    local = plan.schedule(40, mode=mode, resolution=20)
    proc = subprocess.run(
        [sys.executable, "-c", SCHEDULE_PROG,
         json.dumps(plan.to_dict()), "40", mode],
        env=_subprocess_env(), capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    remote = json.loads(proc.stdout)
    # JSON round-trips the floats exactly, so equality is exact.
    assert remote == json.loads(json.dumps(local))


def test_fault_plan_round_trips_through_dict():
    plan = FaultPlan(crash_rate=0.25, drift_rate=0.5, seed=11,
                     crash_on_calls=(3, 9))
    clone = FaultPlan.from_dict(plan.to_dict())
    assert clone.to_dict() == plan.to_dict()
    assert clone.schedule(10) == plan.schedule(10)


def test_schedule_matches_engine_behaviour(toy_space):
    """The advertised schedule is what FaultyEngine actually injects,
    for plain and spill executions (monitor corruption included)."""
    qa = (3, 7)
    plan = FaultPlan(crash_rate=0.3, transient_rate=0.2,
                     corruption_rate=0.4, drift_rate=0.4, seed=13)
    clean = SimulatedEngine(toy_space, qa)
    plan_info = toy_space.plans[0]
    budget = plan_info.cost[qa] * 2.0
    spill_info = toy_space.optimal_plan(qa)
    epp, node = spill_info.spill_target(set(toy_space.query.epps))
    resolution = len(
        toy_space.grid.values[toy_space.query.epp_index(epp)])
    runs = {
        "execute": lambda engine: engine.execute(plan_info, budget),
        "spill": lambda engine: engine.execute_spill(
            spill_info, epp, node, spill_info.cost[qa] * 0.5),
    }
    for mode, run in runs.items():
        predicted = plan.schedule(30, mode=mode, resolution=resolution)
        if mode == "spill":
            assert any(d["fault"] == "corrupt" for d in predicted)
        faulty = FaultyEngine(toy_space, qa, plan=plan)
        for decision in predicted:
            baseline = run(clean)
            try:
                outcome = run(faulty)
            except Exception as exc:
                kind = type(exc).__name__
                observed = {"TransientEngineError": "transient",
                            "EngineCrashError": "crash"}[kind]
                assert decision["fault"] == observed, decision
                continue
            assert decision["fault"] in (None, "corrupt", "drift"), \
                decision
            if "drift_factor" in decision:
                expected = baseline.spent * decision["drift_factor"]
                assert outcome.spent == pytest.approx(expected)
            else:
                assert outcome.spent == baseline.spent
            if mode == "spill":
                assert outcome.learned_index == decision.get(
                    "learned_index", baseline.learned_index)
