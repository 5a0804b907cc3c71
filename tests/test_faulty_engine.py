"""Tests for the seeded fault-injection engine."""

import pytest

from repro.common.errors import (
    DiscoveryError,
    EngineCrashError,
    TransientEngineError,
)
from repro.engine.faulty import (
    CRASH_SPEND_HI,
    CRASH_SPEND_LO,
    FaultPlan,
    FaultyEngine,
)
from repro.engine.noisy import NoisyEngine
from repro.engine.simulated import SimulatedEngine


def _spill_parts(space, qa):
    plan = space.optimal_plan(qa)
    target = plan.spill_target(set(space.query.epps))
    assert target is not None
    epp, node = target
    return plan, epp, node


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(corruption_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(drift_factor=0.5)

    def test_is_clean(self):
        assert FaultPlan().is_clean
        assert not FaultPlan(crash_rate=0.1).is_clean
        assert not FaultPlan(transient_on_calls=(3,)).is_clean

    def test_parse_bare_float(self):
        plan = FaultPlan.parse("0.2", seed=5)
        assert plan.crash_rate == 0.2
        assert plan.seed == 5
        assert plan.transient_rate == plan.corruption_rate == 0.0

    def test_parse_kv_list(self):
        plan = FaultPlan.parse(
            "crash=0.2,transient=0.3,corrupt=0.1,drift=0.05,"
            "drift_factor=2.0")
        assert plan.crash_rate == 0.2
        assert plan.transient_rate == 0.3
        assert plan.corruption_rate == 0.1
        assert plan.drift_rate == 0.05
        assert plan.drift_factor == 2.0

    def test_parse_rejects_unknown_knob(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("explode=1")

    def test_describe(self):
        assert FaultPlan().describe() == "clean"
        assert FaultPlan(crash_rate=0.2).describe() == "crash=0.2"
        # Forced faults are adversity too: a plan that crashes at call 3
        # is not "clean".
        assert FaultPlan(crash_on_calls=(3,)).describe() == "forced=1"
        assert FaultPlan(transient_rate=0.1, crash_rate=0.2,
                         transient_on_calls=(1, 2)).describe() \
            == "crash=0.2,transient=0.1,forced=2"


class TestFaultInjection:
    def test_transient_fires_before_spend_then_clears(self, toy_space):
        engine = FaultyEngine(
            toy_space, (8, 8), plan=FaultPlan(transient_on_calls=(1,)))
        plan = toy_space.optimal_plan((8, 8))
        with pytest.raises(TransientEngineError):
            engine.execute(plan, float("inf"))
        # Resubmission sees a fresh call ordinal and succeeds.
        assert engine.execute(plan, float("inf")).completed

    def test_crash_loses_partial_spend(self, toy_space):
        engine = FaultyEngine(
            toy_space, (8, 8), plan=FaultPlan(crash_on_calls=(1,)))
        plan = toy_space.optimal_plan((8, 8))
        cost = toy_space.optimal_cost((8, 8))
        with pytest.raises(EngineCrashError) as info:
            engine.execute(plan, cost * 2.0)
        assert CRASH_SPEND_LO * cost <= info.value.spent
        assert info.value.spent <= CRASH_SPEND_HI * cost

    def test_corruption_stays_in_index_range(self, toy_space):
        engine = FaultyEngine(
            toy_space, (8, 8), plan=FaultPlan(corruption_rate=1.0, seed=3))
        plan, epp, node = _spill_parts(toy_space, (8, 8))
        dim = toy_space.query.epp_index(epp)
        res = len(toy_space.grid.values[dim])
        seen = set()
        for _ in range(20):
            outcome = engine.execute_spill(plan, epp, node, float("inf"))
            assert outcome.completed
            assert -1 <= outcome.learned_index < res
            seen.add(outcome.learned_index)
        # Garbage, not a constant offset.
        assert len(seen) > 1

    def test_drift_inflates_spent(self, toy_space):
        engine = FaultyEngine(
            toy_space, (8, 8),
            plan=FaultPlan(drift_rate=1.0, drift_factor=2.0, seed=1))
        plan = toy_space.optimal_plan((8, 8))
        cost = toy_space.optimal_cost((8, 8))
        spents = [engine.execute(plan, float("inf")).spent
                  for _ in range(10)]
        for spent in spents:
            assert cost - 1e-9 <= spent <= cost * 2.0 + 1e-9
        assert max(spents) > cost * 1.001

    def test_fault_stream_deterministic(self, toy_space):
        plan_spec = dict(crash_rate=0.3, transient_rate=0.2,
                         corruption_rate=0.3, drift_rate=0.3)

        def trace(engine):
            plan, epp, node = _spill_parts(toy_space, (8, 8))
            events = []
            for _ in range(30):
                try:
                    o = engine.execute_spill(plan, epp, node, float("inf"))
                    events.append(("ok", o.learned_index,
                                   round(o.spent, 6)))
                except TransientEngineError:
                    events.append(("transient",))
                except EngineCrashError as exc:
                    events.append(("crash", round(exc.spent, 6)))
            return events

        a = trace(FaultyEngine(toy_space, (8, 8),
                               plan=FaultPlan(seed=11, **plan_spec)))
        b = trace(FaultyEngine(toy_space, (8, 8),
                               plan=FaultPlan(seed=11, **plan_spec)))
        c = trace(FaultyEngine(toy_space, (8, 8),
                               plan=FaultPlan(seed=12, **plan_spec)))
        assert a == b
        assert a != c

    def test_clean_plan_matches_simulated_engine(self, toy_space):
        faulty = FaultyEngine(toy_space, (8, 8))
        clean = SimulatedEngine(toy_space, (8, 8))
        plan, epp, node = _spill_parts(toy_space, (8, 8))
        assert faulty.execute(plan, 100.0).spent == \
            clean.execute(plan, 100.0).spent
        fo = faulty.execute_spill(plan, epp, node, float("inf"))
        co = clean.execute_spill(plan, epp, node, float("inf"))
        assert (fo.completed, fo.spent, fo.learned_index) == \
            (co.completed, co.spent, co.learned_index)


class TestComposition:
    def test_composes_with_noisy_base(self, toy_space):
        base = NoisyEngine(toy_space, (8, 8), delta=0.3, seed=7)
        engine = FaultyEngine(toy_space, (8, 8), base=base)
        plan = toy_space.optimal_plan((8, 8))
        assert engine.optimal_cost == base.optimal_cost
        assert engine.true_cost(plan) == base.true_cost(plan)
        assert engine.execute(plan, float("inf")).spent == \
            pytest.approx(base.true_cost(plan))

    def test_base_truth_mismatch_rejected(self, toy_space):
        base = NoisyEngine(toy_space, (3, 3), delta=0.1)
        with pytest.raises(DiscoveryError):
            FaultyEngine(toy_space, (8, 8), base=base)

    def test_sound_strips_the_fault_layer(self, toy_space):
        engine = FaultyEngine(toy_space, (8, 8),
                              plan=FaultPlan(crash_rate=1.0))
        sound = engine.sound()
        assert type(sound) is SimulatedEngine
        assert sound.qa_index == (8, 8)
        base = NoisyEngine(toy_space, (8, 8), delta=0.2)
        assert FaultyEngine(toy_space, (8, 8), base=base).sound() is base
