"""Golden fault schedules for the three seeded fault vocabularies.

``fault_schedules.json`` (next to this module) holds, for the engine's
:class:`~repro.engine.faulty.FaultPlan`, the backend's
:class:`~repro.ir.faults.BackendFaultPlan` and the serving path's
:class:`~repro.serve.faults.ServeFaultPlan`: the first
:data:`DECISIONS` decisions of every plan in :data:`CASES` over
several seeds (engine plans in ``execute`` and ``spill`` mode), each
plan's ``to_dict()``/``is_clean``/``describe()``, and the same for the
plans :data:`PARSE_SPECS` parse to. Any change to the draw order, the
keying or a parameter draw shows up as a diff against it.

Regenerate (only when a schedule change is intended)::

    PYTHONPATH=src python tests/test_fault_schedules.py --write
"""

import json
import os
import sys

import pytest

from repro.common.faults import SeededFaultPlan
from repro.engine.faulty import FaultPlan
from repro.ir.faults import BackendFaultPlan
from repro.serve.faults import ServeFaultPlan

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "fault_schedules.json")

DECISIONS = 80
SEEDS = (0, 7, 2024)
#: Spill schedules draw corrupted indices in [-1, resolution - 1].
SPILL_RESOLUTION = 10

PLANS = {"engine": FaultPlan, "backend": BackendFaultPlan,
         "serve": ServeFaultPlan}

CASES = {
    "engine": [
        {},
        {"crash_rate": 0.2, "transient_rate": 0.1,
         "corruption_rate": 0.15, "drift_rate": 0.2},
        {"crash_rate": 0.05, "transient_rate": 0.3,
         "corruption_rate": 0.5, "drift_rate": 0.5, "drift_factor": 3.0,
         "crash_on_calls": [3, 17], "transient_on_calls": [1, 17, 40]},
        {"corruption_rate": 1.0, "drift_rate": 1.0},
        {"crash_rate": 1.0},
        {"transient_on_calls": [2, 5]},
    ],
    "backend": [
        {},
        {"fail_rate": 0.3},
        {"fail_rate": 0.05, "fail_on_calls": [1, 2, 60]},
        {"fail_rate": 1.0},
        {"fail_on_calls": [4]},
    ],
    "serve": [
        {},
        {"drop_rate": 0.1, "truncate_rate": 0.1, "garbage_rate": 0.1,
         "slow_rate": 0.1},
        {"drop_rate": 0.3, "truncate_rate": 0.3, "garbage_rate": 0.3,
         "slow_rate": 0.3, "slow_ms": 0.0},
        {"drop_rate": 0.05, "slow_rate": 0.2, "slow_ms": 10.0,
         "drop_on_frames": [7], "truncate_on_frames": [3, 7],
         "garbage_on_frames": [5], "slow_on_frames": [9, 11]},
        {"slow_rate": 1.0, "slow_ms": 0.0},
        {"garbage_rate": 1.0},
    ],
}

PARSE_SPECS = {
    "engine": ["0.2", "0", "crash=0.2,corrupt=0.1",
               "crash=0.2,transient=0.3,corrupt=0.1,drift=0.05,"
               "drift_factor=2.0", " drift=0.5 , ", ""],
    "backend": ["0.3", "fail=0.4", "fail=0", ""],
    "serve": ["0.25", "drop=0.1,truncate=0.2,garbage=0.05,slow=0.3,"
              "slow_ms=80", "slow=1,slow_ms=0", ""],
}

#: Forced-ordinal fields, per layer; plans that set one print a
#: ``forced=N`` count in :meth:`describe`.
FORCED = ("crash_on_calls", "transient_on_calls", "fail_on_calls",
          "drop_on_frames", "truncate_on_frames", "garbage_on_frames",
          "slow_on_frames")


def _schedules(layer, plan):
    if layer != "engine":
        return {"plain": plan.schedule(DECISIONS)}
    return {"execute": plan.schedule(DECISIONS, mode="execute"),
            "spill": plan.schedule(DECISIONS, mode="spill",
                                   resolution=SPILL_RESOLUTION)}


def _summary(plan):
    return {"to_dict": plan.to_dict(), "is_clean": plan.is_clean,
            "describe": plan.describe()}


def compute():
    """Everything the fixture records, from the current code."""
    out = {}
    for layer, cls in PLANS.items():
        cases = []
        for kwargs in CASES[layer]:
            for seed in SEEDS:
                plan = cls(seed=seed, **kwargs)
                cases.append(dict(_summary(plan), kwargs=kwargs, seed=seed,
                                  schedules=_schedules(layer, plan)))
        parsed = []
        for spec in PARSE_SPECS[layer]:
            for seed in (0, 5):
                parsed.append(dict(_summary(cls.parse(spec, seed=seed)),
                                   spec=spec, seed=seed))
        out[layer] = {"cases": cases, "parse": parsed}
    return out


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def current():
    return compute()


@pytest.mark.parametrize("layer", sorted(PLANS))
class TestGoldenSchedules:
    def test_schedules(self, layer, golden, current):
        for want, got in zip(golden[layer]["cases"],
                             current[layer]["cases"], strict=True):
            assert got["kwargs"] == want["kwargs"]
            assert got["schedules"] == want["schedules"], (
                layer, want["kwargs"], want["seed"])

    def test_to_dict_and_is_clean(self, layer, golden, current):
        for section in ("cases", "parse"):
            for want, got in zip(golden[layer][section],
                                 current[layer][section], strict=True):
                assert got["to_dict"] == want["to_dict"]
                assert got["is_clean"] == want["is_clean"]

    def test_round_trip(self, layer, golden):
        cls = PLANS[layer]
        for want in golden[layer]["cases"]:
            plan = cls.from_dict(want["to_dict"])
            assert plan.to_dict() == want["to_dict"]
            assert _schedules(layer, plan) == want["schedules"]

    def test_describe_of_rate_only_plans(self, layer, golden, current):
        # Plans without forced ordinals describe exactly as before; the
        # forced ones are covered by the per-layer describe tests.
        for section in ("cases", "parse"):
            for want, got in zip(golden[layer][section],
                                 current[layer][section], strict=True):
                if not any(want["to_dict"].get(f) for f in FORCED):
                    assert got["describe"] == want["describe"]


@pytest.mark.parametrize("cls", list(PLANS.values()))
def test_vocabularies_only_declare_their_kinds(cls):
    # The draw loop and the plan plumbing live once, on SeededFaultPlan.
    shared = {"__init__", "fault_at", "schedule", "parse", "to_dict",
              "from_dict", "describe", "is_clean"}
    assert issubclass(cls, SeededFaultPlan)
    assert not shared & set(vars(cls))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_fault_schedules.py --write")
    with open(FIXTURE, "w") as fh:
        fh.write(json.dumps(compute(), sort_keys=True) + "\n")
