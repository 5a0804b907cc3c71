"""Per-state discovery decisions: the pass memo, the spill-target table
and the 1-D endgame ladder.

SpillBound and AlignedBound plan each discovery state (contour, exactly
learnt dimensions, epps left) once per algorithm instance and replay the
plan in every later run that reaches the state. The differential tests
here pin that a memoised sweep is indistinguishable from running one
fresh instance per location, each side in its own session (AlignedBound
on 4D_Q7 excepted, see ``_HISTORY``).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ess.contours import ContourSet
from repro.ess.space import ExplorationSpace
from repro.ess.synthetic import textbook_space
from repro.metrics.mso import exhaustive_sweep
from repro.session import RobustSession

ALGORITHMS = ("planbouquet", "spillbound", "alignedbound")
CASES = (("2D_Q91", 8), ("3D_Q15", 5), ("4D_Q7", 3),
         ("3D_Q15@tail-blowup#1", 5))
#: Locations whose full execution transcripts are compared per case.
SAMPLED = 12


def _transcript(result):
    return ([(r.contour, r.plan_id, r.mode, r.epp, r.budget, r.spent,
              r.completed, r.learned, r.repeat) for r in result.executions],
            result.total_cost, sorted(result.extras.items()))


def _registry(space):
    return [info.id if info.tree is None else repr(info.tree.signature())
            for info in space.plans]


#: AlignedBound's part analysis considers every plan registered so far,
#: including those its constrained-optimizer probes registered at other
#: states, so one instance's analysis of a state can differ from a fresh
#: instance's later one. The memo keeps each instance's first-visit
#: analysis, exactly as before it existed; the history dependence itself
#: is a known open fault (see ROADMAP), shown here on 4D_Q7.
_HISTORY = pytest.mark.xfail(
    strict=True, reason="AlignedBound analyses depend on which plans "
    "earlier probes registered")


def _differential_params():
    for query, resolution in CASES:
        for algorithm in ALGORITHMS:
            for ratio in (2.0, 1.8):
                marks = _HISTORY if (query, algorithm) == (
                    "4D_Q7", "alignedbound") else ()
                yield pytest.param(query, resolution, algorithm, ratio,
                                   marks=marks)


@pytest.mark.parametrize("query,resolution,algorithm,ratio",
                         list(_differential_params()))
def test_memoised_sweep_equals_fresh_instance_per_location(
        query, resolution, algorithm, ratio):
    memo_session = RobustSession(mode="exact", ratio=ratio)
    space, contours = memo_session.space_and_contours(
        query, resolution=resolution, ratio=ratio)
    memoised = memo_session.algorithm(algorithm, space=space,
                                      contours=contours)
    grid = exhaustive_sweep(memoised).sub_optimalities

    fresh_session = RobustSession(mode="exact", ratio=ratio)
    fresh_space, fresh_contours = fresh_session.space_and_contours(
        query, resolution=resolution, ratio=ratio)
    shape = fresh_space.grid.shape
    fresh_grid = np.empty(shape)
    transcripts = {}
    order = np.random.default_rng(7).permutation(fresh_space.grid.size)
    for flat in order:
        qa = tuple(int(i) for i in np.unravel_index(int(flat), shape))
        result = fresh_session.algorithm(
            algorithm, space=fresh_space, contours=fresh_contours).run(qa)
        fresh_grid[qa] = result.sub_optimality
        transcripts[qa] = _transcript(result)

    assert grid.tobytes() == fresh_grid.tobytes()
    sampled = np.random.default_rng(3).choice(
        fresh_space.grid.size, size=min(SAMPLED, fresh_space.grid.size),
        replace=False)
    for flat in sampled:
        qa = tuple(int(i) for i in np.unravel_index(int(flat), shape))
        assert _transcript(memoised.run(qa)) == transcripts[qa], qa
    assert _registry(space) == _registry(fresh_space)


def test_pass_plans_are_memoised_per_state(q91_2d_space, q91_2d_contours):
    from repro.algorithms.spillbound import SpillBound

    algo = SpillBound(q91_2d_space, q91_2d_contours)
    algo.run((10, 10))
    states = len(algo._pass_cache)
    assert states > 0
    algo.run((10, 10))
    assert len(algo._pass_cache) == states


# ----------------------------------------------------------------------
# spill-target table


def _subsets(epps):
    return [frozenset(c) for r in range(len(epps) + 1)
            for c in itertools.combinations(epps, r)]


def _assert_table_matches(space):
    epps = space.query.epps
    for remaining in _subsets(epps):
        table = space.spill_targets(remaining)
        assert table.shape == (len(space.plans),)
        for info in space.plans:
            target = info.spill_target(remaining)
            expected = -1 if target is None else epps.index(target[0])
            assert table[info.id] == expected, (info.id, remaining)


def test_spill_target_table_matches_plans(toy_space_3d, toy_query_3d):
    space = ExplorationSpace(toy_query_3d, resolution=4, s_min=1e-5)
    plans = toy_space_3d.plans
    half = len(plans) // 2
    assert 0 < half < len(plans)
    for info in plans[:half]:
        space.register_plan(info.tree)
    _assert_table_matches(space)
    # Plans registered after a table was built extend it.
    for info in plans[half:]:
        space.register_plan(info.tree)
    _assert_table_matches(space)


def test_spill_target_table_on_synthetic_space():
    _assert_table_matches(textbook_space(resolution=8))


# ----------------------------------------------------------------------
# 1-D endgame ladder


class _Grid:
    def __init__(self, shape):
        self.shape = shape
        self.dims = len(shape)
        self.origin = (0,) * self.dims
        self.terminus = tuple(s - 1 for s in shape)


class _SurfaceSpace:
    """Just enough of a space for :class:`ContourSet`: an arbitrary
    (not necessarily monotone) optimal cost surface."""

    built = True

    def __init__(self, opt_cost):
        self.opt_cost = opt_cost
        self.plan_at = np.arange(opt_cost.size).reshape(opt_cost.shape)
        self.grid = _Grid(opt_cost.shape)

    @property
    def c_min(self):
        return 1.0

    @property
    def c_max(self):
        return 64.0


@st.composite
def _surfaces(draw):
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=1,
                                max_size=3)))
    size = int(np.prod(shape))
    values = draw(st.lists(st.integers(0, 12), min_size=size,
                           max_size=size))
    free = draw(st.integers(0, len(shape) - 1))
    fixed = {d: draw(st.integers(0, shape[d] - 1))
             for d in range(len(shape)) if d != free}
    budgets = sorted(draw(st.lists(st.integers(0, 12), min_size=1,
                                   max_size=6)))
    return (np.array(values, dtype=float).reshape(shape), free, fixed,
            [float(b) for b in budgets])


@given(_surfaces())
@settings(max_examples=200, deadline=None)
def test_line_picks_equal_members_argmax(case):
    """Every rung's ladder pick is ``members(k, fixed)`` + argmax along
    the free dimension, on monotone and non-monotone lines alike."""
    surface, free, fixed, budgets = case
    contours = ContourSet(_SurfaceSpace(surface))
    contours.costs = budgets
    picks = contours.line_picks(fixed)
    assert picks.shape == (len(budgets),)
    for k in range(len(budgets)):
        members = contours.members(k, fixed=fixed)
        if members.is_empty:
            assert picks[k] == -1
        else:
            pick = int(np.argmax(members.coords[:, free]))
            assert picks[k] == members.coords[pick, free]


def test_line_picks_need_one_free_dimension(toy_contours_3d):
    from repro.common.errors import DiscoveryError

    with pytest.raises(DiscoveryError):
        toy_contours_3d.line_picks({0: 1})
