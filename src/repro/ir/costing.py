"""Closed-form operator cost algebra over observed cardinalities.

The native interpreter charges its :class:`~repro.ir.contracts.CostMeter`
as tuples flow; set-oriented backends replay (sqlite, vectorized): they
learn the cardinalities first and then apply the *same* charge formulas
in closed form. These functions are that algebra, factored out so the
two ways of spending agree: for every operator except the merge join
the total is an exact function of input/output cardinalities, and for
the merge join :func:`merge_iterations` replays the interpreter's merge
loop over the sorted key-group structure, which makes even its
data-dependent iteration count exact.
"""

import math


def page_cost(params, n_rows, n_columns):
    """Sequential page fetches for scanning ``n_rows`` of width
    ``n_columns`` (8-byte attributes, 8 KiB pages, minimum one page)."""
    rows_per_page = max(1, 8192 // max(1, 8 * n_columns))
    return max(1, -(-n_rows // rows_per_page)) * params.seq_page_cost


def filter_stage_cost(params, n_rows, survivors):
    """Short-circuit filter charges: stage *k* tests only the survivors
    of stages ``1..k-1``.

    ``survivors`` is the per-stage survivor sequence (``survivors[k]``
    rows pass the first ``k+1`` filters); stage 0 tests all ``n_rows``.
    """
    tested = [n_rows] + list(survivors[:-1])
    return sum(t * params.cpu_operator_cost for t in tested[:len(survivors)])


def scan_cost(params, n_rows, n_columns, survivors):
    """Full scan charge: pages + per-tuple CPU + filters + output."""
    out = survivors[-1] if survivors else n_rows
    return (page_cost(params, n_rows, n_columns)
            + n_rows * params.cpu_tuple_cost
            + filter_stage_cost(params, n_rows, survivors)
            + out * params.output_cost)


def hash_join_cost(params, left_n, right_n, out_n):
    """Build the right side, probe with the left, emit matches."""
    return (right_n * params.hash_build_cost
            + left_n * params.hash_probe_cost
            + out_n * params.output_cost)


def nl_join_cost(params, left_n, right_n, out_n):
    """Materialise the inner (right) side, compare every pair."""
    return (right_n * params.materialize_cost
            + left_n * right_n * params.nl_compare_cost
            + out_n * params.output_cost)


def sort_cost(params, n):
    """In-memory sort of ``n`` rows (``sort_factor * n log2 n``)."""
    return (params.sort_factor * params.cpu_operator_cost
            * n * math.log2(max(n, 2)))


def merge_join_cost(params, left_n, right_n, iterations, out_n):
    """Sort both sides, walk the merge loop, emit group products."""
    return (sort_cost(params, left_n) + sort_cost(params, right_n)
            + iterations * params.cpu_operator_cost
            + out_n * params.output_cost)


def index_join_cost(params, outer_n, fetched_n, survivors, emitted_n):
    """Per-outer-probe lookups, per-fetch tuple costs, inner filters,
    output of fully-matching rows.

    ``survivors`` are the fetched-row counts surviving each inner-filter
    prefix (short-circuit, like scan filters); residual join predicates
    are evaluated free of charge, mirroring the native interpreter.
    """
    return (outer_n * params.index_lookup_cost
            + fetched_n * params.cpu_tuple_cost
            + filter_stage_cost(params, fetched_n, survivors)
            + emitted_n * params.output_cost)


def merge_iterations(left_groups, right_groups):
    """Replay the interpreter's merge loop over sorted key groups.

    ``left_groups``/``right_groups`` are ``[(key_tuple, count), ...]``
    in ascending key order. The loop charges one iteration per
    single-row advance on the lesser side and one iteration per
    equal-key group pair (which emits the group cross product and
    advances both sides past their groups), terminating when either
    side exhausts -- exactly the tuple-at-a-time merge. Returns
    ``(iterations, out_rows)``.
    """
    iterations = 0
    out = 0
    i = j = 0
    while i < len(left_groups) and j < len(right_groups):
        lk, lc = left_groups[i]
        rk, rc = right_groups[j]
        if lk < rk:
            iterations += lc
            i += 1
        elif lk > rk:
            iterations += rc
            j += 1
        else:
            iterations += 1
            out += lc * rc
            i += 1
            j += 1
    return iterations, out
