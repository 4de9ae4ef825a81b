"""The indexed critical-path walk against the linear scan it replaced.

``report._critical_path`` finds each predecessor by bisection in sorted
end-time indexes.  ``_linear_critical_path`` below is the earlier
implementation, kept verbatim as the oracle: it scans every task attempt
on every step of the path.  The two must pick the same predecessor on
every input, ties and epsilon boundaries included, so reports stay
byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.observability.analysis import SpanTrace, analyze_events, load_reports
from repro.observability.analysis import report as report_mod
from repro.observability.analysis.report import (
    _EPS,
    _busy_intervals_by_node,
    _slack_by_task,
    report_for_campaign,
)
from repro.observability.analysis.spans import AllocSpan, CampaignSpan, TaskSpan
from repro.observability.recorder import events_from_trace

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"
COMMITTED_TRACES = sorted(RESULTS.glob("*.trace.json"))


def _linear_critical_path(tasks, allocs, window, slack):
    """Backward walk from the last-ending work to the campaign start."""
    start, _end = window
    elements: list[dict] = []

    def span_el(kind, label, t0, t1, node=None, el_slack=None):
        elements.append(
            {
                "kind": kind,
                "label": label,
                "start": t0,
                "end": t1,
                "duration": max(0.0, t1 - t0),
                "node": node,
                "slack": el_slack,
            }
        )

    alloc_by_index = {a.index: a for a in allocs}
    visited: set[int] = set()

    def node_pred(cur):
        cur_nodes = set(cur.nodes or ((cur.node,) if cur.node is not None else ()))
        best = None
        for t in tasks:
            if t is cur or id(t) in visited or t.end > cur.start + _EPS:
                continue
            t_nodes = set(t.nodes or ((t.node,) if t.node is not None else ()))
            if not (cur_nodes & t_nodes):
                continue
            if best is None or t.end > best.end:
                best = t
        return best

    def any_pred(before: float):
        best = None
        for t in tasks:
            if id(t) in visited or t.end > before + _EPS:
                continue
            if best is None or t.end > best.end:
                best = t
        return best

    cur = max(tasks, key=lambda t: t.end) if tasks else None
    if cur is None and allocs:
        # A campaign that granted allocations but launched nothing:
        # the path is just the first allocation's queue wait.
        alloc = max(allocs, key=lambda a: a.end or a.start)
        if alloc.queue_wait > _EPS:
            span_el("queue-wait", f"job {alloc.job}", alloc.submitted, alloc.start)
        elements.reverse()
        return elements

    while cur is not None:
        visited.add(id(cur))
        span_el(
            "task",
            f"{cur.name} (attempt {cur.attempt}, {cur.outcome or 'open'})",
            cur.start,
            cur.end,
            node=cur.node,
            el_slack=slack.get(id(cur)),
        )
        pred = node_pred(cur)
        if pred is not None:
            gap = cur.start - pred.end
            if gap > _EPS:
                kind = "retry-backoff" if cur.attempt > 1 else "node-wait"
                span_el(kind, f"before {cur.name}", pred.end, cur.start, node=cur.node)
            cur = pred
            continue
        # First task on its node(s): the allocation grant precedes it.
        alloc = alloc_by_index.get(cur.alloc)
        if alloc is None:
            break
        if cur.start - alloc.start > _EPS:
            span_el("dispatch-wait", f"in job {alloc.job}", alloc.start, cur.start, node=cur.node)
        if alloc.queue_wait > _EPS:
            span_el("queue-wait", f"job {alloc.job}", alloc.submitted, alloc.start)
        submit = alloc.submitted if alloc.submitted is not None else alloc.start
        pred = any_pred(submit)
        if pred is None:
            if submit - start > _EPS:
                span_el("campaign-lead", "before first submission", start, submit)
            break
        gap = submit - pred.end
        if gap > _EPS:
            span_el("resubmit-gap", f"before job {alloc.job}", pred.end, submit)
        cur = pred

    elements.reverse()
    return elements


def _oracle_reports(build):
    """Run ``build()`` with the linear scan standing in for the index."""

    def linear(tasks, allocs, window, slack, by_node):
        return _linear_critical_path(tasks, allocs, window, slack)

    with mock.patch.object(report_mod, "_critical_path", linear):
        return build()


def _serialize(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], sort_keys=True)


# -- generated span sets -------------------------------------------------------

# Times on a small grid plus sub-epsilon and just-over-epsilon nudges, so
# equal end times, zero-length attempts, the ``end <= bound + _EPS``
# boundary and visited attempts at or below a bound all come up often.
_times = st.builds(
    lambda base, nudge: base + nudge,
    st.integers(0, 4).map(float),
    st.sampled_from([0.0, 0.0, 0.0, _EPS / 2, 2 * _EPS, 0.5]),
)
_node_ids = st.integers(0, 2)


@st.composite
def _placements(draw):
    """``(node, nodes)``: single node, multi-node, ``None`` or empty."""
    kind = draw(st.sampled_from(["single", "multi", "none", "empty-nodes"]))
    if kind == "single":
        return draw(_node_ids), ()
    if kind == "multi":
        nodes = tuple(draw(st.lists(_node_ids, min_size=1, max_size=3)))
        return nodes[0], nodes
    if kind == "none":
        return None, ()
    return draw(_node_ids), ()


@st.composite
def _span_sets(draw):
    n_allocs = draw(st.integers(0, 3))
    allocs = []
    for index in range(n_allocs):
        grant = draw(_times)
        submitted = draw(st.one_of(st.none(), _times.map(lambda t, g=grant: min(t, g))))
        end = draw(st.one_of(st.none(), _times.map(lambda t, g=grant: g + t)))
        allocs.append(
            AllocSpan(
                pid=0,
                index=index,
                job=f"j{index}",
                nodes=tuple(range(draw(st.integers(0, 3)))),
                start=grant,
                end=end,
                submitted=submitted,
                campaign="c",
            )
        )
    tasks = []
    for task_id in range(draw(st.integers(0, 14))):
        node, nodes = draw(_placements())
        begin = draw(_times)
        length = draw(st.sampled_from([0.0, 0.0, 1.0, 2.5]))
        tasks.append(
            TaskSpan(
                pid=0,
                task_id=task_id,
                name=f"t{task_id}",
                node=node,
                nodes=nodes,
                attempt=draw(st.integers(1, 3)),
                start=begin,
                end=begin + length,
                outcome=draw(st.sampled_from(["done", "failed", "killed", None])),
                # Index 5 never exists: the attempt's allocation is missing.
                alloc=draw(st.sampled_from([None, 0, 1, 2, 5])),
                group=draw(st.sampled_from(["g", None])),
                campaign="c",
            )
        )
    times = [t.start for t in tasks] + [a.submitted or a.start for a in allocs]
    window_start = min(times, default=0.0) - draw(st.sampled_from([0.0, 1.0]))
    ends = [t.end for t in tasks] + [a.end or a.start for a in allocs]
    window_end = max(ends, default=window_start)
    return tasks, allocs, (window_start, window_end)


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_span_sets())
def test_indexed_walk_matches_linear_scan(spans):
    tasks, allocs, window = spans
    by_node = _busy_intervals_by_node(tasks)
    slack = _slack_by_task(tasks, window[1], by_node)
    indexed = report_mod._critical_path(tasks, allocs, window, slack, by_node)
    assert indexed == _linear_critical_path(tasks, allocs, window, slack)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_span_sets())
def test_full_report_matches_linear_scan(spans):
    tasks, allocs, window = spans
    campaign = CampaignSpan(pid=0, name="c", start=window[0], end=window[1])
    trace = SpanTrace(campaigns=[campaign], allocs=allocs, tasks=tasks)

    def build():
        return [report_for_campaign(trace, campaign)]

    assert _serialize(build()) == _serialize(_oracle_reports(build))


def test_walk_visits_zero_length_ties_in_trace_order():
    """Three zero-length attempts at one instant on one node: the walk
    from the last-ending attempt takes them in trace order."""
    tasks = [
        TaskSpan(pid=0, task_id=i, name=f"t{i}", node=0, nodes=(), attempt=1,
                 start=5.0, end=5.0, outcome="done")
        for i in range(3)
    ]
    tasks.append(TaskSpan(pid=0, task_id=3, name="t3", node=0, nodes=(), attempt=1,
                          start=5.0, end=9.0, outcome="done"))
    by_node = _busy_intervals_by_node(tasks)
    slack = _slack_by_task(tasks, 9.0, by_node)
    path = report_mod._critical_path(tasks, [], (0.0, 9.0), slack, by_node)
    assert [el["label"].split()[0] for el in path] == ["t2", "t1", "t0", "t3"]
    assert path == _linear_critical_path(tasks, [], (0.0, 9.0), slack)


def test_walk_keeps_unvisited_candidates_of_nodes_not_taken():
    """A multi-node step looks up every node but takes one attempt; the
    skipped-over entries of the other nodes' indexes must still lead to
    their own candidates later (t1 is found on node 1 while t3 wins)."""
    spec = [
        ("t0", 0, (0, 1, 2), 3.0, 3.0),
        ("t1", 1, (1,), 3.0, 3.0),
        ("t2", 2, (), 2.0, 3.0),
        ("t3", 2, (2, 1, 0), 3.0, 3.0),
    ]
    tasks = [
        TaskSpan(pid=0, task_id=i, name=name, node=node, nodes=nodes, attempt=1,
                 start=begin, end=end, outcome="done")
        for i, (name, node, nodes, begin, end) in enumerate(spec)
    ]
    by_node = _busy_intervals_by_node(tasks)
    slack = _slack_by_task(tasks, 3.0, by_node)
    path = report_mod._critical_path(tasks, [], (0.0, 3.0), slack, by_node)
    assert [el["label"].split()[0] for el in path] == ["t2", "t3", "t1", "t0"]
    assert path == _linear_critical_path(tasks, [], (0.0, 3.0), slack)


# -- committed traces ----------------------------------------------------------


@pytest.mark.parametrize(
    "trace_path", COMMITTED_TRACES, ids=[p.stem for p in COMMITTED_TRACES]
)
def test_committed_trace_report_matches_linear_scan(trace_path):
    events = events_from_trace(trace_path)
    indexed = analyze_events(events)
    assert _serialize(indexed) == _serialize(_oracle_reports(lambda: analyze_events(events)))
    committed = trace_path.with_name(trace_path.name.replace(".trace.json", ".report.json"))
    if committed.exists():
        assert _serialize(indexed) == _serialize(load_reports(committed))
