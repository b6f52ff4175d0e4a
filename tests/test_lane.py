"""``repro.pool.Lane``: the one background-lane primitive.

FIFO order, a task's error kept on its own ticket, a ``drain()`` that
waits out failed tickets too and leaves the lane running, the tracer
label, and the ``lane:{name}`` fault point indexed by the task's
ordinal.
"""

import threading

import pytest

from repro.faults import Fault, FaultPlan, InjectedFaultError, active_plan
from repro.pool import Lane
from repro.telemetry import trace


class Boom(RuntimeError):
    pass


def _raise(exc):
    raise exc


@pytest.fixture
def lane():
    return Lane("x")


def test_tasks_run_in_submission_order(lane):
    seen = []
    tickets = [lane.submit(seen.append, i) for i in range(100)]
    lane.drain()
    assert seen == list(range(100))
    assert all(t.done() for t in tickets)


def test_ticket_returns_the_value_and_reraises_the_task_error(lane):
    assert lane.submit(lambda a, b: a + b, 2, 3).result() == 5
    err = Boom("mine")
    ticket = lane.submit(_raise, err)
    with pytest.raises(Boom) as info:
        ticket.result()
    assert info.value is err


def test_drain_returns_after_a_failed_ticket_and_the_lane_runs_on(lane):
    first, second = Boom("first"), Boom("second")
    tickets = [
        lane.submit(lambda: None),
        lane.submit(_raise, first),
        lane.submit(lambda: None),
        lane.submit(_raise, second),
    ]
    lane.drain()
    assert all(t.done() for t in tickets)
    assert tickets[1].exception() is first
    assert tickets[3].exception() is second
    assert tickets[0].exception() is None and tickets[2].exception() is None
    assert lane.submit(lambda: "after").result() == "after"


def test_the_tracer_lane_is_labelled():
    tracer = trace.install()
    try:
        lane = Lane("x")
        tid = lane.submit(threading.get_ident).result()
        assert tracer.thread_names[tid] == "gsscale-x"
    finally:
        trace.uninstall()


def test_fault_point_is_indexed_by_the_task_ordinal(lane, tmp_path):
    plan = FaultPlan(
        token_dir=str(tmp_path / "tokens"),
        faults=(Fault(point="lane:x", index=2, action="raise"),),
    )
    with active_plan(plan):
        tickets = [lane.submit(lambda i=i: i) for i in range(5)]
        for i, ticket in enumerate(tickets):
            if i == 2:
                with pytest.raises(InjectedFaultError):
                    ticket.result()
            else:
                assert ticket.result() == i
        lane.drain()
