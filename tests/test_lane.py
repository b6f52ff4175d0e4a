"""``repro.pool.Lane``: the one background-lane primitive.

FIFO order, error propagation through the ticket and through
``drain()`` (first failure in submission order), a ``close()`` that
waits for the running task, the tracer label, and the ``lane:{name}``
fault point indexed by the task's ordinal.
"""

import contextlib
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
    lane = Lane("x")
    yield lane
    with contextlib.suppress(Boom):  # a failure no test drained
        lane.close()


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


def test_drain_raises_the_first_failure_and_the_lane_stays_usable(lane):
    first, second = Boom("first"), Boom("second")
    lane.submit(lambda: None)
    lane.submit(_raise, first)
    lane.submit(lambda: None)
    lane.submit(_raise, second)
    with pytest.raises(Boom) as info:
        lane.drain()
    assert info.value is first
    lane.drain()  # the failures were reported once
    assert lane.submit(lambda: "after").result() == "after"
    lane.drain()


def test_close_is_idempotent_and_waits_for_the_running_task():
    lane = Lane("x")
    started, release = threading.Event(), threading.Event()
    finished = []

    def blocked():
        started.set()
        assert release.wait(10)
        finished.append(True)

    lane.submit(blocked)
    assert started.wait(5)
    closer = threading.Thread(target=lane.close)
    closer.start()
    closer.join(0.2)
    assert closer.is_alive() and not finished  # close waits on the task
    release.set()
    closer.join(10)
    assert not closer.is_alive()
    assert finished == [True]
    lane.close()  # idempotent


def test_close_reraises_an_unreported_failure():
    lane = Lane("x")
    lane.submit(_raise, Boom("late"))
    with pytest.raises(Boom):
        lane.close()
    lane.close()


def test_the_tracer_lane_is_labelled():
    tracer = trace.install()
    try:
        lane = Lane("x")
        tid = lane.submit(threading.get_ident).result()
        lane.close()
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
        with pytest.raises(InjectedFaultError):
            lane.drain()
