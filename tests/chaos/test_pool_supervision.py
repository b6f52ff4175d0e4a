"""Supervised PersistentPool: lifecycle, worker death, deadlines, respawn,
teardown.

A SIGKILLed pool worker loses its in-flight task; the stdlib ``map``
would block forever waiting for a result that can never arrive. The
supervised pool must instead detect the death, tear the pool down,
respawn, and re-run the map — and because every task routed through it
is a pure function of its payload, the retried map's results must be
exactly what the fault-free run would have returned.
"""

import time

import numpy as np
import pytest

from repro.faults import Fault, FaultPlan, active_plan
from repro.pool import PersistentPool, PoolFaultError


def _square(x):
    return x * x


def _boom(_):
    raise ValueError("application error")


def _sleepy(x):
    time.sleep(x)
    return x


def kill_plan(tmp_path, index=1, times=1, **kwargs):
    return FaultPlan(
        token_dir=str(tmp_path / "tokens"),
        faults=(
            Fault(point="pool:task", action="kill", index=index,
                  times=times, **kwargs),
        ),
    )


class TestPersistentPool:
    def test_lazy_start_reuse_and_close(self):
        pool = PersistentPool(2)
        assert not pool.started
        assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert pool.started
        assert pool.map(_square, [4]) == [16]  # same workers, no respawn
        pool.close()
        assert not pool.started
        pool.close()  # idempotent

    def test_map_after_close_restarts(self):
        pool = PersistentPool(2)
        pool.map(_square, [2])
        pool.close()
        assert pool.map(_square, [3]) == [9]
        pool.close()

    def test_failed_map_tears_down(self):
        pool = PersistentPool(2)
        with pytest.raises(ValueError):
            pool.map(_boom, [1])
        assert not pool.started  # no wedged workers left behind
        assert pool.map(_square, [5]) == [25]  # and it recovers
        pool.close()

    def test_context_manager(self):
        with PersistentPool(2) as pool:
            assert pool.map(_square, [6]) == [36]
        assert not pool.started

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            PersistentPool(0)


class TestWorkerDeath:
    def test_kill_is_absorbed_and_result_exact(self, tmp_path):
        pool = PersistentPool(2)
        try:
            with active_plan(kill_plan(tmp_path)):
                result = pool.map(_square, [1, 2, 3, 4])
            assert result == [1, 4, 9, 16]
            assert pool.worker_deaths >= 1
            assert pool.respawns >= 1
            assert pool.retries >= 1
        finally:
            pool.close()

    def test_retry_budget_exhaustion_raises_pool_fault(self, tmp_path):
        # the kill re-fires on every attempt: 1 + max_retries deaths,
        # then a clean PoolFaultError instead of a deadlock
        pool = PersistentPool(2, max_retries=1, retry_backoff_s=0.01)
        try:
            plan = kill_plan(tmp_path, index=0, times=10)
            with active_plan(plan):
                with pytest.raises(PoolFaultError, match="2 attempt"):
                    pool.map(_square, [1, 2, 3])
            assert pool.worker_deaths >= 2
            # a failed map never leaves wedged workers behind
            assert not pool.started
            assert pool.map(_square, [5]) == [25]
        finally:
            pool.close()

    def test_zero_retries_fails_fast(self, tmp_path):
        pool = PersistentPool(2, max_retries=0)
        try:
            with active_plan(kill_plan(tmp_path, index=0)):
                with pytest.raises(PoolFaultError):
                    pool.map(_square, [1, 2])
        finally:
            pool.close()

    def test_application_exception_not_retried(self, tmp_path):
        # app errors re-raise as themselves, immediately: retrying a
        # deterministic failure would just fail slower
        pool = PersistentPool(2)
        try:
            with pytest.raises(ValueError, match="application error"):
                pool.map(_boom, [1, 2])
            assert pool.retries == 0
            assert not pool.started
        finally:
            pool.close()


class TestDeadline:
    def test_deadline_triggers_retry_then_fault(self):
        pool = PersistentPool(2, task_timeout=0.2, max_retries=0)
        try:
            with pytest.raises(PoolFaultError, match="deadline"):
                pool.map(_sleepy, [5.0, 5.0])
            assert pool.deadline_hits == 1
        finally:
            pool.close()

    def test_fast_tasks_pass_under_deadline(self):
        pool = PersistentPool(2, task_timeout=30.0)
        try:
            assert pool.map(_sleepy, [0.0, 0.0]) == [0.0, 0.0]
            assert pool.deadline_hits == 0
        finally:
            pool.close()

    def test_per_call_override(self):
        pool = PersistentPool(2)  # no default deadline
        try:
            with pytest.raises(PoolFaultError):
                pool.map(_sleepy, [5.0], timeout=0.2, retries=0)
        finally:
            pool.close()


class TestTeardown:
    def test_close_after_worker_kill_is_bounded(self, tmp_path):
        # close() must come back promptly even when the pool machinery
        # is wedged by a SIGKILLed worker
        pool = PersistentPool(2, max_retries=0)
        try:
            with active_plan(kill_plan(tmp_path, index=0)):
                with pytest.raises(PoolFaultError):
                    pool.map(_square, [1, 2])
        finally:
            t0 = time.monotonic()
            pool.close(join_timeout=5.0)
            pool.close(join_timeout=5.0)  # idempotent
            assert time.monotonic() - t0 < 12.0
        assert not pool.started

    def test_fault_stats_keep_the_kill(self, tmp_path):
        pool = PersistentPool(2)
        try:
            with active_plan(kill_plan(tmp_path)):
                pool.map(_square, [1, 2, 3])
            stats = pool.fault_stats()
            assert stats["worker_deaths"] >= 1
            assert stats["respawns"] >= 1
        finally:
            pool.close()
        assert pool.fault_stats() == stats  # counters outlive the workers


class TestFaultStats:
    """``PersistentPool.fault_stats`` counts supervision events only: a
    pool that lost no worker and hit no deadline reads zero on all four
    counters, whatever its maps returned or raised."""

    ZERO = {"worker_deaths": 0, "respawns": 0, "retries": 0, "deadline_hits": 0}

    def test_fresh_pool_reads_zero(self):
        pool = PersistentPool(2)
        assert pool.fault_stats() == self.ZERO
        assert not pool.started  # reading the counters starts no worker

    def test_clean_maps_read_zero(self):
        with PersistentPool(2) as pool:
            assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]
            assert pool.map(_square, [4]) == [16]
            assert pool.fault_stats() == self.ZERO

    def test_application_error_reads_zero(self):
        pool = PersistentPool(2)
        try:
            with pytest.raises(ValueError, match="application error"):
                pool.map(_boom, [1, 2])
            assert pool.fault_stats() == self.ZERO
        finally:
            pool.close()


class TestPlanTransport:
    def test_plan_reaches_spawned_workers_via_payloads(self, tmp_path):
        # plans ride the task pickles, not inherited globals: a plan
        # installed *after* the pool's workers spawned still governs them
        pool = PersistentPool(2)
        try:
            assert pool.map(_square, [7]) == [49]  # workers are up
            with active_plan(kill_plan(tmp_path, index=0)):
                assert pool.map(_square, [1, 2]) == [1, 4]
            assert pool.worker_deaths >= 1
            # and the plan does not leak into later, unplanned maps
            assert pool.map(_square, [8]) == [64]
            assert pool.worker_deaths == 1
        finally:
            pool.close()

    def test_results_bit_identical_with_and_without_kill(self, tmp_path):
        data = list(np.random.default_rng(0).normal(size=8))
        pool = PersistentPool(2)
        try:
            clean = pool.map(_square, data)
            with active_plan(kill_plan(tmp_path, index=3)):
                faulted = pool.map(_square, data)
            assert clean == faulted  # float-exact: same pure function
        finally:
            pool.close()
