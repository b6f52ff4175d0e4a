"""The serve tick under faults and under concurrent callers.

``render_frames`` visits the ``serve:frame`` fault point once per frame
it composites, with the frame's index in the batch. A frame that raises
fails its batch, and ``RenderService`` retries the batch frame by frame,
so one bad frame answers ``error`` while the others are served exactly
as an unfaulted tick serves them. ``RenderService.submit`` may run on any
thread while one thread ticks: every request is answered exactly once.
"""

import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro import faults
from repro.cameras import Camera
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.serve import RenderRequest, RenderService
from repro.serve.cache import frame_key


@pytest.fixture(scope="module")
def model():
    return build_scene(SyntheticSceneConfig(
        num_points=220, width=36, height=28, num_train_cameras=3,
        num_test_cameras=1, altitude=12.0, seed=7,
    )).oracle


def poses(count):
    return [
        Camera.look_at(
            [8.0 * np.cos(a), 8.0 * np.sin(a), 9.0], [0.0, 0.0, 0.0],
            width=36, height=28,
        )
        for a in np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    ]


def tick_once(model, requests, plan=None):
    """A fresh service's one tick over ``requests``; ``(service,
    responses)``."""
    service = RenderService(model, cache_bytes=1 << 24)
    for request in requests:
        service.submit(request)
    if plan is None:
        return service, service.tick()
    with faults.active_plan(plan):
        return service, service.tick()


class TestFaultedFrame:
    def test_frame_1_of_3_fails_alone(self, model, tmp_path):
        requests = [RenderRequest(camera) for camera in poses(3)]
        # frame 1 raises in the batch; the retry renders each frame alone
        # at index 0, and the fourth index-0 visit (batch frame 0, retry
        # frame 0, retry frame 1) is frame 1's retry, which raises again
        plan = faults.FaultPlan(
            token_dir=str(tmp_path / "tokens"),
            faults=(
                faults.Fault(point="serve:frame", action="raise", index=1),
                faults.Fault(
                    point="serve:frame", action="raise", index=0, after=2
                ),
            ),
        )
        service, got = tick_once(model, requests, plan)
        _, want = tick_once(model, requests)

        assert [r.status for r in got] == ["ok", "error", "ok"]
        assert "InjectedFaultError" in got[1].reason
        assert got[1].image is None
        for i in (0, 2):
            assert got[i].image.tobytes() == want[i].image.tobytes()

        # nothing was cached for the failed key; the others were
        keys = [
            frame_key(r.resolved_camera(), 0, service.model_version)
            for r in requests
        ]
        assert service.cache.get(keys[1]) is None
        assert service.cache.get(keys[0]) is not None
        assert service.cache.get(keys[2]) is not None

        # counters: the failed batch, then each frame culled, gathered
        # and rendered alone
        alone = [tick_once(model, [r])[0].store for r in requests]
        batch = tick_once(model, requests)[0].store
        stats, store = service.stats, service.store
        assert stats.render_errors == 1
        assert stats.frames_rendered == 2
        assert stats.requests == 3 and stats.ticks == 1
        assert stats.cache_misses == 3 and stats.cache_hits == 0
        assert store.rows_projected == batch.rows_projected + sum(
            s.rows_projected for s in alone
        )
        assert store.rows_gathered == batch.rows_gathered + sum(
            s.rows_gathered for s in alone
        )

        # unfaulted, the next tick serves the failed frame as it should
        service.submit(requests[1])
        (again,) = service.tick()
        assert again.status == "ok" and not again.cache_hit
        assert again.image.tobytes() == want[1].image.tobytes()
        service.close()

    def test_point_reports_the_frame_index(self, model, tmp_path):
        """Every composited frame visits the point once, with its index
        in the batch: a delay plan at each index fires once per frame."""
        plan = faults.FaultPlan(
            token_dir=str(tmp_path / "tokens"),
            faults=tuple(
                faults.Fault(
                    point="serve:frame", action="delay", index=i, times=10
                )
                for i in range(3)
            ),
        )
        service, got = tick_once(
            model, [RenderRequest(c) for c in poses(3)], plan
        )
        assert [r.status for r in got] == ["ok"] * 3
        visits = sorted(p.name for p in (tmp_path / "tokens").iterdir())
        assert visits == ["f0.0", "f1.0", "f2.0"]
        service.close()


def test_concurrent_submitters_are_each_answered_once(model):
    """Two threads submit 200 requests each while the main thread ticks,
    with the interpreter switching threads every 10 microseconds: no
    request is lost, none is answered twice."""
    service = RenderService(model, cache_bytes=1 << 24)
    cameras = poses(5)
    batches = [
        [RenderRequest(cameras[i % len(cameras)]) for i in range(200)]
        for _ in range(2)
    ]
    answered: Counter = Counter()
    statuses: Counter = Counter()

    def submit_all(requests):
        for request in requests:
            service.submit(request)

    threads = [
        threading.Thread(target=submit_all, args=(batch,)) for batch in batches
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        deadline = time.monotonic() + 120.0
        for thread in threads:
            thread.start()
        while any(t.is_alive() for t in threads) or len(service._queue):
            for response in service.tick():
                answered[id(response.request)] += 1
                statuses[response.status] += 1
            assert time.monotonic() < deadline, "ticking did not drain"
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
            assert not thread.is_alive()
        for response in service.tick():
            answered[id(response.request)] += 1
            statuses[response.status] += 1
    finally:
        sys.setswitchinterval(interval)
        service.close()
    submitted = {id(r) for batch in batches for r in batch}
    assert set(answered) == submitted
    assert set(answered.values()) == {1}
    assert statuses == Counter(ok=400)
    assert service.stats.requests == 400
