"""The chaos acceptance gate: one seeded fault plan — a stalled render
thread, a corrupted page, and a torn checkpoint write — against the
three tiers.

(a) sharded out-of-core training, whose ``vectorized`` forward runs its
    tile-row blocks on the block threads (training starts no process, so
    no worker can die), absorbs one block thread stalled mid-render and
    still produces bit-identical parameters; (b) the patch pipeline hit
    by a torn checkpoint write resumes from the rotated last-good
    checkpoint and still converges to the fault-free result; (c) the
    render service under 2x overload answers *every* request — degraded
    or rejected with a reason, never dropped or deadlocked — and its
    store records the quarantined page.
"""

import os
import time

import numpy as np
import pytest

from repro import pool
from repro.core import GSScaleConfig, create_system
from repro.core.checkpoint import resume_model, validate_checkpoint
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.faults import Fault, FaultPlan, FileFault, active_plan
from repro.recon import CleanConfig, PatchPipelineConfig, run_patch_pipeline
from repro.render import RasterConfig, engine
from repro.serve import (
    LODSet,
    RenderRequest,
    RenderService,
    ServeConfig,
)


@pytest.fixture(scope="module")
def scene():
    return build_scene(
        SyntheticSceneConfig(
            num_points=160, width=32, height=24,
            num_train_cameras=8, num_test_cameras=2,
            altitude=12.0, seed=3,
        )
    )


class TestTrainingSurvivesStalledSlice:
    """Gate (a): OoC sharded training, one block thread stalled
    mid-render."""

    STEPS = 4

    @pytest.fixture(scope="class")
    def tall_scene(self):
        """Views four tile rows tall: with 64-cell blocks on 2 CPUs the
        forward cuts them into one block per tile row, on the threads."""
        return build_scene(
            SyntheticSceneConfig(
                num_points=160, width=32, height=64,
                num_train_cameras=8, num_test_cameras=2,
                altitude=12.0, seed=3,
            )
        )

    def _train(self, scene, spill_dir):
        config = GSScaleConfig(
            system="outofcore", num_shards=4, resident_shards=1,
            spill_dir=spill_dir, scene_extent=scene.extent,
            ssim_lambda=0.2, mem_limit=1.0, seed=0,
            raster=RasterConfig(engine="vectorized"),
        )
        system = create_system(scene.initial.copy(), config)
        for i in range(self.STEPS):
            system.step(
                scene.train_cameras[i % 8], scene.train_images[i % 8]
            )
        params = np.asarray(system.materialized_model().params).copy()
        system.finalize()
        return params

    def test_bit_identical_params_after_stall(
        self, tall_scene, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
        monkeypatch.setattr(engine, "BLOCK_CELLS", 64)
        clean = self._train(tall_scene, str(tmp_path / "spill_clean"))
        tokens = tmp_path / "tokens"
        plan = FaultPlan(
            token_dir=str(tokens),
            faults=(
                # the fourth block of the second visit: the view is cut
                # into several blocks, and one of them stalls
                Fault(point="block:forward", action="delay", seconds=0.2,
                      index=3, after=1),
            ),
        )
        with active_plan(plan):
            faulted = self._train(tall_scene, str(tmp_path / "spill_fault"))
        assert (tokens / "f0.1").exists()  # the stall fired
        np.testing.assert_array_equal(clean, faulted)


class TestPipelineSurvivesTornCheckpoint:
    """Gate (b): patch pipeline resumes across a torn checkpoint write."""

    CONFIG = PatchPipelineConfig(
        num_patches=4, iterations=4, jobs=2, checkpoint_every=2,
        train=GSScaleConfig(system="gpu_only"),
        clean=CleanConfig(
            max_extent=1e9, neighbor_radius=1e9, min_opacity=0.0
        ),
    )

    def test_resumes_from_last_good_and_serves(self, scene, tmp_path):
        reference = run_patch_pipeline(
            scene.initial, scene.train_cameras, scene.train_images,
            str(tmp_path / "ref"), self.CONFIG,
        )

        # the second snapshot of patch 1 tears mid-write; the job folds
        # the crash into a failed result and the pipeline raises
        workdir = str(tmp_path / "faulted")
        plan = FaultPlan(
            token_dir=str(tmp_path / "tokens"),
            file_faults=(
                FileFault(match="patch1.npz", kind="torn", after=1, times=1),
            ),
        )
        with active_plan(plan):
            with pytest.raises(RuntimeError, match="patch 1"):
                run_patch_pipeline(
                    scene.initial, scene.train_cameras,
                    scene.train_images, workdir, self.CONFIG,
                )
        torn = os.path.join(workdir, "patch1.npz")
        assert validate_checkpoint(torn) is not None  # detectably torn
        assert validate_checkpoint(torn + ".prev") is None  # last good

        # re-run, fault-free: patch 1 resumes from .prev, the rest skip,
        # and the merged+cleaned result matches the fault-free pipeline
        result = run_patch_pipeline(
            scene.initial, scene.train_cameras, scene.train_images,
            workdir, self.CONFIG,
        )
        assert result.jobs.all_done
        statuses = {r.index: r.status for r in result.jobs.results}
        assert statuses[1] == "resumed"
        np.testing.assert_array_equal(
            resume_model(result.checkpoint_path).params,
            resume_model(reference.checkpoint_path).params,
        )
        service = RenderService.from_checkpoint(result.checkpoint_path)
        response = service.render(
            RenderRequest(camera=scene.test_cameras[0])
        )
        assert response.status == "ok" and response.image is not None


class TestServingAnswersEveryRequest:
    """Gate (c): 2x overload + a corrupt page."""

    def _checkpoint(self, scene, tmp_path):
        from repro.core.checkpoint import save_checkpoint
        from repro.core.trainer import Trainer

        trainer = Trainer(
            scene.initial.copy(), GSScaleConfig(system="gpu_only")
        )
        trainer.train(scene.train_cameras, scene.train_images, 2)
        path = str(tmp_path / "model.npz")
        save_checkpoint(path, trainer.system)
        return path

    def test_overload_degrades_then_rejects_never_drops(
        self, scene, tmp_path
    ):
        ckpt = self._checkpoint(scene, tmp_path)
        model = resume_model(ckpt)
        service = RenderService(
            model,
            lod_set=LODSet.build(model.params),
            serve_config=ServeConfig(
                deadline_s=0.5, max_frames_per_tick=4
            ),
        )
        try:
            # two requests go stale past their deadline...
            for camera in scene.train_cameras[:2]:
                service.submit(RenderRequest(camera=camera))
            time.sleep(0.6)
            # ...then 8 unique fresh frames hit a 4-frame budget (2x)
            for camera in scene.train_cameras:
                service.submit(
                    RenderRequest(camera=camera, width=40, height=30)
                )
            responses = service.tick()

            assert len(responses) == 10  # every request answered
            by_status: dict = {}
            for resp in responses:
                by_status.setdefault(resp.status, []).append(resp)
                assert resp.status in ("ok", "degraded", "rejected", "error")
                if resp.image is None:
                    assert resp.reason  # no frame ⇒ always a reason
            reasons = {r.reason for r in by_status.get("rejected", ())}
            assert "deadline" in reasons and "overload" in reasons
            assert len(by_status.get("degraded", ())) >= 1
            stats = service.stats
            assert stats.deadline_rejects == 2
            assert stats.degraded >= 1 and stats.rejected >= 2
        finally:
            service.close()

    def test_poisoned_page_fails_alone_and_quarantines(
        self, scene, tmp_path
    ):
        from repro.faults import corrupt_file

        ckpt = self._checkpoint(scene, tmp_path)
        page_dir = str(tmp_path / "pages")
        service = RenderService.from_checkpoint(
            ckpt, host_budget_bytes=1 << 14, num_shards=4,
            page_dir=page_dir, codec="float16",
        )
        try:
            pages = sorted(
                f for f in os.listdir(page_dir) if f.endswith(".pagez")
            )
            corrupt_file(
                os.path.join(page_dir, pages[0]), offset=128, length=32
            )
            service.store.shards[0].spill()  # next touch re-reads disk
            first = service.render(
                RenderRequest(camera=scene.train_cameras[0])
            )
            assert first.status == "error"
            assert "Quarantin" in first.reason or "Corrupt" in first.reason
            assert len(service.store.quarantined) == 1
            # the service keeps answering: later requests fail fast on
            # the quarantine record instead of deadlocking or re-reading
            second = service.render(
                RenderRequest(camera=scene.train_cameras[1])
            )
            assert second.status in ("ok", "error")
            assert second.reason or second.image is not None
        finally:
            service.close()
