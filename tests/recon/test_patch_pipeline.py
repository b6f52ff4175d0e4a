"""End-to-end patch pipeline: partition -> train -> merge -> clean -> serve."""

import numpy as np
import pytest

from repro.core.checkpoint import resume_model
from repro.core.config import GSScaleConfig
from repro.core.trainer import Trainer
from repro.gaussians import GaussianModel
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.metrics import psnr
from repro.recon import (
    CleanConfig,
    PatchPipelineConfig,
    run_patch_job,
    run_patch_pipeline,
    train_patches,
)
from repro.recon.jobs import build_specs
from repro.recon.partition import partition_scene
from repro.serve import RenderRequest, RenderService

ITERATIONS = 6
TRAIN = GSScaleConfig(system="gpu_only")
# keep-everything thresholds: lets the e2e test assert exactly-once on
# the *final* checkpoint (filter behaviour is covered in test_merge_clean)
KEEP_ALL = CleanConfig(max_extent=1e9, neighbor_radius=1e9, min_opacity=0.0)


@pytest.fixture(scope="module")
def scene():
    return build_scene(
        SyntheticSceneConfig(
            num_points=160,
            width=32,
            height=24,
            num_train_cameras=8,
            num_test_cameras=2,
            seed=3,
        )
    )


@pytest.fixture(scope="module")
def pipeline(scene, tmp_path_factory):
    workdir = tmp_path_factory.mktemp("pipeline")
    result = run_patch_pipeline(
        scene.initial,
        scene.train_cameras,
        scene.train_images,
        str(workdir),
        PatchPipelineConfig(
            num_patches=4,
            iterations=ITERATIONS,
            jobs=2,
            train=TRAIN,
            clean=KEEP_ALL,
        ),
    )
    return result, workdir


@pytest.fixture(scope="module")
def monolithic(scene):
    trainer = Trainer(scene.initial.copy(), TRAIN)
    trainer.train(scene.train_cameras, scene.train_images, ITERATIONS)
    return GaussianModel(np.asarray(trainer.system.store.params).copy())


class TestEndToEnd:
    def test_every_splat_exactly_once(self, scene, pipeline):
        result, _ = pipeline
        assert result.jobs.all_done
        assert result.merge.num_gaussians == scene.initial.num_gaussians
        assert result.clean.kept_rows == scene.initial.num_gaussians
        final = resume_model(result.checkpoint_path)
        assert final.num_gaussians == scene.initial.num_gaussians
        # positions are a permutation of the originals (gpu_only training
        # moves them, but each original splat has exactly one descendant;
        # uniqueness of rows proves no boundary splat was kept twice)
        assert np.unique(final.params, axis=0).shape[0] == final.num_gaussians

    def test_interior_views_match_monolithic(self, scene, pipeline, monolithic):
        result, _ = pipeline
        service = RenderService(resume_model(result.checkpoint_path))
        mono_service = RenderService(monolithic)
        margins = []
        for camera, gt in zip(scene.test_cameras, scene.test_images):
            patch_img = service.render(RenderRequest(camera=camera)).image
            mono_img = mono_service.render(RenderRequest(camera=camera)).image
            margins.append(psnr(patch_img, gt) - psnr(mono_img, gt))
        # patch training sees only local views, so allow a small quality
        # gap — but it must stay within tolerance of the single run
        assert min(margins) > -2.0

    def test_servable_in_memory_and_paged(self, scene, pipeline):
        result, _ = pipeline
        camera = scene.test_cameras[0]
        hot = RenderService.from_checkpoint(result.checkpoint_path)
        paged = RenderService.from_checkpoint(
            result.checkpoint_path,
            host_budget_bytes=1 << 16,
            num_shards=4,
        )
        a = hot.render(RenderRequest(camera=camera)).image
        b = paged.render(RenderRequest(camera=camera)).image
        np.testing.assert_array_equal(a, b)

    def test_peak_host_bytes_below_monolithic(self, pipeline):
        result, _ = pipeline
        assert result.peak_host_bytes < result.monolithic_peak_host_bytes

    def test_rerun_skips_finished_patches(self, scene, pipeline):
        result, workdir = pipeline
        again = run_patch_pipeline(
            scene.initial,
            scene.train_cameras,
            scene.train_images,
            str(workdir),
            PatchPipelineConfig(
                num_patches=4,
                iterations=ITERATIONS,
                jobs=1,
                train=TRAIN,
                clean=KEEP_ALL,
            ),
        )
        statuses = {r.status for r in again.jobs.results}
        assert statuses <= {"skipped", "empty"}
        np.testing.assert_array_equal(
            resume_model(again.checkpoint_path).params,
            resume_model(result.checkpoint_path).params,
        )


class TestResume:
    def one_spec(self, scene, workdir, iterations, checkpoint_every=0):
        patches = partition_scene(scene.initial, scene.train_cameras, 2)
        specs = build_specs(
            patches,
            scene.initial,
            scene.train_cameras,
            scene.train_images,
            TRAIN,
            iterations,
            str(workdir),
            checkpoint_every=checkpoint_every,
        )
        return specs[0]

    def test_killed_job_resumes_bit_exact(self, scene, tmp_path):
        straight = self.one_spec(scene, tmp_path / "a", 8)
        (tmp_path / "a").mkdir()
        assert run_patch_job(straight).status == "trained"

        # "kill" a checkpointing job at iteration 4, then re-run to 8:
        # the last snapshot's own iteration counter is where it restarts
        (tmp_path / "b").mkdir()
        killed = self.one_spec(scene, tmp_path / "b", 4, checkpoint_every=2)
        assert run_patch_job(killed).status == "trained"
        killed.iterations = 8
        resumed = run_patch_job(killed)
        assert resumed.status == "resumed"
        assert resumed.iterations_done == 8

        np.testing.assert_array_equal(
            resume_model(killed.checkpoint_path).params,
            resume_model(straight.checkpoint_path).params,
        )

    def test_finished_job_skipped(self, scene, tmp_path):
        spec = self.one_spec(scene, tmp_path, 3, checkpoint_every=1)
        assert run_patch_job(spec).status == "trained"
        assert run_patch_job(spec).status == "skipped"

    def test_driver_resumes_partial_farm(self, scene, tmp_path):
        patches = partition_scene(scene.initial, scene.train_cameras, 4)
        # pre-train one patch halfway, as if the farm died mid-run
        half = build_specs(
            patches,
            scene.initial,
            scene.train_cameras,
            scene.train_images,
            TRAIN,
            2,
            str(tmp_path),
            checkpoint_every=1,
        )[1]
        run_patch_job(half)

        report = train_patches(
            patches,
            scene.initial,
            scene.train_cameras,
            scene.train_images,
            TRAIN,
            4,
            str(tmp_path),
            jobs=2,
        )
        assert report.all_done
        by_index = {r.index: r.status for r in report.results}
        assert by_index[1] == "resumed"
        assert all(
            s in ("trained", "resumed", "empty") for s in by_index.values()
        )


class TestFailureContainment:
    def test_broken_job_reports_failed(self, scene, tmp_path):
        spec = self.broken_spec(scene, tmp_path)
        result = run_patch_job(spec)
        assert result.status == "failed"
        assert not result.ok
        assert result.error

    def broken_spec(self, scene, tmp_path):
        spec = build_specs(
            partition_scene(scene.initial, scene.train_cameras, 2),
            scene.initial,
            scene.train_cameras,
            scene.train_images,
            TRAIN,
            2,
            str(tmp_path),
        )[0]
        spec.images = [img[:1] for img in spec.images]  # shape mismatch
        return spec

    def test_pipeline_surfaces_failures(self, scene, tmp_path, monkeypatch):
        import repro.recon.jobs as jobs_mod

        original = jobs_mod.build_specs

        def broken_build(*args, **kwargs):
            specs = original(*args, **kwargs)
            for s in specs:
                s.images = [img[:1] for img in s.images]
            return specs

        monkeypatch.setattr(jobs_mod, "build_specs", broken_build)
        with pytest.raises(RuntimeError, match="re-run with workdir"):
            run_patch_pipeline(
                scene.initial,
                scene.train_cameras,
                scene.train_images,
                str(tmp_path),
                PatchPipelineConfig(
                    num_patches=2, iterations=2, jobs=1, train=TRAIN
                ),
            )


def test_tiny_scene_with_empty_patches(scene, tmp_path):
    """More patches than splats: empties flow through the whole pipeline."""
    sub = scene.initial.select(np.arange(5))
    result = run_patch_pipeline(
        sub,
        scene.train_cameras,
        scene.train_images,
        str(tmp_path),
        PatchPipelineConfig(
            num_patches=8, iterations=1, jobs=2, train=TRAIN, clean=KEEP_ALL
        ),
    )
    assert result.merge.num_gaussians == 5
    assert resume_model(result.checkpoint_path).num_gaussians == 5
    assert any(r.status == "empty" for r in result.jobs.results)


def test_validation_errors(scene, tmp_path):
    with pytest.raises(ValueError):
        train_patches(
            partition_scene(scene.initial, scene.train_cameras, 2),
            scene.initial,
            scene.train_cameras,
            scene.train_images,
            TRAIN,
            -1,
            str(tmp_path),
        )
