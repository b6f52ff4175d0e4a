"""Merge dedup policies and clean-filter unit tests."""

import numpy as np
import pytest

from repro.core.checkpoint import (
    CheckpointReader,
    resume_model,
    write_model_checkpoint,
)
from repro.gaussians import GaussianModel, layout
from repro.recon import (
    CleanConfig,
    clean_checkpoint,
    clean_mask,
    merge_patch_checkpoints,
    partition_scene,
)
from repro.recon.partition import ScenePatch


def toy_model(n=60, seed=2, spread=4.0):
    rng = np.random.default_rng(seed)
    params = np.zeros((n, layout.PARAM_DIM), dtype=np.float64)
    params[:, layout.MEAN_SLICE] = rng.normal(size=(n, 3)) * spread
    params[:, layout.SCALE_SLICE] = np.log(0.05)
    params[:, 6] = 1.0  # identity quats
    params[:, layout.OPACITY_SLICE] = 2.0  # opaque
    params[:, layout.SH_SLICE] = rng.normal(size=(n, layout.SH_DIM)) * 0.1
    return GaussianModel(params)


def clean_model(model, config=CleanConfig()):
    """Filtered copy of an in-memory model."""
    keep, report = clean_mask(
        model.means, model.log_scales, model.params[:, layout.OPACITY_SLICE],
        config,
    )
    return GaussianModel(model.params[keep].copy()), report


def patch_checkpoints(model, patches, tmp_path, mutate=None):
    """Write one params-only checkpoint per patch, as a trained job
    would (rows = the buffered subset, optionally perturbed)."""
    paths = {}
    for p in patches:
        if p.num_buffered == 0:
            continue
        params = model.params[p.buffered_ids].copy()
        if mutate is not None:
            params = mutate(p, params)
        path = str(tmp_path / f"patch{p.index}.npz")
        write_model_checkpoint(
            path, [("", None, params)],
            system="gpu_only", iteration=5, num_gaussians=params.shape[0],
        )
        paths[p.index] = path
    return paths


def fake_cameras():
    from repro.cameras import Camera

    return [
        Camera.look_at(
            np.array([0.0, 0.0, 20.0]), np.zeros(3), up=(0.0, 1.0, 0.0),
            width=24, height=18, fov_x_deg=70.0,
        )
    ]


@pytest.fixture()
def partitioned(tmp_path):
    model = toy_model()
    patches = partition_scene(model, fake_cameras(), 4, buffer=1.0)
    return model, patches


class TestMergeIdentity:
    def test_exactly_once_and_values_preserved(self, tmp_path, partitioned):
        model, patches = partitioned
        paths = patch_checkpoints(model, patches, tmp_path)
        report = merge_patch_checkpoints(
            patches, paths, str(tmp_path / "merged.npz")
        )
        assert report.policy == "identity"
        assert report.num_gaussians == model.num_gaussians
        assert sum(report.kept) == model.num_gaussians
        merged = resume_model(report.path)
        # merged rows are a permutation of the originals: sort by the
        # mean triplet and compare full parameter rows
        def ordered(params):
            return params[np.lexsort(params[:, :3].T)]

        np.testing.assert_allclose(
            ordered(merged.params.astype(np.float64)),
            ordered(model.params),
            rtol=0, atol=1e-6,
        )

    def test_buffer_rows_dropped(self, tmp_path, partitioned):
        model, patches = partitioned
        paths = patch_checkpoints(model, patches, tmp_path)
        report = merge_patch_checkpoints(
            patches, paths, str(tmp_path / "merged.npz"), policy="identity"
        )
        for p, dropped in zip(patches, report.dropped):
            assert dropped == p.num_buffered - p.num_core

    def test_row_mismatch_rejected(self, tmp_path, partitioned):
        model, patches = partitioned

        def densify(p, params):
            return np.vstack([params, params[:1]])

        paths = patch_checkpoints(model, patches, tmp_path, mutate=densify)
        with pytest.raises(ValueError, match="spatial"):
            merge_patch_checkpoints(
                patches, paths, str(tmp_path / "m.npz"), policy="identity"
            )


class TestMergeSpatial:
    def test_exactly_once_by_position(self, tmp_path, partitioned):
        model, patches = partitioned
        paths = patch_checkpoints(model, patches, tmp_path)
        report = merge_patch_checkpoints(
            patches, paths, str(tmp_path / "merged.npz"), policy="spatial"
        )
        assert report.policy == "spatial"
        assert report.num_gaussians == model.num_gaussians

    def test_auto_falls_back_when_densified(self, tmp_path, partitioned):
        model, patches = partitioned

        def densify(p, params):
            # clone the patch's first *core-interior* row; position is
            # unchanged so spatial ownership stays in this patch
            return np.vstack([params, params[:1]])

        paths = patch_checkpoints(model, patches, tmp_path, mutate=densify)
        report = merge_patch_checkpoints(
            patches, paths, str(tmp_path / "merged.npz"), policy="auto"
        )
        assert report.policy == "spatial"
        # each clone lands in exactly one core box, never twice
        assert report.num_gaussians <= model.num_gaussians + len(
            [p for p in patches if p.num_buffered]
        )
        with CheckpointReader(report.path) as reader:
            rows = np.concatenate(
                [b.rows for b in reader.blocks() if b.rows is not None]
            )
        np.testing.assert_array_equal(
            np.sort(rows), np.arange(report.num_gaussians)
        )

    def test_missing_checkpoint_rejected(self, partitioned, tmp_path):
        model, patches = partitioned
        with pytest.raises(ValueError, match="no checkpoint"):
            merge_patch_checkpoints(patches, {}, str(tmp_path / "m.npz"))


class TestCleanFilters:
    def test_each_filter_drops_its_target(self):
        model = toy_model(n=80, spread=1.0)
        params = model.params
        # a dense blob, plus three planted artifacts
        params[0, layout.SCALE_SLICE] = np.log(50.0)  # oversized
        params[1, layout.MEAN_SLICE] = [500.0, 500.0, 500.0]  # isolated
        params[2, layout.OPACITY_SLICE] = -12.0  # transparent
        cleaned, report = clean_model(GaussianModel(params))
        assert report.input_rows == 80
        assert report.dropped_oversized == 1
        assert report.dropped_isolated == 1
        assert report.dropped_transparent == 1
        assert report.kept_rows == cleaned.num_gaussians == 77

    def test_absolute_thresholds(self):
        model = toy_model(n=40, spread=1.0)
        cfg = CleanConfig(
            max_extent=1e9, neighbor_radius=1e9, min_opacity=0.0
        )
        cleaned, report = clean_model(model, cfg)
        assert report.kept_rows == 40
        assert cleaned.num_gaussians == 40

    def test_isolation_filter_disabled(self):
        model = toy_model(n=40, spread=1.0)
        model.params[1, layout.MEAN_SLICE] = [900.0, 0.0, 0.0]
        _, report = clean_model(model, CleanConfig(min_neighbors=0))
        assert report.dropped_isolated == 0

    def test_clean_checkpoint_streams_blocks(self, tmp_path, partitioned):
        model, patches = partitioned
        model.params[5, layout.OPACITY_SLICE] = -12.0
        paths = patch_checkpoints(model, patches, tmp_path)
        merge = merge_patch_checkpoints(
            patches, paths, str(tmp_path / "merged.npz")
        )
        report = clean_checkpoint(
            merge.path, str(tmp_path / "final.npz"),
            CleanConfig(max_extent=1e9, neighbor_radius=1e9),
        )
        assert report.input_rows == model.num_gaussians
        assert report.dropped_transparent == 1
        final = resume_model(str(tmp_path / "final.npz"))
        assert final.num_gaussians == model.num_gaussians - 1

    def test_empty_model_roundtrip(self, tmp_path):
        path = str(tmp_path / "empty.npz")
        write_model_checkpoint(
            path,
            [("", None, np.empty((0, layout.PARAM_DIM), np.float32))],
            num_gaussians=0,
        )
        report = clean_checkpoint(path, str(tmp_path / "clean.npz"))
        assert report.kept_rows == 0
        assert resume_model(str(tmp_path / "clean.npz")).num_gaussians == 0


class TestWriteModelCheckpoint:
    def test_block_coverage_validated(self, tmp_path):
        with pytest.raises(ValueError, match="cover"):
            write_model_checkpoint(
                str(tmp_path / "x.npz"),
                [("", None, np.zeros((3, layout.PARAM_DIM)))],
                num_gaussians=5,
            )

    def test_multi_block_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        full = rng.normal(size=(10, layout.PARAM_DIM))
        rows_a = np.array([0, 2, 4, 6, 8], dtype=np.int64)
        rows_b = np.array([1, 3, 5, 7, 9], dtype=np.int64)
        path = str(tmp_path / "m.npz")
        write_model_checkpoint(
            path,
            [("even", rows_a, full[rows_a]), ("odd", rows_b, full[rows_b])],
            num_gaussians=10,
        )
        np.testing.assert_allclose(
            resume_model(path).params, full, rtol=0, atol=0
        )


def test_spatial_patch_dedup_is_exclusive(partitioned):
    """The spatial rule itself: each mean claimed by exactly one core."""
    model, patches = partitioned
    claims = np.zeros(model.num_gaussians, dtype=int)
    for p in patches:
        claims += p.patch.contains(model.means)
    assert np.all(claims == 1)


def test_scene_patch_accessors(partitioned):
    _, patches = partitioned
    for p in patches:
        assert isinstance(p, ScenePatch)
        assert p.num_core == p.core_ids.size
        assert p.num_buffered == p.buffered_ids.size
