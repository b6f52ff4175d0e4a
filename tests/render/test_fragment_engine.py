"""Parity, determinism, and lifecycle tests of the fragment raster engine.

The vectorized engine is the oracle: for every shards x CPUs cell (the
``cpus`` fixture pins ``repro.pool.usable_cpus``, so the shards run inline
or on that many block threads on any machine) the fragment engine must
reproduce the image, the final transmittance, and
all five gradient arrays to ``atol=1e-9`` (the only difference is
compositing-rounding at run boundaries, ~1e-12), repeated runs must be
bit-identical, and the per-source path (``rasterize_fragment_sources``,
the training systems' gather-free entry point) must agree with a joint
render of the union.
"""

import threading

import numpy as np
import pytest

from repro import pool
from repro.render import RasterConfig
from repro.render.engine import (
    rasterize_backward_vectorized,
    rasterize_vectorized,
)
from repro.render.fragment import (
    FragmentRasterResult,
    FragmentSource,
    rasterize_backward_fragment,
    rasterize_fragment,
    rasterize_fragment_sources,
)

from test_engine_equivalence import make_splats

ATOL = 1e-9
SHARD_COUNTS = [1, 2, 4]
CPU_COUNTS = [1, 2, 4]
GRAD_FIELDS = ("means2d", "conics", "colors", "opacities", "mean2d_abs")


@pytest.fixture(params=CPU_COUNTS, ids=lambda c: f"cpus{c}")
def cpus(request, monkeypatch):
    """The process's CPU count, patched: 1 runs every shard inline, more
    run the shards on that many block threads."""
    monkeypatch.setattr(pool, "usable_cpus", lambda: request.param)
    return request.param


@pytest.fixture(scope="module")
def scene_args():
    return make_splats(400, 96, 80, 2)


def _cfg(shards, **kw):
    return RasterConfig(engine="fragment", fragment_shards=shards, **kw)


def _empty_args(width=16, height=12):
    return (
        np.zeros((0, 2)), np.zeros((0, 3)), np.zeros((0, 3)),
        np.zeros(0), np.zeros(0), np.zeros(0), width, height,
    )


class TestForwardParity:
    @pytest.mark.parametrize("shards", SHARD_COUNTS, ids=lambda s: f"s{s}")
    def test_image_and_transmittance(self, scene_args, shards, cpus):
        bg = np.array([0.2, 0.4, 0.6])
        ref = rasterize_vectorized(
            *scene_args, width=96, height=80, background=bg
        )
        out = rasterize_fragment(
            *scene_args, width=96, height=80, background=bg,
            config=_cfg(shards),
        )
        assert isinstance(out, FragmentRasterResult)
        np.testing.assert_allclose(out.image, ref.image, atol=ATOL, rtol=0)
        np.testing.assert_allclose(
            out.final_transmittance, ref.final_transmittance, atol=ATOL,
            rtol=0,
        )

    @pytest.mark.parametrize("cpus", [2], indirect=True)
    def test_empty_scene(self, cpus):
        res = rasterize_fragment(
            *_empty_args(), background=np.array([0.1, 0.2, 0.3]),
            config=_cfg(2),
        )
        np.testing.assert_allclose(res.image[:, :, 0], 0.1)
        np.testing.assert_allclose(res.final_transmittance, 1.0)

    def test_gradcheck_config(self, scene_args):
        """alpha_min=0 (the smooth gradcheck configuration) holds too."""
        ref = rasterize_vectorized(
            *scene_args, width=96, height=80,
            config=RasterConfig(alpha_min=0.0),
        )
        out = rasterize_fragment(
            *scene_args, width=96, height=80,
            config=_cfg(3, alpha_min=0.0),
        )
        np.testing.assert_allclose(out.image, ref.image, atol=ATOL, rtol=0)

    @pytest.mark.parametrize("cpus", [4], indirect=True)
    def test_shards_default_to_one(self, scene_args, cpus):
        """The default is one slab, whatever the CPU count: shard counts
        differ in the last bits, so the count never follows the machine."""
        ref = rasterize_fragment(
            *scene_args, width=96, height=80, config=_cfg(1)
        )
        out = rasterize_fragment(
            *scene_args, width=96, height=80,
            config=RasterConfig(engine="fragment"),
        )
        assert out.num_runs == 1
        assert out.image.tobytes() == ref.image.tobytes()


class TestBackwardParity:
    @pytest.mark.parametrize("shards", SHARD_COUNTS, ids=lambda s: f"s{s}")
    def test_all_gradient_arrays(self, scene_args, shards, cpus):
        bg = np.array([0.3, 0.1, 0.5])
        grad_image = np.random.default_rng(100).normal(size=(80, 96, 3))
        cfg = _cfg(shards)
        ref_fwd = rasterize_vectorized(
            *scene_args, width=96, height=80, background=bg
        )
        frag_fwd = rasterize_fragment(
            *scene_args, width=96, height=80, background=bg, config=cfg
        )
        ref = rasterize_backward_vectorized(
            scene_args[0], scene_args[1], scene_args[2], scene_args[3],
            ref_fwd, grad_image, background=bg,
        )
        out = rasterize_backward_fragment(
            scene_args[0], scene_args[1], scene_args[2], scene_args[3],
            frag_fwd, grad_image, background=bg, config=cfg,
        )
        for field in GRAD_FIELDS:
            np.testing.assert_allclose(
                getattr(out, field), getattr(ref, field), atol=ATOL, rtol=0,
                err_msg=field,
            )

    @pytest.mark.parametrize("cpus", [2], indirect=True)
    def test_empty_scene_grads(self, cpus):
        cfg = _cfg(2)
        res = rasterize_fragment(*_empty_args(8, 8), config=cfg)
        grads = rasterize_backward_fragment(
            np.zeros((0, 2)), np.zeros((0, 3)), np.zeros((0, 3)),
            np.zeros(0), res, np.ones((8, 8, 3)), config=cfg,
        )
        assert grads.means2d.shape == (0, 2)

    def test_rejects_foreign_forward_result(self, scene_args):
        """The backward needs the fragment stash, not just any result."""
        vec = rasterize_vectorized(*scene_args, width=96, height=80)
        with pytest.raises(TypeError, match="FragmentRasterResult"):
            rasterize_backward_fragment(
                scene_args[0], scene_args[1], scene_args[2], scene_args[3],
                vec, np.ones((80, 96, 3)), config=_cfg(2),
            )


class TestDeterminism:
    def test_repeated_runs_bit_identical(self, scene_args, cpus):
        cfg = _cfg(3)
        grad_image = np.random.default_rng(5).normal(size=(80, 96, 3))
        runs = []
        for _ in range(2):
            fwd = rasterize_fragment(
                *scene_args, width=96, height=80, config=cfg
            )
            bwd = rasterize_backward_fragment(
                scene_args[0], scene_args[1], scene_args[2], scene_args[3],
                fwd, grad_image, config=cfg,
            )
            runs.append((fwd, bwd))
        (f_a, b_a), (f_b, b_b) = runs
        np.testing.assert_array_equal(f_a.image, f_b.image)
        np.testing.assert_array_equal(
            f_a.final_transmittance, f_b.final_transmittance
        )
        for field in GRAD_FIELDS:
            np.testing.assert_array_equal(
                getattr(b_a, field), getattr(b_b, field), err_msg=field
            )

    def test_cpu_count_invariant(self, scene_args, monkeypatch):
        """At a fixed shard layout the fan-out width never shows: the
        shard slices are deterministic and the merge reduces in a fixed
        order, so 1/2/4 CPUs are bit-identical."""
        grad_image = np.random.default_rng(6).normal(size=(80, 96, 3))
        cfg = _cfg(4)
        results = []
        for count in CPU_COUNTS:
            monkeypatch.setattr(pool, "usable_cpus", lambda c=count: c)
            fwd = rasterize_fragment(
                *scene_args, width=96, height=80, config=cfg
            )
            bwd = rasterize_backward_fragment(
                scene_args[0], scene_args[1], scene_args[2], scene_args[3],
                fwd, grad_image, config=cfg,
            )
            results.append((fwd, bwd))
        base_fwd, base_bwd = results[0]
        for fwd, bwd in results[1:]:
            np.testing.assert_array_equal(fwd.image, base_fwd.image)
            np.testing.assert_array_equal(
                fwd.final_transmittance, base_fwd.final_transmittance
            )
            for field in GRAD_FIELDS:
                np.testing.assert_array_equal(
                    getattr(bwd, field), getattr(base_bwd, field),
                    err_msg=field,
                )


    def test_slices_never_map(self, scene_args, monkeypatch):
        """A slice holds a block thread, so it must not wait on the block
        threads itself: nothing a slice calls maps."""
        real = pool.map_blocks

        def guarded(fn, tasks):
            name = threading.current_thread().name
            assert not name.startswith("repro-block"), "a slice mapped"
            return real(fn, tasks)

        monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
        monkeypatch.setattr(pool, "map_blocks", guarded)
        cfg = _cfg(4)
        fwd = rasterize_fragment(*scene_args, width=96, height=80, config=cfg)
        rasterize_backward_fragment(
            scene_args[0], scene_args[1], scene_args[2], scene_args[3],
            fwd, np.ones((80, 96, 3)), config=cfg,
        )


class TestSourcesPath:
    """rasterize_fragment_sources: the per-shard entry point the sharded
    training systems and the serving farm feed (no global gather)."""

    def _sources(self, scene_args, cuts):
        means2d, conics, colors, opacities, depths, radii = scene_args
        bounds = [0, *cuts, means2d.shape[0]]
        return [
            FragmentSource(
                means2d=means2d[a:b], conics=conics[a:b],
                colors=colors[a:b], opacities=opacities[a:b],
                depths=depths[a:b], radii=radii[a:b],
            )
            for a, b in zip(bounds, bounds[1:])
        ]

    @pytest.mark.parametrize("cpus", [1, 2], indirect=True)
    def test_composite_matches_joint_render(self, scene_args, cpus):
        bg = np.array([0.15, 0.25, 0.35])
        ref = rasterize_vectorized(
            *scene_args, width=96, height=80, background=bg
        )
        sources = self._sources(scene_args, cuts=(130, 260))
        out = rasterize_fragment_sources(
            sources, 96, 80, background=bg,
            config=RasterConfig(engine="fragment"),
        )
        np.testing.assert_allclose(out.image, ref.image, atol=ATOL, rtol=0)
        np.testing.assert_allclose(
            out.final_transmittance, ref.final_transmittance, atol=ATOL,
            rtol=0,
        )
        # shard k owns the concatenated row range [offsets[k], offsets[k+1])
        np.testing.assert_array_equal(out.offsets, [0, 130, 260, 400])

    def test_backward_grads_in_concatenated_row_space(self, scene_args):
        """Contiguous cuts concatenate back to the original row order, so
        the sources-path gradients must equal the joint gradients."""
        bg = np.array([0.3, 0.1, 0.5])
        grad_image = np.random.default_rng(42).normal(size=(80, 96, 3))
        cfg = RasterConfig(engine="fragment")
        ref_fwd = rasterize_vectorized(
            *scene_args, width=96, height=80, background=bg
        )
        ref = rasterize_backward_vectorized(
            scene_args[0], scene_args[1], scene_args[2], scene_args[3],
            ref_fwd, grad_image, background=bg,
        )
        frag_fwd = rasterize_fragment_sources(
            self._sources(scene_args, cuts=(100, 250)), 96, 80,
            background=bg, config=cfg,
        )
        out = rasterize_backward_fragment(
            scene_args[0], scene_args[1], scene_args[2], scene_args[3],
            frag_fwd, grad_image, background=bg, config=cfg,
        )
        for field in GRAD_FIELDS:
            np.testing.assert_allclose(
                getattr(out, field), getattr(ref, field), atol=ATOL, rtol=0,
                err_msg=field,
            )

    def test_depth_interleaved_sources(self, scene_args):
        """Shards cut across depth (interleaved), not along it — the run
        decomposition must still composite exactly."""
        means2d, conics, colors, opacities, depths, radii = scene_args
        ref = rasterize_vectorized(*scene_args, width=96, height=80)
        # round-robin split: every shard spans the full depth range
        idx = [np.arange(k, means2d.shape[0], 3) for k in range(3)]
        sources = [
            FragmentSource(
                means2d=means2d[i], conics=conics[i], colors=colors[i],
                opacities=opacities[i], depths=depths[i], radii=radii[i],
            )
            for i in idx
        ]
        out = rasterize_fragment_sources(
            sources, 96, 80, config=RasterConfig(engine="fragment")
        )
        np.testing.assert_allclose(out.image, ref.image, atol=ATOL, rtol=0)


class TestFloat32FastPath:
    def test_forward_close_to_float64(self, scene_args):
        ref = rasterize_vectorized(*scene_args, width=96, height=80)
        out = rasterize_fragment(
            *scene_args, width=96, height=80,
            config=_cfg(2, dtype="float32"),
        )
        assert out.image.dtype == np.float32
        np.testing.assert_allclose(out.image, ref.image, atol=2e-3, rtol=0)

    @pytest.mark.parametrize("shards", [0, -1])
    def test_invalid_shards_rejected(self, shards):
        with pytest.raises(ValueError, match="fragment_shards"):
            RasterConfig(fragment_shards=shards)
