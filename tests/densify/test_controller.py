"""Tests for the densification controller."""

import numpy as np

from repro.densify import DensificationController, DensifyConfig
from repro.gaussians import GaussianModel, layout


def make_model(n=10, scale=0.05, opacity_logit=2.0, seed=0):
    rng = np.random.default_rng(seed)
    params = np.zeros((n, layout.PARAM_DIM))
    params[:, 0:3] = rng.uniform(-1, 1, size=(n, 3))
    params[:, 3:6] = np.log(scale)
    params[:, 6] = 1.0  # identity quat
    params[:, 10] = opacity_logit
    return GaussianModel(params)


def controller(n, **kw):
    cfg_args = dict(
        interval=10, start_iteration=10, stop_iteration=100,
        grad_threshold=0.5, percent_dense=0.1,
    )
    cfg_args.update(kw)
    return DensificationController(DensifyConfig(**cfg_args), n)


class TestSchedule:
    def test_respects_interval_and_window(self):
        c = controller(5)
        assert not c.should_run(5)       # before start
        assert c.should_run(10)
        assert not c.should_run(15)      # off-interval
        assert c.should_run(50)
        assert not c.should_run(110)     # after stop


class TestClone:
    def test_small_high_grad_gaussians_cloned(self):
        model = make_model(6, scale=0.01)
        c = controller(6)
        # rows 0 and 3 exceed the threshold
        c.accumulate(np.array([0, 3]), np.array([1.0, 2.0]))
        new_model, report = c.run(model, 10, scene_extent=1.0)
        assert report.num_cloned == 2
        assert report.num_split == 0
        assert new_model.num_gaussians == 8
        # clones are exact copies of their parents
        np.testing.assert_array_equal(new_model.params[6], model.params[0])
        np.testing.assert_array_equal(new_model.params[7], model.params[3])

    def test_grad_averaged_over_views(self):
        """A Gaussian seen often with small grads must not densify."""
        model = make_model(2, scale=0.01)
        c = controller(2)
        for _ in range(10):
            c.accumulate(np.array([0]), np.array([0.3]))  # avg 0.3 < 0.5
        c.accumulate(np.array([1]), np.array([0.9]))  # avg 0.9 > 0.5
        _, report = c.run(model, 10, scene_extent=1.0)
        assert report.num_cloned == 1


class TestSplit:
    def test_large_high_grad_gaussians_split(self):
        model = make_model(4, scale=0.5)  # 0.5 > percent_dense * extent
        c = controller(4)
        c.accumulate(np.array([1]), np.array([3.0]))
        new_model, report = c.run(model, 10, scene_extent=1.0)
        assert report.num_split == 1
        assert new_model.num_gaussians == 5
        # parent and child both shrank by the split factor
        expected = np.log(0.5 / 1.6)
        np.testing.assert_allclose(new_model.log_scales[1], expected)
        np.testing.assert_allclose(new_model.log_scales[4], expected)

    def test_split_child_near_parent(self):
        model = make_model(3, scale=0.3)
        c = controller(3)
        c.accumulate(np.array([0]), np.array([5.0]))
        new_model, _ = c.run(model, 10, scene_extent=1.0)
        dist = np.linalg.norm(new_model.means[3] - model.means[0])
        assert dist < 10 * 0.3  # within a few parent sigmas


class TestPrune:
    def test_transparent_gaussians_pruned(self):
        model = make_model(5)
        model.opacity_logits[2] = -10.0  # sigmoid ~ 4.5e-5 < 0.005
        c = controller(5)
        new_model, report = c.run(model, 10, scene_extent=1.0)
        assert report.num_pruned == 1
        assert new_model.num_gaussians == 4

    def test_counter_reset_after_run(self):
        model = make_model(5)
        c = controller(5)
        c.accumulate(np.array([0]), np.array([9.0]))
        new_model, _ = c.run(model, 10, scene_extent=1.0)
        assert c.num_tracked == new_model.num_gaussians
        # fresh stats: nothing densifies now
        _, report2 = c.run(new_model, 20, scene_extent=1.0)
        assert report2.num_cloned == 0 and report2.num_split == 0


class TestCap:
    def test_max_gaussians_blocks_growth(self):
        model = make_model(10, scale=0.01)
        c = controller(10, max_gaussians=10)
        c.accumulate(np.arange(10), np.full(10, 9.0))
        new_model, report = c.run(model, 10, scene_extent=1.0)
        assert new_model.num_gaussians == 10
        assert report.num_cloned == 0

    def test_partial_budget_prefers_high_grad(self):
        model = make_model(4, scale=0.01)
        c = controller(4, max_gaussians=5)  # room for 1 new Gaussian
        c.accumulate(np.arange(4), np.array([1.0, 9.0, 2.0, 3.0]))
        new_model, report = c.run(model, 10, scene_extent=1.0)
        assert new_model.num_gaussians == 5
        assert report.num_cloned == 1
        np.testing.assert_array_equal(new_model.params[4], model.params[1])


class TestScaleControlEmulation:
    def test_threshold_controls_final_count(self):
        """The paper scales scenes by adjusting densification settings
        (Section 5.1). Lower thresholds must yield more Gaussians."""
        rng = np.random.default_rng(1)
        grads = rng.uniform(0.3, 1.2, size=8)
        counts = {}
        for thresh in (0.4, 0.8):
            model = make_model(8, scale=0.01)
            c = controller(8, grad_threshold=thresh)
            c.accumulate(np.arange(8), grads)
            new_model, _ = c.run(model, 10, scene_extent=1.0)
            counts[thresh] = new_model.num_gaussians
        assert counts[0.4] > counts[0.8]
