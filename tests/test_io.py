"""Round-trip tests for the PLY model format."""

import numpy as np
import pytest

from repro import io
from repro.gaussians import GaussianModel, layout


def make_model(n=12, seed=0):
    rng = np.random.default_rng(seed)
    return GaussianModel(rng.normal(size=(n, layout.PARAM_DIM)))


class TestPly:
    def test_roundtrip(self, tmp_path):
        m = make_model(n=7, seed=1)
        path = str(tmp_path / "scene.ply")
        io.export_ply(path, m)
        loaded = io.import_ply(path)
        np.testing.assert_allclose(loaded.params, m.params, rtol=1e-6)

    def test_single_gaussian(self, tmp_path):
        m = make_model(n=1, seed=2)
        path = str(tmp_path / "one.ply")
        io.export_ply(path, m)
        loaded = io.import_ply(path)
        assert loaded.num_gaussians == 1
        np.testing.assert_allclose(loaded.params, m.params, rtol=1e-6)

    def test_header_layout(self, tmp_path):
        m = make_model(n=2)
        path = str(tmp_path / "h.ply")
        io.export_ply(path, m)
        text = open(path).read()
        assert "element vertex 2" in text
        assert "property float f_dc_0" in text
        assert "property float f_rest_44" in text
        assert "property float rot_3" in text
        # 59 float properties total per vertex
        assert text.count("property float") == layout.PARAM_DIM

    def test_not_ply_rejected(self, tmp_path):
        path = tmp_path / "x.ply"
        path.write_text("hello\n")
        with pytest.raises(ValueError):
            io.import_ply(str(path))

    def test_renders_identically_after_roundtrip(self, tmp_path):
        """A round-tripped model must produce the same image."""
        from repro.cameras import Camera
        from repro.render import render

        rng = np.random.default_rng(3)
        m = GaussianModel.from_point_cloud(
            rng.uniform(-1, 1, (30, 3)), rng.uniform(0, 1, (30, 3)),
            dtype=np.float64,
        )
        cam = Camera.look_at([0, -3, 0.5], [0, 0, 0], width=24, height=18)
        path = str(tmp_path / "r.ply")
        io.export_ply(path, m)
        m2 = io.import_ply(path)
        img1 = render(m, cam).image
        img2 = render(m2, cam).image
        np.testing.assert_allclose(img1, img2, atol=1e-6)

