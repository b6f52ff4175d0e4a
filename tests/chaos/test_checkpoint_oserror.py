"""A checkpoint save that the OS refuses.

``save_checkpoint`` writes through a temp file, fsyncs it and renames it
over the previous checkpoint. A full disk (``ENOSPC``) or an I/O error
(``EIO``) raised while the archive is written, or by the fsync, must
leave the outcome the atomic write promises:

* the previous checkpoint file is byte-equal to what it was;
* no ``*.tmp.*`` file is left beside it;
* the ``OSError`` reaches the caller unchanged (the same object);
* training goes on, and its trajectory is that of a run whose saves all
  succeeded (a save settles the lazy state first, failed or not).
"""

import errno
import os

import numpy as np
import pytest

from repro.core import GSScaleConfig, Trainer
from repro.core.checkpoint import save_checkpoint
from repro.datasets import SyntheticSceneConfig, build_scene

#: the refusals, in the order one run meets them
REFUSALS = (errno.ENOSPC, errno.EIO)


@pytest.fixture(scope="module")
def scene():
    return build_scene(
        SyntheticSceneConfig(
            num_points=120, width=32, height=24, num_train_cameras=3,
            num_test_cameras=1, altitude=9.0, seed=5,
        )
    )


def _trainer(scene):
    return Trainer(
        scene.initial.copy(),
        GSScaleConfig(
            system="gsscale", scene_extent=scene.extent, ssim_lambda=0.0,
            mem_limit=0.6, seed=0,
        ),
    )


def _refuse_archive_write(monkeypatch, error):
    """The archive write runs out of space after a partial write."""
    def savez_compressed(fh, **arrays):
        fh.write(b"PK\x03\x04 partial archive")
        raise error

    monkeypatch.setattr(np, "savez_compressed", savez_compressed)


def _refuse_fsync(monkeypatch, error):
    """The first fsync — the archive's, before the rename — fails."""
    real = os.fsync
    calls = []

    def fsync(fd):
        calls.append(fd)
        if len(calls) == 1:
            raise error
        return real(fd)

    monkeypatch.setattr(os, "fsync", fsync)


@pytest.mark.parametrize(
    "refuse", [_refuse_archive_write, _refuse_fsync], ids=["write", "fsync"]
)
def test_refused_save_keeps_the_previous_checkpoint(tmp_path, scene, refuse):
    cams, images = scene.train_cameras, scene.train_images
    path = str(tmp_path / "run.npz")
    control_path = str(tmp_path / "control.npz")
    trainer, control = _trainer(scene), _trainer(scene)
    losses, control_losses = [], []

    def train(t, out, start):
        out += [s.loss for s in t.train(cams, images, 2, start_iteration=start).steps]

    train(trainer, losses, 0)
    train(control, control_losses, 0)
    save_checkpoint(path, trainer.system)
    save_checkpoint(control_path, control.system)
    start = 2
    for code in REFUSALS:
        with open(path, "rb") as fh:
            previous = fh.read()
        error = OSError(code, os.strerror(code))
        with pytest.MonkeyPatch.context() as mp:
            refuse(mp, error)
            with pytest.raises(OSError) as raised:
                save_checkpoint(path, trainer.system)
        assert raised.value is error and raised.value.errno == code
        with open(path, "rb") as fh:
            assert fh.read() == previous
        assert [n for n in os.listdir(tmp_path) if ".tmp." in n] == []
        save_checkpoint(control_path, control.system)  # this one succeeds
        train(trainer, losses, start)
        train(control, control_losses, start)
        start += 2
    assert np.array(losses).tobytes() == np.array(control_losses).tobytes()
    for t in (trainer, control):
        t.system.finalize()
    got = trainer.system.materialized_model().params
    want = control.system.materialized_model().params
    assert got.tobytes() == want.tobytes()
