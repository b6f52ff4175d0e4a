"""Hash every training placement and the serving columns of one small
seeded run.

Usage (once per checkout, then diff the two outputs)::

    PYTHONPATH=<checkout>/src python tools/hash_trajectories.py > hashes.txt
    PYTHONPATH=src python tools/hash_trajectories.py --check

One seeded scene, 12 training steps (every view of a splitting system
splits in two, one densification rebuild after step 6, one checkpoint
save + load after step 8), over the columns ``gpu_only``,
``baseline_offload``, ``gsscale_no_deferred``, ``gsscale``, ``sharded``;
``outofcore`` x {``raw``, ``lossless``, ``float16``} x {``sync``;
``async1`` = ``async_prefetch`` at depth 1; ``async2wb`` = depth 2 +
``write_behind``}; and a ``PagedServingStore`` opened from the ``sharded``
column's checkpoint under each codec. Per training column it prints the
sha256 of the step losses, the final packed parameters, the Adam moments
and the defer counters (both scattered into global row order, so columns
with different store trees compare), then the ledger counts and tracker
peaks as numbers, per ``outofcore`` column the spills that recorded no
page-out (``clean_evictions``; ``None`` from a checkout without them), then
the sha256 of every page file (named, after a
final spill of every shard so the files hold the final state whatever the
write-behind timing was). Per serving column: a full ``gather``, one
frame, the page files, the ledger.

A change to the pager, the stores or the serving tier that is meant to
keep numerics and bytes must leave every line equal to the parent
commit's. ``--check`` additionally asserts the equalities the design
promises *between* columns: placement never changes numerics (``gsscale``
== ``sharded`` == every ``raw`` / ``lossless`` ``outofcore`` column) nor,
from ``sharded`` down, the PCIe traffic a rebuild-spanning run adds up
to; the device-only system moves nothing; the async leg
moves the read and never the traffic (``sync`` == ``async1`` on every
ledger count, clean eviction and tracker peak, under every codec; depth 2
keeps upcoming
shards resident, so only its PCIe counts are pinned), a lossy page is
rounded the same way whether or not its write-behind landed before it was
paged back in (``float16`` ``sync`` == ``async2wb`` numerics and pages)
and a lossless page is pure placement (``raw`` == ``lossless`` gathers
and frames). Uses only names both sides of a diff have; ``.crc`` sidecars
of older checkouts are ignored.
"""

import argparse
import hashlib
import os
import sys
import tempfile

import numpy as np

from repro.core import GSScaleConfig, Trainer
from repro.core.checkpoint import (
    CheckpointReader,
    load_checkpoint,
    save_checkpoint,
)
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.densify import DensifyConfig
from repro.gaussians import layout
from repro.pool import shutdown_raster_pools
from repro.render import RasterConfig
from repro.serve import FrameTask, PagedServingStore
from repro.serve.farm import render_frame

CODECS = ("raw", "lossless", "float16")
SCHEDULES = {
    "sync": {},
    "async1": dict(async_prefetch=True),
    "async2wb": dict(async_prefetch=True, prefetch_depth=2, write_behind=True),
}
NUMERICS = ("losses", "params", "moments", "counters")
PCIE = ("h2d_bytes", "d2h_bytes", "h2d_count", "d2h_count")
IN_MEMORY = (
    "gpu_only", "baseline_offload", "gsscale_no_deferred", "gsscale", "sharded",
)
NUM_SHARDS = 4


def sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def page_files(directory: str) -> dict[str, str]:
    """``name -> sha256`` of every page file under ``directory``."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".crc") or ".tmp." in name:
            continue
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()[:16]
    return out


def train_column(scene, tmp: str, name: str, **cfg) -> dict:
    spill_dir = os.path.join(tmp, name)
    config = GSScaleConfig(
        num_shards=NUM_SHARDS, scene_extent=scene.extent, ssim_lambda=0.0,
        mem_limit=0.6, seed=0, **cfg,
    )
    if config.system == "outofcore":
        config.spill_dir = spill_dir
    trainer = Trainer(
        scene.initial.copy(), config,
        densify=DensifyConfig(
            interval=6, start_iteration=6, stop_iteration=7,
            grad_threshold=1e-6,
        ),
    )
    cams, images = scene.train_cameras, scene.train_images
    history = trainer.train(cams, images, 8)
    assert [r.iteration for r in history.densify_reports] == [6]
    regions = 2 if trainer.system.splits_images else 1
    assert all(step.num_regions == regions for step in history.steps)
    checkpoint = os.path.join(tmp, f"{name}.npz")
    save_checkpoint(checkpoint, trainer.system)
    load_checkpoint(checkpoint, trainer.system)
    steps = history.steps + trainer.train(
        cams, images, 4, start_iteration=8
    ).steps
    system = trainer.system
    row = {
        "losses": sha(np.array([step.loss for step in steps])),
        "ledger": dict(system.ledger.counts()),
        "device_peak": system.memory.peak_bytes,
        "host_peak": getattr(system, "host_memory", system.memory).peak_bytes,
        "checkpoint": checkpoint,
    }
    if config.system == "outofcore":
        # spills that recorded no page-out (None: a checkout without them)
        row["clean_evictions"] = getattr(system, "clean_evictions", None)
        system.spill_inactive([])  # every page file now holds final state
        system.finalize()  # drains the write-behind lane
        row["pages"] = page_files(spill_dir)
    # every leaf's optimizer state, scattered to global rows and columns
    n = system.num_gaussians
    moments = np.zeros((2, n, layout.PARAM_DIM))
    counter = np.zeros(n, dtype=np.int64)
    step_counts = set()
    for _, store, rows in system.checkpoint_entries():
        state = store.state_dict()
        rows = slice(None) if rows is None else rows
        moments[0, rows, store.block.sl] = state["m"]
        moments[1, rows, store.block.sl] = state["v"]
        if "counter" in state:
            counter[rows] = state["counter"]
        step_counts.add(int(state["steps"]))
    row["moments"] = sha(moments)
    row["counters"] = sha(counter, np.array(sorted(step_counts)))
    row["params"] = sha(system.materialized_model().params)
    return row


def serve_column(scene, tmp: str, codec: str, checkpoint: str) -> dict:
    # geometry + one worst-case shard page: every gather pages
    page_dir = os.path.join(tmp, f"serve-{codec}")
    with CheckpointReader(checkpoint) as reader:
        n = reader.num_gaussians
    budget = layout.param_bytes(n, layout.GEOMETRIC_DIM) + layout.param_bytes(
        -(-n // NUM_SHARDS), layout.NON_GEOMETRIC_DIM
    )
    store = PagedServingStore.from_checkpoint(
        checkpoint, budget, num_shards=NUM_SHARDS, page_dir=page_dir,
        codec=codec,
    )
    task = FrameTask(scene.train_cameras[0], 0, 3, config=RasterConfig())
    row = {"pages": page_files(page_dir)}
    row["gather"] = sha(store.gather(np.arange(store.num_rows)))
    row["frame"] = sha(render_frame(store, None, task))
    row["ledger"] = dict(store.ledger.counts())
    row["host_peak"] = store.host_memory.peak_bytes
    store.close()
    return row


def run() -> dict[str, dict]:
    scene = build_scene(
        SyntheticSceneConfig(
            num_points=160, width=32, height=24, num_train_cameras=4,
            num_test_cameras=1, altitude=9.0, seed=5,
        )
    )
    table = {}
    with tempfile.TemporaryDirectory(prefix="gsscale-hash-") as tmp:
        for name in IN_MEMORY:
            table[name] = train_column(scene, tmp, name, system=name)
        for codec in CODECS:
            for schedule, knobs in SCHEDULES.items():
                name = f"outofcore-{codec}-{schedule}"
                table[name] = train_column(
                    scene, tmp, name, system="outofcore", resident_shards=2,
                    page_codec=codec, **knobs,
                )
        for codec in CODECS:
            table[f"serve-{codec}"] = serve_column(
                scene, tmp, codec, table["sharded"]["checkpoint"]
            )
        shutdown_raster_pools()
    return table


def lines(table: dict[str, dict]) -> list[str]:
    out = []
    for column, row in table.items():
        for key, value in row.items():
            if key == "checkpoint":
                continue
            if isinstance(value, dict):
                value = " ".join(f"{k}={v}" for k, v in value.items())
            out.append(f"{column} {key} {value}")
    return out


def check(table: dict[str, dict]) -> list[str]:
    """The cross-column equalities; returns the violated ones."""
    failures = []

    def same(what, a, b, keys):
        for key in keys:
            if table[a][key] != table[b][key]:
                failures.append(f"{what}: {a} != {b} on {key}")

    def ledger(column, keys):
        return {key: table[column]["ledger"][key] for key in keys}

    if any(table["gpu_only"]["ledger"].values()):
        failures.append("the device-only system moves nothing: gpu_only")
    same("sharding never changes numerics", "gsscale", "sharded",
         NUMERICS + ("device_peak",))
    if ledger("gsscale", PCIE[:2]) != ledger("sharded", PCIE[:2]):
        failures.append("PCIe bytes: gsscale != sharded")
    for codec in CODECS:
        sync = f"outofcore-{codec}-sync"
        if codec != "float16":
            for schedule in SCHEDULES:
                column = f"outofcore-{codec}-{schedule}"
                same("placement never changes numerics", "sharded", column,
                     NUMERICS + ("device_peak",))
                same("a page file is its array", sync, column, ("pages",))
                if ledger("sharded", PCIE) != ledger(column, PCIE):
                    failures.append(f"PCIe traffic: sharded != {column}")
        else:
            # a lossy page rounds what it holds; a page-out re-adopted
            # before the writer lands it is rounded the same way
            same("a queued page-out reads back as its page", sync,
                 f"outofcore-{codec}-async2wb", NUMERICS + ("pages",))
        # dirtiness follows the op sequence, never thread timing
        same("the async leg moves the read, never the traffic", sync,
             f"outofcore-{codec}-async1",
             NUMERICS + ("ledger", "clean_evictions", "device_peak",
                         "host_peak", "pages"))
        if ledger(sync, PCIE) != ledger(f"outofcore-{codec}-async2wb", PCIE):
            failures.append(f"PCIe traffic: {sync} != async2wb")
    same("a lossless page is pure placement", "serve-raw", "serve-lossless",
         ("gather", "frame"))
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true",
        help="also assert the cross-column equalities (exit 1 if one fails)",
    )
    args = parser.parse_args()
    table = run()
    sys.stdout.write("\n".join(lines(table)) + "\n")
    if args.check:
        failures = check(table)
        for failure in failures:
            print(f"CHECK FAILED {failure}", file=sys.stderr)
        if failures:
            return 1
        print("check: all cross-column equalities hold", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
