"""Hash every training placement and the serving columns of one small
seeded run.

Usage (once per checkout, then diff the two outputs)::

    PYTHONPATH=<checkout>/src python tools/hash_trajectories.py > hashes.txt
    PYTHONPATH=src python tools/hash_trajectories.py --check

One seeded scene, 12 training steps (every view of a splitting system
splits in two, one densification rebuild after step 6, one checkpoint
save + load after step 8), over the columns ``gpu_only``,
``baseline_offload``, ``gsscale_no_deferred``, ``gsscale``, ``sharded``;
``outofcore-raw`` x {``sync`` = ``async_prefetch=False`` (the prefetch
leg at depth 0); ``async1`` = ``async_prefetch`` at depth 1;
``async2wb`` = ``async_prefetch`` at depth 2, the default} — each
schedule is spelled out, so a change of ``GSScaleConfig``'s defaults
moves no column (training pages are raw, and write-behind spilling was
retired: both names are historical, kept so the columns' lines compare
with older checkouts); a
``PagedServingStore`` opened from the ``sharded`` column's checkpoint
under each serving codec (``serve-raw``, ``serve-float16``); and last,
``gsscale-vectorized`` and ``sharded-vectorized``, the two in-memory
splitting systems trained with the ``vectorized`` raster engine every
``perfbench`` workload trains with (the other columns render with
``reference``); after them the ``patches`` column: the scene cut into
two patches (``partition_scene``), each trained as a patch job
(``build_specs`` + ``run_patch_job``, in this process) for 4 iterations
with a checkpoint every 2. Per training column it prints the sha256 of the step
losses, the final packed parameters, the Adam moments and the defer
counters (both scattered into global row order, so columns with
different store trees compare), then the ledger counts and tracker
peaks as numbers, per ``outofcore`` column the spills that recorded no
page-out (``clean_evictions``; ``None`` from a checkout without them) and
the hinted shard visits of the async leg (``hinted``: ``prefetch_hits +
prefetch_misses``; their sum follows the op sequence, the split between
the two follows thread timing), then the sha256 of every page file
(named, after a final spill of every shard so the files hold the final
state). Per serving column: the page files, a full
``gather``, one frame, the ledger, then a gather of a fixed seeded
subset of rows, unsorted and with repeats (``gather_rows``), and the
page files of the same model paged by ``from_model``
(``pages_from_model``). Per patch: the sha256 of its checkpoint file.

A change to the pager, the stores or the serving tier that is meant to
keep numerics and bytes must leave every line equal to the parent
commit's. ``--check`` additionally asserts the equalities the design
promises *between* columns: placement never changes numerics (``gsscale``
== ``sharded`` == every ``outofcore`` column, whatever the schedule) nor,
from ``sharded`` down, the PCIe traffic a rebuild-spanning run adds up
to; a page file is its array (every schedule leaves the same page
files); the device-only system moves nothing; the async leg moves the
read and never the traffic (``sync`` == ``async1`` on every ledger
count, clean eviction and tracker peak; depth 2 keeps upcoming shards
resident, so only its PCIe counts are pinned), the hinted shard visits
follow the schedule (none on ``sync``, ``async1`` == ``async2wb``); a
serving page holds the same bytes whether it was filled from the
checkpoint or from the resumed model (``pages_from_model`` == ``pages``
under every serving codec), and a gather decodes each row as the whole
page would (``gather_rows`` == the same rows of the full ``gather``
under every serving codec); and sharding never changes numerics under
the ``vectorized`` engine either (``gsscale-vectorized`` ==
``sharded-vectorized``); and a patch job stopped at 2 iterations and
resumed to 4 leaves the checkpoints of the uninterrupted run. Uses only
names both sides of a diff have;
``.crc`` sidecars of older checkouts are ignored.
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
    resume_model,
    save_checkpoint,
)
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.densify import DensifyConfig
from repro.gaussians import layout
from repro.recon import run_patch_job
from repro.recon.jobs import build_specs
from repro.recon.partition import partition_scene
from repro.render import RasterConfig
from repro.serve import FrameTask, PagedServingStore
from repro.serve.farm import render_frame

#: the serving page codecs (training pages are raw)
SERVE_CODECS = ("raw", "float16")
SCHEDULES = {
    "sync": dict(async_prefetch=False),
    "async1": dict(async_prefetch=True, prefetch_depth=1),
    "async2wb": dict(async_prefetch=True, prefetch_depth=2),
}
NUMERICS = ("losses", "params", "moments", "counters")
PCIE = ("h2d_bytes", "d2h_bytes", "h2d_count", "d2h_count")
IN_MEMORY = (
    "gpu_only", "baseline_offload", "gsscale_no_deferred", "gsscale", "sharded",
)
#: the columns trained again with ``perfbench``'s raster engine
VECTORIZED = ("gsscale", "sharded")
NUM_SHARDS = 4
GATHER_ROWS = 97
#: the patch jobs' iteration target, and the stops of the resumed run
PATCH_ITERATIONS = 4
PATCH_STOPS = (2, PATCH_ITERATIONS)


def sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def file_sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def page_files(directory: str) -> dict[str, str]:
    """``name -> sha256`` of every page file under ``directory``."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".crc") or ".tmp." in name:
            continue
        out[name] = file_sha(os.path.join(directory, name))
    return out


def train_column(scene, tmp: str, name: str, **cfg) -> dict:
    spill_dir = os.path.join(tmp, name)
    config = GSScaleConfig(
        num_shards=NUM_SHARDS, scene_extent=scene.extent, ssim_lambda=0.0,
        mem_limit=0.6, seed=0, **{"engine": "reference", **cfg},
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
        row["hinted"] = system.prefetch_hits + system.prefetch_misses
        system.spill_inactive([])  # every page file now holds final state
        system.finalize()
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
    task = FrameTask(
        scene.train_cameras[0], 0, 3, config=RasterConfig(engine="reference")
    )
    row = {"pages": page_files(page_dir)}
    full = store.gather(np.arange(store.num_rows))
    row["gather"] = sha(full)
    row["frame"] = sha(render_frame(store, None, task))
    row["ledger"] = dict(store.ledger.counts())
    row["host_peak"] = store.host_memory.peak_bytes
    # a fixed unsorted subset with repeats, after the counts above: rows
    # decoded on their own
    ids = np.random.default_rng(0).integers(0, store.num_rows, GATHER_ROWS)
    row["gather_rows"] = sha(store.gather(ids))
    row["full_rows"] = sha(full[ids])  # for --check, not printed
    store.close()
    # the same model paged from memory: pages fill through one path
    model_dir = os.path.join(tmp, f"serve-{codec}-model")
    store = PagedServingStore.from_model(
        resume_model(checkpoint), budget, num_shards=NUM_SHARDS,
        page_dir=model_dir, codec=codec,
    )
    row["pages_from_model"] = page_files(model_dir)
    store.close()
    return row


def patch_checkpoints(scene, workdir: str, stops) -> dict[str, str]:
    """``patch{k} -> sha256`` of each patch job's checkpoint, the jobs
    run to every iteration count of ``stops`` in turn (a stop before the
    last is a run that was stopped there and resumed)."""
    config = GSScaleConfig(
        system="gpu_only", scene_extent=scene.extent, ssim_lambda=0.0,
        seed=0, engine="reference",
    )
    patches = partition_scene(scene.initial, scene.train_cameras, 2)
    os.makedirs(workdir)
    for iterations in stops:
        specs = build_specs(
            patches, scene.initial, scene.train_cameras, scene.train_images,
            config, iterations, workdir, checkpoint_every=2,
        )
        for spec in specs:
            result = run_patch_job(spec)
            if not result.ok:
                raise RuntimeError(f"patch {spec.index}: {result.error}")
    return {
        f"patch{spec.index}": file_sha(spec.checkpoint_path)
        for spec in specs
        if spec.params.shape[0]
    }


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
        for schedule, knobs in SCHEDULES.items():
            name = f"outofcore-raw-{schedule}"
            table[name] = train_column(
                scene, tmp, name, system="outofcore", resident_shards=2,
                **knobs,
            )
        for codec in SERVE_CODECS:
            table[f"serve-{codec}"] = serve_column(
                scene, tmp, codec, table["sharded"]["checkpoint"]
            )
        for name in VECTORIZED:
            table[f"{name}-vectorized"] = train_column(
                scene, tmp, f"{name}-vectorized", system=name,
                engine="vectorized",
            )
        table["patches"] = patch_checkpoints(
            scene, os.path.join(tmp, "patches"), (PATCH_ITERATIONS,)
        )
        # for --check, not printed
        table["patches-resumed"] = patch_checkpoints(
            scene, os.path.join(tmp, "patches-resumed"), PATCH_STOPS
        )
    return table


def lines(table: dict[str, dict]) -> list[str]:
    out = []
    for column, row in table.items():
        if column == "patches-resumed":
            continue
        for key, value in row.items():
            if key in ("checkpoint", "full_rows"):
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
    same("sharding never changes numerics", "gsscale-vectorized",
         "sharded-vectorized", NUMERICS + ("device_peak",))
    for suffix in ("", "-vectorized"):
        a, b = f"gsscale{suffix}", f"sharded{suffix}"
        if ledger(a, PCIE[:2]) != ledger(b, PCIE[:2]):
            failures.append(f"PCIe bytes: {a} != {b}")
    sync = "outofcore-raw-sync"
    for schedule in SCHEDULES:
        column = f"outofcore-raw-{schedule}"
        same("placement never changes numerics", "sharded", column,
             NUMERICS + ("device_peak",))
        same("a page file is its array", sync, column, ("pages",))
        if ledger("sharded", PCIE) != ledger(column, PCIE):
            failures.append(f"PCIe traffic: sharded != {column}")
    # dirtiness follows the op sequence, never thread timing
    same("the async leg moves the read, never the traffic", sync,
         "outofcore-raw-async1",
         NUMERICS + ("ledger", "clean_evictions", "device_peak",
                     "host_peak", "pages"))
    # the hinted steps are the schedule's, whatever the depth, and a
    # checkpoint or a rebuild keeps the leg running
    if table[sync]["hinted"] != 0:
        failures.append(f"a synchronous run hints nothing: {sync}")
    same("hinted visits follow the schedule", "outofcore-raw-async1",
         "outofcore-raw-async2wb", ("hinted",))
    for codec in SERVE_CODECS:
        row = table[f"serve-{codec}"]
        if row["pages_from_model"] != row["pages"]:
            failures.append(f"one page fill path: serve-{codec} "
                            "pages_from_model != pages")
        if row["gather_rows"] != row["full_rows"]:
            failures.append(f"rows decode on their own: serve-{codec} "
                            "gather_rows != the same rows of gather")
    if table["patches-resumed"] != table["patches"]:
        failures.append("a resumed patch job trains each step once: "
                        "patches-resumed != patches")
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
