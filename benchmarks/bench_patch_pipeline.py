"""Patch-pipeline benchmark: farm vs monolithic, measured and modeled.

Feeds ``benchmarks/out/BENCH_recon.json`` (the committed baseline is the
quick-mode run the CI ``perf-smoke`` job diffs against and uploads):

* ``test_pipeline_vs_monolithic`` — one full partition -> train ->
  merge -> clean run against a monolithic ``Trainer`` run of the same
  scene, iterations, and system. Records both wall clocks and the
  modeled fp32-equivalent host peaks. The PR acceptance gate lives
  here: the pipeline's peak host bytes must be **strictly below** the
  monolithic training state.
* ``test_modeled_farm_schedule`` — ``sim.simulate_patch_farm`` over a
  jobs sweep on a calibrated platform: the modeled counterpart the
  figures use, pinned to stay consistent with the measured side (farm
  peak below monolithic at J < P).
* ``test_pipeline_vs_outofcore`` — the measurement that decides between
  the two ways to train a scene larger than memory: the pipeline at
  ``jobs`` 1 and 2 against ``outofcore`` (as many shards as patches) at
  ``resident_shards`` 1 and 2, with equal steps per patch and with an
  equal total of optimizer steps. Each leg records held-out PSNR, peak
  host bytes and wall clock; out-of-core also records its prefetch
  staging slot, which its host tracker does not count. The full run
  covers six scenes, two scene seeds per altitude (ROADMAP item 22).

``GSSCALE_BENCH_QUICK=1`` shrinks every axis for CI smoke runs.
"""

import json
import os
import tempfile
import time

from repro.core import GSScaleConfig, Trainer
from repro.core.checkpoint import resume_model
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.recon import PatchPipelineConfig, run_patch_pipeline
from repro.sim import get_platform, simulate_patch_farm

QUICK = os.environ.get("GSSCALE_BENCH_QUICK", "") not in ("", "0")


def _emit(entries):
    """Merge this test's entries into the shared BENCH_recon payload."""
    out_dir = os.path.join(os.path.dirname(__file__), "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "BENCH_recon.json")
    payload = {"quick": QUICK, "cpu_count": os.cpu_count(), "entries": []}
    if os.path.exists(path):
        with open(path) as fh:
            previous = json.load(fh)
        if previous.get("quick") == QUICK:
            payload["entries"] = [
                e for e in previous["entries"]
                if e["bench"] not in {x["bench"] for x in entries}
            ]
    payload["entries"].extend(entries)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)


def test_pipeline_vs_monolithic(benchmark):
    """Measured: 4-patch pipeline vs one whole-scene run."""
    scene = build_scene(
        SyntheticSceneConfig(
            num_points=220 if QUICK else 420,
            width=36, height=28,
            num_train_cameras=6, num_test_cameras=1,
            altitude=12.0, seed=9,
        )
    )
    iterations = 8 if QUICK else 24
    train = GSScaleConfig(
        system="gpu_only", scene_extent=scene.extent, seed=0
    )

    def run():
        with tempfile.TemporaryDirectory(prefix="gsscale-bench-") as workdir:
            t0 = time.perf_counter()
            result = run_patch_pipeline(
                scene.initial, scene.train_cameras, scene.train_images,
                workdir,
                PatchPipelineConfig(
                    num_patches=4, iterations=iterations, jobs=2, train=train
                ),
            )
            pipeline_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        trainer = Trainer(scene.initial.copy(), train)
        trainer.train(scene.train_cameras, scene.train_images, iterations)
        monolithic_s = time.perf_counter() - t0

        buffered = [p.num_buffered for p in result.patches]
        return {
            "bench": "pipeline",
            "num_gaussians": scene.initial.num_gaussians,
            "num_patches": 4,
            "jobs": 2,
            "iterations": iterations,
            "buffered_sizes": buffered,
            "merge_policy": result.merge.policy,
            "merged_rows": result.merge.num_gaussians,
            "final_rows": result.clean.kept_rows,
            "peak_host_bytes": result.peak_host_bytes,
            "monolithic_peak_host_bytes": result.monolithic_peak_host_bytes,
            "pipeline_s": pipeline_s,
            "monolithic_s": monolithic_s,
        }

    entry = benchmark.pedantic(run, rounds=1, iterations=1)
    # the PR acceptance gate: the farm never holds the whole training
    # state — its modeled peak is strictly below the monolithic run's
    assert entry["peak_host_bytes"] < entry["monolithic_peak_host_bytes"]
    # and the merge kept every splat exactly once
    assert entry["merged_rows"] == entry["num_gaussians"]
    _emit([entry])


def test_modeled_farm_schedule(benchmark):
    """Modeled: the same schedule on a calibrated platform."""
    patch_sizes = [50_000, 42_000, 38_000, 30_000]
    iterations = 200 if QUICK else 1000
    platform = get_platform("laptop_4070m")

    def run():
        entries = []
        for jobs in (1, 2, 4):
            farm = simulate_patch_farm(
                platform, patch_sizes, jobs, iterations=iterations,
                num_pixels=640 * 360,
            )
            entries.append({
                "bench": "farm_model",
                "platform": "laptop_4070m",
                "jobs": jobs,
                "patch_sizes": patch_sizes,
                "iterations": iterations,
                "makespan_s": round(farm.makespan_seconds, 3),
                "monolithic_s": round(farm.monolithic_seconds, 3),
                "speedup": round(farm.speedup, 3),
                "peak_host_bytes": farm.peak_host_bytes,
                "monolithic_peak_host_bytes": (
                    farm.monolithic_peak_host_bytes
                ),
            })
        return entries

    entries = benchmark.pedantic(run, rounds=1, iterations=1)
    by_jobs = {e["jobs"]: e for e in entries}
    # under-committed farms hold strictly less than the whole state
    for jobs in (1, 2):
        assert (
            by_jobs[jobs]["peak_host_bytes"]
            < by_jobs[jobs]["monolithic_peak_host_bytes"]
        )
    # and packing over more jobs monotonically shrinks wall clock
    assert (
        by_jobs[4]["makespan_s"]
        <= by_jobs[2]["makespan_s"]
        <= by_jobs[1]["makespan_s"]
    )
    _emit(entries)


#: (altitude, scene seed) of the decision scenes: the first three are the
#: ones item 22 was first measured on, the last three a second seed each
DECISION_SCENES = ((9.0, 0), (9.0, 5), (5.0, 0), (9.0, 1), (9.0, 7), (5.0, 5))


def _decision_legs(scene, altitude, seed, patches, iterations):
    """One scene's entries: every pipeline and out-of-core leg."""
    base = {
        "bench": "decision",
        "altitude": altitude,
        "seed": seed,
        "num_gaussians": scene.initial.num_gaussians,
        "num_patches": patches,
    }
    gpu_only = GSScaleConfig(system="gpu_only", scene_extent=scene.extent)

    def held_out_psnr(trainer):
        return round(
            trainer.evaluate(scene.test_cameras, scene.test_images).psnr, 4
        )

    entries = []
    for jobs in (1, 2):
        with tempfile.TemporaryDirectory(prefix="gsscale-bench-") as workdir:
            t0 = time.perf_counter()
            result = run_patch_pipeline(
                scene.initial, scene.train_cameras, scene.train_images,
                workdir,
                PatchPipelineConfig(
                    num_patches=patches, iterations=iterations, jobs=jobs,
                    train=gpu_only,
                ),
            )
            train_s = time.perf_counter() - t0
            final = Trainer(resume_model(result.checkpoint_path), gpu_only)
        entries.append({
            **base,
            "leg": "pipeline",
            "jobs": jobs,
            "steps_per_patch": iterations,
            "patch_views": [p.num_cameras for p in result.patches],
            "psnr_db": held_out_psnr(final),
            "peak_host_bytes": result.peak_host_bytes,
            "train_s": train_s,
        })
    for resident, steps in ((1, iterations), (2, iterations),
                            (1, iterations * patches)):
        trainer = Trainer(
            scene.initial.copy(),
            GSScaleConfig(
                system="outofcore", scene_extent=scene.extent,
                num_shards=patches, resident_shards=resident,
            ),
        )
        t0 = time.perf_counter()
        trainer.train(scene.train_cameras, scene.train_images, steps)
        train_s = time.perf_counter() - t0
        entries.append({
            **base,
            "leg": "outofcore",
            "resident_shards": resident,
            "steps": steps,
            "psnr_db": held_out_psnr(trainer),
            "peak_host_bytes": trainer.system.host_memory.peak_bytes,
            "staged_peak_bytes": trainer.system.prefetch_staged_peak_bytes,
            "train_s": train_s,
        })
    return entries


def test_pipeline_vs_outofcore(benchmark):
    """Measured: patch pipeline vs out-of-core on the same scenes."""
    patches = 4
    if QUICK:
        scenes = [(12.0, 9, SyntheticSceneConfig(
            num_points=220, width=36, height=28, num_train_cameras=6,
            num_test_cameras=2, altitude=12.0, seed=9,
        ))]
        iterations = 8
    else:
        scenes = [(altitude, seed, SyntheticSceneConfig(
            num_points=4000, width=64, height=48, num_train_cameras=16,
            num_test_cameras=4, altitude=altitude, seed=seed,
        )) for altitude, seed in DECISION_SCENES]
        iterations = 40

    def run():
        entries = []
        for altitude, seed, config in scenes:
            entries += _decision_legs(
                build_scene(config), altitude, seed, patches, iterations
            )
        return entries

    entries = benchmark.pedantic(run, rounds=1, iterations=1)
    for e in entries:
        assert e["psnr_db"] > 0.0 and e["peak_host_bytes"] > 0
    _emit(entries)
