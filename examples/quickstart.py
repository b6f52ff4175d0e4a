"""Quickstart: train a synthetic scene with GS-Scale and compare it to
GPU-only training.

Builds a small procedural aerial capture, trains it twice — once with
everything resident on the (simulated) device, once with GS-Scale's host
offloading — and reports quality, device memory, and PCIe traffic.

The placement machinery behind both systems (parameter stores, forwarding,
lazy commits, sharding) is described in docs/architecture.md; see
examples/sharded_training_demo.py for the multi-device variant.

Run:  python examples/quickstart.py
"""

from repro import GSScaleConfig, Trainer
from repro.datasets import SyntheticSceneConfig, build_scene

ITERATIONS = 48


def main():
    print("Building synthetic aerial capture ...")
    scene = build_scene(
        SyntheticSceneConfig(
            name="quickstart",
            num_points=300,
            width=48,
            height=36,
            num_train_cameras=12,
            num_test_cameras=3,
            altitude=7.0,
            fov_x_deg=50.0,
            seed=7,
        )
    )
    print(
        f"  oracle: {scene.oracle.num_gaussians} Gaussians, "
        f"{len(scene.train_cameras)} train views, "
        f"{len(scene.test_cameras)} test views"
    )

    results = {}
    for system in ("gpu_only", "gsscale"):
        trainer = Trainer(
            scene.initial.copy(),
            GSScaleConfig(
                system=system,
                scene_extent=scene.extent,
                ssim_lambda=0.2,
                sh_degree=0,  # view-independent color generalizes better
                seed=0,       # at quickstart scale (few training views)
            ),
        )
        before = trainer.evaluate(scene.test_cameras, scene.test_images)
        history = trainer.train(
            scene.train_cameras, scene.train_images, iterations=ITERATIONS,
            view_order="shuffle",
        )
        after = trainer.evaluate(scene.test_cameras, scene.test_images)
        results[system] = (before, after, history)
        print(f"\n=== {system} ===")
        print(f"  PSNR        : {before.psnr:6.2f} dB -> {after.psnr:6.2f} dB")
        print(f"  SSIM        : {before.ssim:6.3f}    -> {after.ssim:6.3f}")
        print(
            f"  LPIPS-proxy : {before.lpips_proxy:6.4f}  -> "
            f"{after.lpips_proxy:6.4f}"
        )
        print(f"  peak device memory : {history.peak_device_bytes / 1e6:8.2f} MB")
        print(f"  PCIe H2D traffic   : {history.h2d_bytes / 1e6:8.2f} MB")
        print(f"  mean active ratio  : {history.mean_active_ratio:.1%}")

    gpu_peak = results["gpu_only"][2].peak_device_bytes
    gs_peak = results["gsscale"][2].peak_device_bytes
    print(
        f"\nGS-Scale used {gpu_peak / gs_peak:.1f}x less device memory while "
        f"training to PSNR within "
        f"{abs(results['gpu_only'][1].psnr - results['gsscale'][1].psnr):.3f} dB "
        "of GPU-only (the paper's Table 3 result, functionally)."
    )


if __name__ == "__main__":
    main()
