"""The five workloads: what runs, at which frozen size, under which guard.

Sizes were tuned on a 2-core box only to satisfy each regime guard and
the time budget, then frozen; change them and the numbers of earlier runs
stop being comparable. :mod:`perfbench.runner` runs them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace

from .scenes import SiteSpec

#: relative tolerance of a loss trajectory against the ``gpu_only``
#: reference (placement changes accounting, never numerics)
REFERENCE_RTOL = 1e-9

#: ... and for a run whose views split: two regions sum their gradients in
#: another order, and Adam's eps of 1e-15 amplifies that last-digit
#: difference step by step (measured 2e-8 after six steps)
SPLIT_REFERENCE_RTOL = 1e-6


# -- regime guards ------------------------------------------------------------


@dataclass(frozen=True)
class Guard:
    """``fact <op> bound`` must hold on every run; a list-valued fact must
    hold element-wise (it is a per-step quantity). Facts a run does not
    measure (per-layer shares in an untraced run) are skipped."""

    fact: str
    op: str
    bound: float

    def holds(self, value: float) -> bool:
        return _OPS[self.op](value, self.bound)


_OPS = {"==": operator.eq, "<=": operator.le, ">=": operator.ge, ">": operator.gt}


def check_guards(guards: tuple[Guard, ...], facts: dict) -> list[dict]:
    """Evaluate guards against measured facts; one record per guard that
    could be evaluated, carrying the measured value."""
    out = []
    for g in guards:
        value = facts.get(g.fact)
        if value is None:
            continue
        values = list(value) if isinstance(value, (list, tuple)) else [value]
        ok = all(g.holds(v) for v in values)
        out.append(
            {
                "name": f"guard: {g.fact} {g.op} {g.bound}",
                "ok": ok,
                "detail": f"measured min {min(values):.6g} max {max(values):.6g}",
            }
        )
    return out


# -- workload definitions -----------------------------------------------------


@dataclass(frozen=True)
class TrainWorkload:
    """One training workload at its frozen size.

    Attributes:
        site: the generated scene.
        views: keyword arguments of :func:`scenes.sweep_cameras`.
        steps: training steps per repeat (the schedule cycles the views).
        config: ``GSScaleConfig`` keyword arguments of the system under
            test (engine, extent and spill directory are filled in).
        view_order: ``"sequential"`` or ``"locality"``.
        reference: the system whose loss trajectory the run must match —
            ``"gpu_only"`` to ``reference_rtol``, ``"sharded"`` bit for bit.
        guards: regime guards asserted on every full-size run.
    """

    #: the highest step-time percentile the 40-110 timed steps of a run support
    tail_percentile = 75.0

    name: str
    site: SiteSpec
    views: dict
    steps: int
    config: dict
    guards: tuple[Guard, ...]
    view_order: str = "sequential"
    reference: str = "gpu_only"
    reference_rtol: float = REFERENCE_RTOL

    def quick(self) -> "TrainWorkload":
        """A seconds-sized variant for the unit tests (numbers from it are
        not comparable with full-size runs and guards are not asserted)."""
        return replace(
            self,
            site=replace(self.site, num_points=max(self.site.num_points // 25, 600)),
            views={
                **self.views,
                "width": self.views["width"] // 2,
                "height": self.views["height"] // 2,
                "rows": 1,
                "cols": 2,
            },
            steps=min(self.steps, 3),
            guards=(),
        )


@dataclass(frozen=True)
class ServeWorkload:
    """The serving workload at its frozen size (closed loop, 4 clients)."""

    #: 80 requests a session, at least three sessions a run
    tail_percentile = 95.0

    name: str
    site: SiteSpec
    frame_size: int
    rounds: int
    lag: int
    num_shards: int
    host_fraction: float
    codec: str
    guards: tuple[Guard, ...]

    def quick(self) -> "ServeWorkload":
        return replace(
            self,
            site=replace(self.site, num_points=max(self.site.num_points // 25, 600)),
            frame_size=self.frame_size // 2,
            rounds=4,
            lag=1,
            guards=(),
        )


WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload(
            name="train_raster",
            site=SiteSpec(extent=10.0, num_points=10_000),
            views=dict(altitude=9.0, rows=2, cols=4, width=128, height=96,
                       fov_x_deg=45.0, tilt=0.35, span=0.5),
            steps=8,
            config=dict(system="gsscale"),
            guards=(
                Guard("regions_per_step", "==", 1),
                Guard("render.share", ">=", 0.8),
            ),
        ),
        TrainWorkload(
            name="train_split",
            site=SiteSpec(extent=10.0, num_points=20_000),
            views=dict(altitude=30.0, rows=2, cols=3, width=64, height=48,
                       fov_x_deg=80.0, tilt=0.35),
            steps=6,
            # L1 only: SSIM windows stop at a region border, so a split
            # view's SSIM term legitimately differs from the whole-view
            # reference; the L1 term sums over regions exactly
            config=dict(system="gsscale", mem_limit=0.3, ssim_lambda=0.0),
            reference_rtol=SPLIT_REFERENCE_RTOL,
            guards=(
                Guard("regions_per_step", "==", 2),
                Guard("active_ratio", ">", 0.3),
                Guard("render.cull_share", ">=", 0.3),
            ),
        ),
        TrainWorkload(
            name="train_sparse",
            # 120k rows keep every (N, 49) float64 temporary of the saturation
            # flush above glibc's 32 MiB mmap ceiling: always mapped fresh,
            # so the flush costs the same every repeat (at 60k it swung 3x
            # with the allocator's reuse of freed heap)
            site=SiteSpec(extent=40.0, num_points=120_000, buildings_per_side=16),
            views=dict(altitude=6.0, rows=3, cols=3, width=48, height=36,
                       fov_x_deg=30.0, tilt=0.0),
            # two epochs: rows are revisited (deferred restore) and the
            # never-seen rows saturate their defer counters once (step 16)
            steps=18,
            config=dict(system="gsscale"),
            guards=(
                Guard("regions_per_step", "==", 1),
                Guard("active_ratio", "<=", 0.02),
                Guard("render.share", "<=", 0.25),
            ),
        ),
        TrainWorkload(
            name="train_outofcore",
            site=SiteSpec(extent=10.0, num_points=40_000),
            views=dict(altitude=9.0, rows=2, cols=4, width=64, height=48,
                       fov_x_deg=60.0, tilt=0.35),
            steps=8,
            # 16 shards, not 8: median cuts of a square site into 8 come out
            # 4x2 or 2x4 depending on the seed's last digits, and the
            # eviction cascade (page-ins per epoch) swung +-20% with it
            config=dict(system="outofcore", num_shards=16, resident_shards=2,
                        async_prefetch=True, prefetch_depth=2,
                        page_codec="raw", write_behind=False),
            view_order="locality",
            reference="sharded",
            guards=(
                Guard("page_in_count", ">", 0),
                Guard("page_out_count", ">", 0),
                Guard("pager.share", ">=", 0.25),
            ),
        ),
        ServeWorkload(
            name="serve_walk",
            site=SiteSpec(extent=10.0, num_points=20_000),
            frame_size=32,
            rounds=20,
            lag=3,
            num_shards=16,
            host_fraction=0.5,
            codec="float16",
            guards=(
                Guard("cache_hit_ratio", ">=", 0.15),
                Guard("cache_hit_ratio", "<=", 0.5),
                Guard("page_in_count", ">", 0),
            ),
        ),
    )
}
