"""RenderService: batched multi-client inference over a trained model.

The serving vertical the training stack was missing: a
:class:`RenderService` owns a read-only :class:`~repro.serve.store.\
ServingStore` (in-memory, or :class:`~repro.serve.store.\
PagedServingStore` for models over a host byte budget), an optional
:class:`~repro.serve.lod.LODSet` and a pose-keyed
:class:`~repro.serve.cache.FrameCache`. Clients :meth:`~RenderService.\
submit` :class:`RenderRequest` objects; each :meth:`~RenderService.tick`
drains the queue as one batch:

1. resolve each request's camera (optional width/height override scales
   the intrinsics) and frame key (pose + size + LOD + model version);
2. serve cache hits;
3. deduplicate the misses — identical frames wanted by many clients
   render once;
4. render the unique frames as one batch through
   :func:`~repro.serve.farm.render_frames`: cull every frame, gather
   **once** for the union of their visible rows (a paged store pages
   each shard at most once per tick, resident pages first), composite
   each frame from its slice, so a full-LOD served frame is
   bit-identical to a direct :func:`repro.render.pipeline.render` call;
5. fill the cache and answer every request in submission order.

Serving defaults to the raster stack's inference fast path
(``vectorized`` engine, ``dtype="float32"``). :meth:`~RenderService.\
swap_model` hot-swaps the served model: the version bump plus an eager
cache flush guarantee no post-swap request is ever answered with a
pre-swap frame.

Overload and faults degrade gracefully instead of growing the queue or
killing the tick (:class:`ServeConfig`):

* requests older than ``deadline_s`` at tick time are answered
  ``rejected``/``deadline`` immediately (rendering them would only make
  every later request later);
* when the unique-miss count exceeds ``max_frames_per_tick``, pending
  misses are *degraded* one LOD at a time — coarser frames are cheaper
  and re-key onto warmer cache entries — before anything is rejected
  with ``overload``;
* one poisoned frame (a quarantined page, a raster error) fails alone:
  its requests answer ``status="error"`` with the reason while the rest
  of the batch serves: a batch that fails — in its union gather or
  any frame's composite — is retried frame by frame rather than failing
  every frame in it.

Every request submitted is always answered — ok, degraded, rejected
(with reason), or error (with reason) — never dropped or deadlocked.
:class:`ServeStats` counts what the service decided; the store and the
phase spans keep the rest (see :class:`ServeStats`).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from ..cameras.camera import Camera
from ..gaussians.model import GaussianModel
from ..render.rasterize import RasterConfig
from ..telemetry import trace as _trace
from ..telemetry.trace import span as _span
from .cache import FrameCache, frame_key
from .farm import FrameTask, render_frames
from .lod import LODSet
from .store import InMemoryServingStore, PagedServingStore, ServingStore

__all__ = [
    "RenderRequest",
    "RenderResponse",
    "RenderService",
    "ServeConfig",
    "ServeStats",
    "default_serve_raster_config",
    "requests_from_cameras",
]


def default_serve_raster_config() -> RasterConfig:
    """Serving renders forward-only: the float32 fast path of the flat
    vectorized engine is the default (training keeps full precision)."""
    return RasterConfig(engine="vectorized", dtype="float32")


@dataclass(frozen=True)
class ServeConfig:
    """Overload and fault-handling knobs for a :class:`RenderService`.

    The defaults reproduce the unguarded service exactly: no deadline,
    no admission limit.

    Attributes:
        deadline_s: per-request freshness budget. A request that has
            been queued longer than this at tick time answers
            ``rejected``/``deadline`` instead of rendering (``None``
            disables the check).
        max_frames_per_tick: admission limit on *unique rendered frames*
            per tick (cache hits are free and never count). Overflow is
            first degraded — pending misses bumped one LOD coarser at a
            time; coarser frames cost less and re-key onto warmer cache
            entries — and only what still exceeds the limit at the
            coarsest level is rejected with reason ``overload``
            (``None`` = unlimited).
    """

    deadline_s: float | None = None
    max_frames_per_tick: int | None = None

    def __post_init__(self):
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")
        if (
            self.max_frames_per_tick is not None
            and self.max_frames_per_tick < 1
        ):
            raise ValueError("max_frames_per_tick must be >= 1 (or None)")


@dataclass(frozen=True)
class RenderRequest:
    """One client's frame request.

    Attributes:
        camera: requested viewpoint (pose + intrinsics).
        width, height: optional output-size override; the camera's
            intrinsics are rescaled proportionally (``None`` keeps the
            camera's own size).
        lod: level-of-detail index into the service's LOD set
            (0 = full detail).
    """

    camera: Camera
    width: int | None = None
    height: int | None = None
    lod: int = 0

    def resolved_camera(self) -> Camera:
        """The camera actually rendered (size override applied)."""
        if self.width is None and self.height is None:
            return self.camera
        width = self.width if self.width is not None else self.camera.width
        height = self.height if self.height is not None else self.camera.height
        if width < 1 or height < 1:
            raise ValueError(f"invalid request size {width}x{height}")
        if width == self.camera.width and height == self.camera.height:
            return self.camera
        sx = width / self.camera.width
        sy = height / self.camera.height
        return replace(
            self.camera,
            width=width,
            height=height,
            fx=self.camera.fx * sx,
            fy=self.camera.fy * sy,
            cx=self.camera.cx * sx,
            cy=self.camera.cy * sy,
        )


@dataclass
class RenderResponse:
    """One served frame (or the reason there is none).

    Attributes:
        request: the request this answers.
        image: composited RGB ``(H, W, 3)`` (read-only when it came from
            or went into the cache); ``None`` for rejected/errored
            requests.
        lod: level the frame was rendered at (for a degraded response,
            coarser than the request asked for).
        cache_hit: whether the frame came from the pose-keyed cache.
        batch_size: unique frames rendered by the tick that served this.
        latency_s: wall-clock seconds from tick start to batch completion.
        status: ``"ok"`` | ``"degraded"`` (served coarser than asked) |
            ``"rejected"`` (never rendered) | ``"error"`` (render failed).
        reason: why a non-ok response is non-ok (``"deadline"``,
            ``"overload"``, or the render error text).
    """

    request: RenderRequest
    image: np.ndarray | None
    lod: int
    cache_hit: bool
    batch_size: int
    latency_s: float
    status: str = "ok"
    reason: str = ""

    @property
    def ok(self) -> bool:
        """Whether a frame was delivered (full or degraded detail)."""
        return self.image is not None


@dataclass
class ServeStats:
    """Service-lifetime counts of what the service decided: requests
    taken, ticks run, frames rendered, cache hits and misses, dedupes,
    swaps, busy time, and the degrade / reject / error verdicts.

    Every other serving count has one record elsewhere. Running totals
    of the in-process store's work are the store's
    (:attr:`~repro.serve.store.ServingStore.rows_projected`,
    ``rows_gathered``, ``shards_touched``, a paged store's ledger
    ``page_in_count`` and its ``quarantined`` set). What one tick did is
    on the phase spans that did it — ``serve/cull``'s ``candidates``,
    ``serve/gather``'s ``rows``, one ``serve/page_in`` per page-in.
    """

    requests: int = 0
    ticks: int = 0
    frames_rendered: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    deduped: int = 0
    model_swaps: int = 0
    busy_s: float = 0.0
    degraded: int = 0
    rejected: int = 0
    deadline_rejects: int = 0
    render_errors: int = 0

    def as_dict(self) -> dict:
        """Plain-dict view (for JSON benchmark payloads)."""
        return dict(vars(self))


@dataclass
class _PlanEntry:
    """Mutable per-request state threaded through one tick."""

    request: RenderRequest
    lod: int = 0
    camera: Camera | None = None
    key: bytes = b""
    cached: np.ndarray | None = None
    status: str = "pending"  # "pending" | "rejected"
    reason: str = ""
    degraded: bool = False


class RenderService:
    """Serve render requests from a trained (possibly paged) model.

    Args:
        store: the served model's placement; a
            :class:`~repro.gaussians.model.GaussianModel` is wrapped in
            an :class:`~repro.serve.store.InMemoryServingStore`.
        lod_set: nested LOD subsets; ``None`` restricts requests to
            ``lod=0`` (full detail).
        cache_bytes: frame-cache byte budget; ``0`` disables caching.
        config: raster backend knobs; defaults to
            :func:`default_serve_raster_config`.
        background: render background color (black when ``None``).
        serve_config: overload/fault-handling knobs
            (:class:`ServeConfig`); defaults to the unguarded service.
    """

    def __init__(
        self,
        store: ServingStore | GaussianModel,
        lod_set: LODSet | None = None,
        cache_bytes: int = 64 * 1024 * 1024,
        config: RasterConfig | None = None,
        background: np.ndarray | None = None,
        serve_config: ServeConfig | None = None,
    ):
        if isinstance(store, GaussianModel):
            store = InMemoryServingStore.from_model(store)
        self.config = config if config is not None else default_serve_raster_config()
        self.store = store
        self.lod_set = lod_set
        self.background = background
        self.serve_config = (
            serve_config if serve_config is not None else ServeConfig()
        )
        self.cache = FrameCache(cache_bytes) if cache_bytes else None
        self.model_version = 0
        self.stats = ServeStats()
        # a deque: append and popleft are atomic, so submitters on other
        # threads need no lock against the one ticking thread
        self._queue: deque[tuple[RenderRequest, float]] = deque()

    # -- model lifecycle ---------------------------------------------------
    @classmethod
    def from_checkpoint(
        cls,
        path: str,
        host_budget_bytes: int | None = None,
        num_shards: int = 4,
        page_dir: str | None = None,
        codec: str = "raw",
        **kwargs,
    ) -> "RenderService":
        """Open a trained checkpoint for serving.

        With ``host_budget_bytes`` set, the checkpoint streams into a
        :class:`~repro.serve.store.PagedServingStore` (read-only open,
        no full materialization — see
        :class:`~repro.core.checkpoint.CheckpointReader`); ``codec``
        then selects the on-disk page encoding (half-size ``"float16"``
        pages halve the budget's disk traffic). Otherwise the committed
        model loads in-memory.
        """
        if host_budget_bytes is None:
            store: ServingStore = InMemoryServingStore.from_checkpoint(path)
        else:
            store = PagedServingStore.from_checkpoint(
                path, host_budget_bytes,
                num_shards=num_shards, page_dir=page_dir, codec=codec,
            )
        return cls(store, **kwargs)

    def swap_model(
        self,
        store: ServingStore | GaussianModel,
        lod_set: LODSet | None = None,
    ) -> None:
        """Hot-swap the served model.

        Bumps the model version (pre-swap frame keys can never match
        again), flushes the pose-keyed cache eagerly, and closes the old
        store. LOD sets are model-specific, so the new one must be
        supplied (or omitted for full-detail-only).
        Requests already queued against a taller old LOD ladder are
        clamped to the new set's coarsest level at the next tick rather
        than dropped.
        """
        if isinstance(store, GaussianModel):
            store = InMemoryServingStore.from_model(store)
        old = self.store
        self.store = store
        self.lod_set = lod_set
        self.model_version += 1
        self.stats.model_swaps += 1
        if self.cache is not None:
            self.cache.invalidate()
        if old is not store:
            old.close()

    # -- request path ------------------------------------------------------
    def submit(self, request: RenderRequest) -> None:
        """Queue a request for the next :meth:`tick`.

        Safe to call from any thread, concurrently with other submitters
        and with the tick: each request is answered by exactly one tick.
        """
        self._validate(request)
        self._queue.append((request, time.monotonic()))

    def _validate(self, request: RenderRequest) -> int:
        num_levels = 1 if self.lod_set is None else self.lod_set.num_levels
        if not 0 <= request.lod < num_levels:
            raise ValueError(
                f"request lod {request.lod} out of range [0, {num_levels}) "
                f"{'(no LOD set loaded)' if self.lod_set is None else ''}"
            )
        request.resolved_camera()  # validates the size override
        return request.lod

    def _key_and_probe(self, entry: _PlanEntry) -> None:
        """(Re)key an entry at its current LOD and probe the cache."""
        entry.key = frame_key(entry.camera, entry.lod, self.model_version)
        entry.cached = (
            self.cache.get(entry.key) if self.cache is not None else None
        )

    def _miss_keys(self, plan: list[_PlanEntry]) -> set[bytes]:
        """Unique frames the tick would have to render right now."""
        return {
            e.key
            for e in plan
            if e.status == "pending" and e.cached is None
        }

    def _admit(self, plan: list[_PlanEntry], num_levels: int) -> None:
        """Fit the pending misses into the tick's admission budget.

        Degradation first: bump every pending miss one LOD coarser per
        round — coarser levels are cheaper *and* re-key onto cache
        entries earlier requests already warmed — until the unique-miss
        count fits or everything sits at the coarsest level.
        Whatever still exceeds the budget is rejected with ``overload``,
        keeping the first admitted keys in submission order.
        """
        budget = self.serve_config.max_frames_per_tick
        if budget is None:
            return
        if num_levels > 1:
            while len(self._miss_keys(plan)) > budget:
                bumped = False
                for e in plan:
                    if (
                        e.status == "pending"
                        and e.cached is None
                        and e.lod < num_levels - 1
                    ):
                        e.lod += 1
                        e.degraded = True
                        self._key_and_probe(e)
                        bumped = True
                if not bumped:
                    break
        if len(self._miss_keys(plan)) <= budget:
            return
        kept: set[bytes] = set()
        for e in plan:
            if e.status != "pending" or e.cached is not None:
                continue
            if e.key in kept:
                continue
            if len(kept) < budget:
                kept.add(e.key)
            else:
                e.status, e.reason = "rejected", "overload"

    def _render_tasks(self, tasks, images, errors) -> None:
        """Render unique frames into ``images``; one poisoned frame fails
        alone.

        The batch is all-or-nothing — the one union gather of
        :func:`~repro.serve.farm.render_frames` raises if any shard it
        touches is quarantined — so a failed batch (a poisoned task, a
        corrupt page) is retried frame by frame, where each exception is
        contained to its own frame's entry in ``errors``. Both dicts are
        keyed by frame key.
        """
        if not tasks:
            return
        drop = self.lod_set.drop_level if self.lod_set is not None else None
        try:
            batch = render_frames(self.store, drop, [t for _, t in tasks])
        except Exception as exc:  # noqa: BLE001 - containment boundary
            if len(tasks) > 1:
                for item in tasks:
                    self._render_tasks([item], images, errors)
            else:
                errors[tasks[0][0]] = f"{type(exc).__name__}: {exc}"
                self.stats.render_errors += 1
        else:
            images.update(zip((k for k, _ in tasks), batch))

    def tick(self) -> list[RenderResponse]:
        """Serve every queued request as one batch (submission order).

        Every queued request gets a response: ``ok``, ``degraded``,
        ``rejected`` (with reason), or ``error`` (with reason) — the
        tick never raises for a single bad frame and never drops a
        request on the floor. ``tick`` has one caller: the thread that
        drives the service (:meth:`submit` may run on any other).
        """
        queue = [self._queue.popleft() for _ in range(len(self._queue))]
        if not queue:
            return []
        with _span("serve/tick", "serve") as tick_span:
            return self._serve_batch(queue, tick_span)

    def _serve_batch(self, queue, tick_span) -> list[RenderResponse]:
        """The tick proper, inside its ``serve/tick`` span (which leaves
        with the count of frames rendered)."""
        t0 = time.perf_counter()
        now = time.monotonic()
        self.stats.ticks += 1
        self.stats.requests += len(queue)
        deadline_s = self.serve_config.deadline_s

        # 1-2: keys + cache hits. The lod is re-clamped against the
        # *current* LOD set: a hot swap may have shrunk the ladder since
        # the request was validated, and losing the whole batch over a
        # stale level would be worse than serving it at the coarsest
        # surviving level. Requests already past their deadline reject
        # up front: rendering them only delays everything younger.
        num_levels = 1 if self.lod_set is None else self.lod_set.num_levels
        plan: list[_PlanEntry] = []
        for request, submitted in queue:
            entry = _PlanEntry(request=request, lod=request.lod)
            if deadline_s is not None and now - submitted > deadline_s:
                entry.status, entry.reason = "rejected", "deadline"
                self.stats.deadline_rejects += 1
            else:
                entry.lod = min(request.lod, num_levels - 1)
                entry.camera = request.resolved_camera()
                self._key_and_probe(entry)
            plan.append(entry)

        # 3: admission (degrade, then reject) + dedupe into unique frames
        self._admit(plan, num_levels)
        unique: dict[bytes, FrameTask] = {}
        for e in plan:
            if (
                e.status == "pending"
                and e.cached is None
                and e.key not in unique
            ):
                sh_degree = (
                    self.lod_set.sh_degree(e.lod)
                    if self.lod_set is not None
                    else self.config_sh_degree()
                )
                unique[e.key] = FrameTask(
                    camera=e.camera,
                    lod=e.lod,
                    sh_degree=sh_degree,
                    config=self.config,
                    background=self.background,
                )

        # 4: render the unique frames (one cull / gather / composite
        # batch), each failure contained to its own frame
        tasks = list(unique.items())
        images: dict[bytes, np.ndarray] = {}
        errors: dict[bytes, str] = {}
        with _span("serve/render", "serve", frames=len(tasks)):
            self._render_tasks(tasks, images, errors)

        # 5: fill the cache, answer in submission order. Responses must
        # alias the *stored* array: put() freezes it (snapshotting
        # renderer-buffer views), so clients cannot poison later hits.
        if self.cache is not None:
            for key, image in images.items():
                images[key] = self.cache.put(key, image)
        elapsed = time.perf_counter() - t0
        self.stats.busy_s += elapsed
        self.stats.frames_rendered += len(images)
        responses = []
        misses = 0
        for e in plan:
            if e.status == "rejected":
                self.stats.rejected += 1
                image, hit, status, reason = None, False, "rejected", e.reason
            elif e.cached is not None:
                self.stats.cache_hits += 1
                image, hit = e.cached, True
                status = "degraded" if e.degraded else "ok"
                reason = "overload" if e.degraded else ""
            else:
                self.stats.cache_misses += 1
                misses += 1
                hit = False
                image = images.get(e.key)
                if image is not None:
                    status = "degraded" if e.degraded else "ok"
                    reason = "overload" if e.degraded else ""
                else:
                    status = "error"
                    reason = errors.get(e.key, "frame not rendered")
            if status == "degraded":
                self.stats.degraded += 1
            responses.append(
                RenderResponse(
                    request=e.request,
                    image=image,
                    lod=e.lod,
                    cache_hit=hit,
                    batch_size=len(images),
                    latency_s=elapsed,
                    status=status,
                    reason=reason,
                )
            )
        self.stats.deduped += misses - len(tasks)
        tick_span.set(frames=len(images))
        if _trace.enabled():
            tracer = _trace.get_tracer()
            t_end = time.perf_counter()
            for resp in responses:
                attrs = {
                    "status": resp.status,
                    "lod": resp.lod,
                    "latency_s": resp.latency_s,
                }
                if resp.reason:
                    attrs["reason"] = resp.reason
                tracer.record(
                    "serve/request", t0, t_end, cat="serve", attrs=attrs
                )
        return responses

    def config_sh_degree(self) -> int:
        """SH degree served without a LOD set (the model's full degree)."""
        from ..gaussians.layout import SH_DEGREE

        return SH_DEGREE

    def render(self, request: RenderRequest) -> RenderResponse:
        """Serve one request immediately.

        Ticks the whole queue (earlier :meth:`submit` calls ride along in
        the same batch) and returns the response to *this* request.
        """
        self.submit(request)
        return next(
            resp for resp in self.tick() if resp.request is request
        )

    def serve(self, requests: list[RenderRequest]) -> list[RenderResponse]:
        """Serve a request trace as one batched tick per call."""
        for request in requests:
            self.submit(request)
        return self.tick()

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Release the store's pages."""
        self.store.close()

    def __enter__(self) -> "RenderService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def requests_from_cameras(
    cameras: list[Camera],
    lod: int = 0,
    width: int | None = None,
    height: int | None = None,
) -> list[RenderRequest]:
    """Wrap a camera trajectory as a request trace.

    Client sessions are camera trajectories — an orbit inspection, a
    walkthrough (:func:`repro.cameras.trajectories.orbit` /
    :func:`~repro.cameras.trajectories.walkthrough`) — plus a quality
    tier; this adapts one to the service's request model.
    """
    return [
        RenderRequest(camera=cam, lod=lod, width=width, height=height)
        for cam in cameras
    ]
