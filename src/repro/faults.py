"""Deterministic fault injection for the chaos suite.

The fault-tolerance layer (supervised pools, checksummed pages, patch
checkpoint rotation, serving degradation) is only trustworthy if its
recovery paths run under test. This module makes faults *schedulable*: a
:class:`FaultPlan` names, ahead of time, exactly which fault fires where
— kill the worker that reaches task N, delay a shard kernel, tear or
corrupt the bytes of a matching file write — and the hooks compiled into
the hot paths (:func:`fault_point` in the raster kernels, the pool task
wrapper, every :class:`~repro.pool.Lane` task and the pager's page
writes, :func:`check_write_fault` in the atomic writers) consult the
installed plan and fire each fault exactly the scheduled number of times.

Two properties make the injected runs reproducible:

* **Cross-process exactly-once firing.** Pool workers, the training
  process, and the serving process may all visit the same fault point;
  each visit atomically claims the next ordinal for that fault via
  ``open(token, "x")`` in the plan's shared ``token_dir``, so "fire on
  the third visit, once" means the same thing whether the visits race
  across four workers or run serially in-process.
* **Zero-cost when disarmed.** Every hook starts with one module-global
  ``None`` check; production runs never pay more than that. Plans reach
  pool workers by riding the task pickles (see
  :class:`~repro.pool.PersistentPool`), never through
  inherited globals, so a plan installed after the pool spawned still
  governs its workers.

Kill-action faults only fire inside pool worker processes — firing one
in the driving process would take the test (or the user's session) down
with it; an in-process visit claims its ordinal and moves on.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import os
import signal
import time
from dataclasses import dataclass

__all__ = [
    "Fault",
    "FaultPlan",
    "FileFault",
    "InjectedFaultError",
    "active_plan",
    "check_write_fault",
    "clear_plan",
    "corrupt_file",
    "fault_point",
    "get_plan",
    "install_plan",
    "truncate_file",
]


class InjectedFaultError(RuntimeError):
    """Raised by ``raise``-action faults and simulated mid-write crashes."""


@dataclass(frozen=True)
class Fault:
    """One scheduled fault at a named :func:`fault_point`.

    Attributes:
        point: fault-point name (``"pool:task"``, ``"block:forward"``,
            ``"lane:prefetch"``, ``"pager:page_out"``,
            ``"pager:page_in"``, ``"serve:frame"``, ...).
        action: ``"kill"`` (SIGKILL the visiting pool worker),
            ``"delay"`` (sleep ``seconds``), or ``"raise"``
            (:class:`InjectedFaultError`).
        index: restrict to visits reporting this task index
            (``None`` matches any; ``"pool:task"`` reports the task's,
            ``"block:forward"`` the block's, ``"lane:*"`` the lane task's,
            ``"serve:frame"`` the frame's index in its ``render_frames``
            batch).
        after: skip this many eligible visits before firing.
        times: how many eligible visits fire (1 = exactly once).
        seconds: sleep length of a ``"delay"`` fault.
    """

    point: str
    action: str = "kill"
    index: int | None = None
    after: int = 0
    times: int = 1
    seconds: float = 0.0

    def __post_init__(self):
        if self.action not in ("kill", "delay", "raise"):
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.after < 0 or self.times < 1:
            raise ValueError("after must be >= 0 and times >= 1")


@dataclass(frozen=True)
class FileFault:
    """One scheduled write fault, matched against destination paths.

    Applied by the atomic writers in :mod:`repro.core.integrity` to the
    temp file *before* the rename, so the mangled bytes land at the final
    path exactly like a real torn write that a crash made durable.

    Attributes:
        match: substring of the destination path this fault arms for.
        kind: ``"torn"`` truncates the payload to ``keep_fraction``;
            ``"corrupt"`` flips ``length`` bytes at ``offset``.
        keep_fraction: surviving prefix fraction of a torn write.
        offset, length: byte range a ``"corrupt"`` fault inverts.
        crash: torn writes then raise :class:`InjectedFaultError` —
            a torn file only ever lands because the writer died mid-way,
            so the simulated tear simulates the crash too.
        after, times: as :class:`Fault` (counted per matching write).
    """

    match: str
    kind: str = "torn"
    keep_fraction: float = 0.5
    offset: int = 0
    length: int = 8
    crash: bool = True
    after: int = 0
    times: int = 1

    def __post_init__(self):
        if self.kind not in ("torn", "corrupt"):
            raise ValueError(f"unknown file-fault kind {self.kind!r}")
        if not 0.0 < self.keep_fraction < 1.0:
            raise ValueError("keep_fraction must be in (0, 1)")
        if self.after < 0 or self.times < 1:
            raise ValueError("after must be >= 0 and times >= 1")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, picklable schedule of faults.

    Attributes:
        token_dir: directory of the claim tokens — must be shared by
            every process the plan governs (the pool wrapper ships the
            plan itself through the task pickles; the filesystem carries
            the visit counts back).
        faults: :class:`Fault` entries armed at fault points.
        file_faults: :class:`FileFault` entries armed at atomic writes.
        seed: recorded for reports; the plan itself is deterministic.
    """

    token_dir: str
    faults: tuple[Fault, ...] = ()
    file_faults: tuple[FileFault, ...] = ()
    seed: int = 0


#: The process-local installed plan (``None`` = every hook is a no-op).
_PLAN: FaultPlan | None = None


def install_plan(plan: FaultPlan) -> None:
    """Arm ``plan`` in this process (creates its token dir)."""
    global _PLAN
    os.makedirs(plan.token_dir, exist_ok=True)
    _PLAN = plan


def clear_plan() -> None:
    """Disarm any installed plan in this process."""
    global _PLAN
    _PLAN = None


def get_plan() -> FaultPlan | None:
    """The currently installed plan (``None`` when disarmed)."""
    return _PLAN


@contextlib.contextmanager
def active_plan(plan: FaultPlan):
    """Context manager: install ``plan``, disarm on exit."""
    install_plan(plan)
    try:
        yield plan
    finally:
        clear_plan()


def _claim_ordinal(token_dir: str, fault_id: str) -> int:
    """Atomically claim this visit's global ordinal for ``fault_id``.

    ``open(..., "x")`` is atomic on every platform we run on, so racing
    visits — across processes included — each get a distinct ordinal.
    """
    n = 0
    while True:
        try:
            with open(os.path.join(token_dir, f"{fault_id}.{n}"), "x"):
                return n
        except FileExistsError:
            n += 1


def _in_worker_process() -> bool:
    return mp.current_process().name != "MainProcess"


def fault_point(name: str, index: int | None = None) -> None:
    """Visit the fault point ``name`` (no-op without an armed plan).

    Compiled into the vectorized forward's block tasks
    (``block:forward``), the supervised pool's task wrapper, every lane task
    (``lane:{name}``, :class:`~repro.pool.Lane`), ``PageFile.write``
    (``pager:page_out``), ``PageFile``'s read path (``pager:page_in``) and
    every frame a serving batch composites (``serve:frame``); ``index`` is
    the pool task, block, lane-task or frame index where one exists.
    """
    plan = _PLAN
    if plan is None:
        return
    for i, fault in enumerate(plan.faults):
        if fault.point != name:
            continue
        if fault.index is not None and fault.index != index:
            continue
        if fault.action == "kill" and not _in_worker_process():
            continue  # never take the driving process down
        ordinal = _claim_ordinal(plan.token_dir, f"f{i}")
        if not fault.after <= ordinal < fault.after + fault.times:
            continue
        if fault.action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif fault.action == "delay":
            time.sleep(fault.seconds)
        else:
            raise InjectedFaultError(
                f"injected fault at {name!r} (visit {ordinal})"
            )


def check_write_fault(path: str) -> FileFault | None:
    """The armed :class:`FileFault` for a write landing at ``path``.

    Claims the visit ordinal, so each matching write consumes one slot
    whether or not it fires. The atomic writers apply the returned fault
    to their temp file; ``None`` means write normally.
    """
    plan = _PLAN
    if plan is None:
        return None
    for i, fault in enumerate(plan.file_faults):
        if fault.match not in str(path):
            continue
        ordinal = _claim_ordinal(plan.token_dir, f"w{i}")
        if fault.after <= ordinal < fault.after + fault.times:
            return fault
    return None


def truncate_file(path: str, keep_fraction: float = 0.5) -> None:
    """Tear ``path`` in place (test helper for already-written files)."""
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:
        fh.truncate(max(1, int(size * keep_fraction)))


def corrupt_file(path: str, offset: int = 0, length: int = 8) -> None:
    """Flip ``length`` bytes of ``path`` at ``offset`` (test helper)."""
    size = os.path.getsize(path)
    if size == 0:
        return
    offset = min(offset, size - 1)
    length = min(length, size - offset)
    with open(path, "r+b") as fh:
        fh.seek(offset)
        chunk = fh.read(length)
        fh.seek(offset)
        fh.write(bytes(b ^ 0xFF for b in chunk))
