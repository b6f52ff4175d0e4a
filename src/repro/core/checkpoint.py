"""Training checkpoints: save and resume a system mid-run.

Long GS-Scale runs (30k iterations in the paper) need restartability. A
checkpoint captures, for every leaf parameter store of the system, the
committed parameter block, the optimizer moments, the deferred counters,
and the step counter — plus each store's column block and (for sharded
systems) its global row ids, so a packed model can be reassembled without
knowing the system's placement. Enough to resume training bit-exactly for
the dense systems and within the deferred approximation otherwise.

Out-of-core systems checkpoint without full materialization: ``finalize``
settles each shard one at a time under the resident-set budget, a spilled
:class:`~repro.core.stores.DiskStore` hands out its memory-mapped arrays
directly (so serialization streams from the spill files), and loading a
checkpoint into a spilled store writes straight back into the memmaps —
the resident working set never exceeds the budget on either path.

Durability: checkpoints are written atomically (temp + fsync + rename via
:func:`~repro.core.integrity.atomic_savez`), so a crash mid-save leaves
the previous checkpoint intact. On the read side, torn or unreadable
files surface as :class:`~repro.core.integrity.CorruptCheckpointError`
— naming the file, the failing block, and the expected/actual sizes —
instead of raw ``zipfile``/numpy errors, so recovery code (the patch
pipeline's last-good-checkpoint fallback) can route on the exception
type. Genuine *mismatches* (wrong version / system / scene size / shard
layout) stay ``ValueError``: those files are intact, just not the one
the caller wanted.
"""

from __future__ import annotations

import os
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np

from ..gaussians import GaussianModel, layout
from .integrity import CorruptCheckpointError, atomic_savez
from .systems import TrainingSystem

_FORMAT_VERSION = 2

#: Exception types that mean "the file is damaged", as opposed to the
#: intentional ValueErrors for version/system/layout mismatches.
_CORRUPTION_ERRORS = (
    zipfile.BadZipFile, zlib.error, EOFError, OSError, KeyError
)


def _file_size(path: str) -> int | None:
    try:
        return os.path.getsize(path)
    except OSError:
        return None


def _prefix(p: str) -> str:
    return f"{p}_" if p else ""


def _header(system: str, iteration: int, num_gaussians: int) -> dict[str, np.ndarray]:
    """The scalars every checkpoint starts with, as
    :class:`CheckpointReader` parses them."""
    return {
        "version": np.array(_FORMAT_VERSION),
        "system": np.array(system),
        "iteration": np.array(iteration),
        "num_gaussians": np.array(num_gaussians),
    }


def save_checkpoint(path: str, system: TrainingSystem) -> None:
    """Serialize ``system`` to an ``.npz`` checkpoint.

    Pending forwarded gradients and deferred drift are committed first
    (the checkpoint always holds a consistent, committed state). Spilled
    stores contribute their memmap views, so the host working set stays
    within the system's resident-set budget while writing.
    """
    system.finalize()
    arrays = _header(system.name, system.iteration, system.num_gaussians)
    for prefix, store, rows in system.checkpoint_entries():
        p = _prefix(prefix)
        for key, value in store.state_dict().items():
            arrays[p + key] = value
        arrays[p + "cols"] = np.array([store.block.start, store.block.stop])
        if rows is not None:
            arrays[p + "rows"] = rows
    atomic_savez(path, arrays)


def _open_checkpoint(path: str):
    """``np.load`` that reports unreadable files as corruption.

    Version/system/layout *mismatches* are checked after a successful
    open and stay ``ValueError`` — this wrapper only converts "cannot even
    parse the archive" failures.

    The file is opened here, not by ``np.load``: a zip parse that fails
    inside ``np.load(path)`` leaves numpy's own handle unclosed, so the
    handle is closed on every failure and handed to the archive on
    success (closing the archive closes it, as after ``np.load(path)``).
    """
    fh = None
    try:
        fh = open(path, "rb")
        data = np.load(fh, allow_pickle=False)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError(f"not an archive but {type(data).__name__}")
        # what np.load(path) sets: the archive owns the file from here
        data.fid, fh = fh, None
        return data
    except (*_CORRUPTION_ERRORS, ValueError) as exc:
        raise CorruptCheckpointError(
            path,
            detail=f"unreadable archive ({type(exc).__name__}: {exc})",
            actual=_file_size(path),
        ) from exc
    finally:
        if fh is not None:
            fh.close()


def load_checkpoint(path: str, system: TrainingSystem) -> None:
    """Restore a checkpoint into a freshly constructed ``system``.

    The system must have been created with the same configuration (system
    name, scene size, and — for sharded systems — shard layout) the
    checkpoint was saved from. A torn or unreadable file raises
    :class:`~repro.core.integrity.CorruptCheckpointError`; configuration
    mismatches raise ``ValueError``.
    """
    with CheckpointReader(path) as reader:
        if reader.system != system.name:
            raise ValueError(
                f"checkpoint is for system {reader.system!r}, got "
                f"{system.name!r}"
            )
        if reader.num_gaussians != system.num_gaussians:
            raise ValueError(
                f"checkpoint holds {reader.num_gaussians} Gaussians, "
                f"system has {system.num_gaussians}"
            )
        system.iteration = reader.iteration
        for prefix, store, rows in system.checkpoint_entries():
            info = reader.block(_prefix(prefix))
            if rows is not None and not np.array_equal(info.rows, rows):
                raise ValueError(
                    f"shard layout of store {prefix!r} differs from the "
                    "checkpoint (was the model or num_shards changed?)"
                )
            store.load_state_dict(reader.leaf_state(info))


def write_model_checkpoint(
    path: str,
    blocks: list[tuple[str, np.ndarray | None, np.ndarray]],
    *,
    system: str = "merged",
    iteration: int = 0,
    num_gaussians: int,
) -> None:
    """Write a params-only checkpoint from packed full-width row blocks.

    The inference-side counterpart of :func:`save_checkpoint`: no
    optimizer state, just committed ``(n_i, 59)`` parameter blocks, each
    given as ``(prefix, rows, params)`` — ``rows`` are the block's global
    row ids (``None`` means all ``num_gaussians`` rows in order). The
    result is a regular format-v2 checkpoint, so :func:`resume_model`,
    :class:`CheckpointReader`, and the serving stores load it like any
    trained one. The patch pipeline writes its merged model this way, one
    per-patch block at a time, so the fused scene never materializes as a
    single array during the merge.
    """
    arrays = _header(system, iteration, num_gaussians)
    covered = 0
    for prefix, rows, params in blocks:
        if params.ndim != 2 or params.shape[1] != layout.PARAM_DIM:
            raise ValueError(
                f"block {prefix!r} must be (n, {layout.PARAM_DIM}), "
                f"got {params.shape}"
            )
        if rows is not None and rows.size != params.shape[0]:
            raise ValueError(f"block {prefix!r}: rows do not match params")
        p = _prefix(prefix)
        arrays[p + "params"] = params
        arrays[p + "cols"] = np.array([0, layout.PARAM_DIM])
        if rows is not None:
            arrays[p + "rows"] = np.asarray(rows, dtype=np.int64)
        covered += params.shape[0] if rows is None else rows.size
    if covered != num_gaussians:
        raise ValueError(
            f"blocks cover {covered} rows, expected {num_gaussians}"
        )
    atomic_savez(path, arrays)


def validate_checkpoint(path: str, deep: bool = False) -> str | None:
    """Check a checkpoint for corruption; ``None`` when it looks good.

    Returns the failure detail string otherwise (missing file, torn
    archive, unreadable header). With ``deep=True`` every parameter
    block is decompressed — catching tears past the archive index that a
    shallow open slides over — at the cost of reading the whole file.
    """
    if not os.path.exists(path):
        return f"missing checkpoint {path}"
    try:
        with CheckpointReader(path) as reader:
            if deep:
                for info in reader.blocks():
                    reader.block_params(info)
    except (CorruptCheckpointError, ValueError) as exc:
        return str(exc)
    return None


def resume_model(path: str) -> GaussianModel:
    """Extract just the (committed) Gaussian model from a checkpoint.

    Reassembles the packed ``(N, 59)`` matrix from every store's column
    block and row ids, independent of the placement that produced it.
    """
    with CheckpointReader(path) as reader:
        params = reader.assemble_columns(slice(0, layout.PARAM_DIM))
        return GaussianModel(params)


@dataclass(frozen=True)
class CheckpointBlockInfo:
    """Location of one store's parameter block inside a checkpoint.

    Attributes:
        prefix: key prefix of the block's arrays (``""``, ``"geo_"``,
            ``"shard3_host_"``, ...).
        start, stop: packed-layout column range the block covers.
        rows: global row ids of a sharded block, ``None`` for all rows.
    """

    prefix: str
    start: int
    stop: int
    rows: np.ndarray | None


class CheckpointReader:
    """Read-only, block-at-a-time view of a checkpoint.

    The serving subsystem opens trained — possibly spilled, larger-than-
    host — checkpoints through this reader instead of
    :func:`resume_model`: ``.npz`` members decompress lazily on access, so
    iterating :meth:`iter_column_blocks` touches one store's block at a
    time and the full packed ``(N, 59)`` matrix is never materialized.
    Peak transient memory is bounded by the largest single block (one
    shard's columns for sharded/out-of-core checkpoints). It is the
    format's one parser: :func:`load_checkpoint` reads through it too.
    """

    def __init__(self, path: str):
        self._path = path
        self._data = _open_checkpoint(path)
        try:
            version = int(self._data["version"])
            if version != _FORMAT_VERSION:
                raise ValueError(f"unsupported checkpoint version {version}")
            self.num_gaussians = int(self._data["num_gaussians"])
            self.system = str(self._data["system"])
            self.iteration = int(self._data["iteration"])
            self._blocks = []
            for key in self._data.files:
                if not key.endswith("cols"):
                    continue
                p = key[: -len("cols")]
                start, stop = (int(c) for c in self._data[key])
                rows = (
                    self._data[p + "rows"]
                    if p + "rows" in self._data else None
                )
                self._blocks.append(CheckpointBlockInfo(p, start, stop, rows))
        except _CORRUPTION_ERRORS as exc:
            self._data.close()
            raise CorruptCheckpointError(
                path,
                detail=f"header/index unreadable ({type(exc).__name__}: {exc})",
                actual=_file_size(path),
            ) from exc
        except Exception:
            self._data.close()
            raise
        # deterministic order: by column range, then shard rows
        self._blocks.sort(key=lambda b: (b.start, b.prefix))

    def blocks(self) -> list[CheckpointBlockInfo]:
        """Every stored block's location (no parameter data loaded)."""
        return list(self._blocks)

    def block(self, prefix: str) -> CheckpointBlockInfo:
        """The block stored under ``prefix``; a checkpoint without it is
        damaged (:class:`~repro.core.integrity.CorruptCheckpointError`)."""
        for info in self._blocks:
            if info.prefix == prefix:
                return info
        raise CorruptCheckpointError(
            self._path,
            block=prefix or "(root)",
            detail="no such block",
            actual=_file_size(self._path),
        )

    def _member_size(self, key: str) -> int | None:
        """Uncompressed size the archive index promises for one member."""
        try:
            info = self._data.zip.NameToInfo.get(key + ".npy")
        except AttributeError:
            return None
        return None if info is None else int(info.file_size)

    def block_params(self, info: CheckpointBlockInfo) -> np.ndarray:
        """Committed parameter values of one block (loads only it)."""
        return self._member(info.prefix + "params")

    def leaf_state(self, info: CheckpointBlockInfo) -> dict[str, np.ndarray]:
        """One leaf store's saved state (parameters, both moments, step
        count and, for a deferred leaf, its counters), keyed as the
        store's ``load_state_dict`` takes it."""
        return {
            key: self._member(info.prefix + key)
            for key in ("params", "m", "v", "steps", "counter")
            if info.prefix + key in self._data
        }

    def _member(self, key: str) -> np.ndarray:
        """One ``.npz`` member. A truncated or undecodable member raises
        :class:`~repro.core.integrity.CorruptCheckpointError` carrying
        the file, the member, and expected/actual sizes.
        """
        try:
            return np.asarray(self._data[key])
        except (*_CORRUPTION_ERRORS, ValueError) as exc:
            raise CorruptCheckpointError(
                self._path,
                block=key,
                detail=f"{type(exc).__name__}: {exc}",
                expected=self._member_size(key),
                actual=_file_size(self._path),
            ) from exc

    def iter_column_blocks(self, cols: slice):
        """Yield ``(rows, col_slice, values)`` for blocks touching ``cols``.

        ``rows`` are global row ids (``None`` means all rows in order),
        ``col_slice`` the packed-layout columns covered, and ``values``
        the matching slice of that block — loaded lazily, one block per
        iteration, so callers can stream a column range into any layout
        without holding more than one block.
        """
        for info in self._blocks:
            lo = max(info.start, cols.start)
            hi = min(info.stop, cols.stop)
            if lo >= hi:
                continue
            block = self.block_params(info)
            yield info.rows, slice(lo, hi), block[:, lo - info.start : hi - info.start]

    def assemble_columns(self, cols: slice) -> np.ndarray:
        """Materialize one packed-layout column range for all rows.

        Bounded by ``N * (cols.stop - cols.start)`` output floats plus one
        block of transient state; the serving store uses this for the
        always-resident geometric columns (17% of the matrix).
        """
        out = None
        covered = 0
        for rows, csl, values in self.iter_column_blocks(cols):
            if out is None:
                out = np.empty(
                    (self.num_gaussians, cols.stop - cols.start),
                    dtype=values.dtype,
                )
            elif np.result_type(out.dtype, values.dtype) != out.dtype:
                # blocks may disagree on dtype (a checkpoint file is
                # outside input: it may hold half-precision blocks next
                # to float64 geometry): promote so no block loses
                # precision
                out = out.astype(np.result_type(out.dtype, values.dtype))
            dst = slice(csl.start - cols.start, csl.stop - cols.start)
            if rows is None:
                out[:, dst] = values
                covered += (csl.stop - csl.start) * self.num_gaussians
            else:
                out[rows, dst] = values
                covered += (csl.stop - csl.start) * rows.size
        want = (cols.stop - cols.start) * self.num_gaussians
        if out is None or covered != want:
            raise ValueError(
                f"checkpoint does not cover columns [{cols.start}:{cols.stop})"
            )
        return out

    def close(self) -> None:
        """Release the underlying file handle."""
        self._data.close()

    def __enter__(self) -> "CheckpointReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
