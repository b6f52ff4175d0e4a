"""Page codecs for the out-of-core disk tier.

A :class:`PageCodec` turns a resident ``(N, dim)`` parameter/moment array
into the byte string stored on disk and back. The disk tier's effective
bandwidth is ``decoded_bytes / encoded_bytes`` times the raw device
bandwidth, so a 2x codec halves every page-in/page-out transfer — the
:class:`~repro.core.systems.TransferLedger` meters both sides of that
ratio (``page_in_bytes`` in fp32-equivalent accounting vs
``page_in_disk_bytes`` as actually stored).

Three codecs, all stdlib-only and deterministic:

* ``raw`` — identity. :class:`~repro.core.stores.DiskStore` and the
  serving shards special-case it to keep today's memory-mapped spill
  files (zero behavioral change; the bit-identity suites pin this).
* ``float16`` — non-geometric columns (SH coefficients, Adam moments)
  quantized to half precision in a signed-sqrt domain behind an exact
  per-column power-of-two scale (so tiny optimizer moments don't flush
  to zero and large coefficients don't clip). Lossy but *idempotent*:
  re-encoding a
  decoded page reproduces the same bytes, so repeated
  spill/page-in/spill cycles converge after the first quantization
  instead of drifting.
* ``lossless`` — byte-shuffle + zlib. Bit-exact for any dtype: the
  shuffle groups the k-th byte of every float together (exponent bytes
  compress far better than mantissa noise), which is what makes zlib
  worthwhile on floating-point pages at all.

Encoded page *files* are sealed: :meth:`PageCodec.encode_page` frames
the codec payload with the :mod:`repro.core.integrity` GSP1 header
(magic + length + CRC32) and :meth:`PageCodec.decode_page` validates it,
so a torn or bit-rotted ``.pagez`` surfaces as a
:class:`~repro.core.integrity.CorruptPageError` naming the file instead
of an opaque decode error. The seal lives at the file layer, not inside
``encode``/``decode`` — compression-ratio accounting and the codec
round-trip contract see pure payload bytes.
"""

from __future__ import annotations

import zlib

import numpy as np

from .integrity import seal_page, unseal_page

__all__ = ["PageCodec", "PAGE_CODECS", "get_page_codec"]


class PageCodec:
    """Encode/decode one page (a 2-D array) to/from bytes.

    Attributes:
        name: registry key (also embedded in encoded page filenames).
        lossless: whether ``decode(encode(x)) == x`` bit-exactly.
    """

    name: str = "abstract"
    lossless: bool = True
    #: dtype spilled state checkpoints in (``None`` = the store dtype).
    #: The scaled float16 codec keeps this ``None``: its decoded values
    #: can exceed half precision's native range (the per-column scale
    #: re-centers them), so checkpoints store the decoded store-dtype
    #: arrays rather than re-narrowing
    storage_dtype = None

    def encode(self, arr: np.ndarray) -> bytes:
        raise NotImplementedError

    def decode(self, buf: bytes, shape: tuple, dtype) -> np.ndarray:
        raise NotImplementedError

    def encode_page(self, arr: np.ndarray) -> bytes:
        """Encode and seal one page for on-disk storage."""
        return seal_page(self.encode(arr))

    def decode_page(self, buf: bytes, shape: tuple, dtype,
                    path: str = "") -> np.ndarray:
        """Validate a sealed page and decode its payload.

        Raises :class:`~repro.core.integrity.CorruptPageError` (tagged
        with ``path``) when the seal does not check out.
        """
        return self.decode(unseal_page(buf, path), shape, dtype)


class RawCodec(PageCodec):
    """Identity codec (native-dtype bytes, no transform)."""

    name = "raw"
    lossless = True

    def encode(self, arr: np.ndarray) -> bytes:
        return np.ascontiguousarray(arr).tobytes()

    def decode(self, buf: bytes, shape: tuple, dtype) -> np.ndarray:
        return np.frombuffer(buf, dtype=dtype).reshape(shape).copy()


class Float16Codec(PageCodec):
    """Half-precision quantization in a signed-sqrt domain with
    per-column power-of-two scaling (2 bytes/value plus a 2-byte
    exponent per column on disk).

    Values are mapped to ``sign(x) * sqrt(|x|)`` and each column is
    divided by ``2**k`` (``k`` chosen so the column's max magnitude
    lands in ``[0.5, 1)``) before the half-precision cast; decode
    multiplies the scale back and squares. Both tricks exist for Adam
    second moments: ``v ~ grad**2`` spans ~24 decades within one column
    (nearly-converged rows at ``1e-14`` next to active rows at ``1e-2``)
    — far past f16's ~12-decade window — and any ``v`` that flushes to
    zero turns ``m / (sqrt(v) + eps)`` into a huge step that detonates
    the trajectory a few spills later. The sqrt halves the dynamic
    range in log space (``1e-14..1e-2`` becomes ``1e-7..1e-1``), and
    the power-of-two scale — *exact* in binary floating point — centers
    it in half precision's sweet spot. Large SH coefficients likewise
    no longer clip at f16's 65504 ceiling.

    The codec stays idempotent: a decoded value is ``s * |s|`` where
    ``s`` carries an 11-bit significand times a power of two, so its
    square is exactly representable in float64 and the correctly
    rounded ``sqrt`` on re-encode recovers ``s`` bit-exactly. Repeated
    spill/page-in cycles therefore converge after the first
    quantization instead of drifting. The precision cost of squaring is
    a factor of two in relative error (~``5e-4``).
    """

    name = "float16"
    lossless = False

    def encode(self, arr: np.ndarray) -> bytes:
        a = np.ascontiguousarray(arr, dtype=np.float64)
        if a.ndim != 2:
            a = a.reshape(a.shape[0], -1)
        root = np.sign(a) * np.sqrt(np.abs(a))
        maxabs = (
            np.max(np.abs(root), axis=0) if a.size else np.zeros(a.shape[1])
        )
        # frexp: maxabs = m * 2**e with m in [0.5, 1) -> column / 2**e
        # lands in [0.5, 1]; zero columns get e = 0
        _, exps = np.frexp(maxabs)
        exps = exps.astype(np.int16)
        scaled = np.ldexp(root, -exps.astype(np.int64)[None, :])
        return exps.astype("<i2").tobytes() + np.ascontiguousarray(
            scaled, dtype="<f2"
        ).tobytes()

    def decode(self, buf: bytes, shape: tuple, dtype) -> np.ndarray:
        ncols = int(shape[-1]) if len(shape) > 1 else 1
        head = 2 * ncols
        exps = np.frombuffer(buf, dtype="<i2", count=ncols).astype(np.int64)
        # the widening cast is the one page-sized float64 buffer; the
        # scale and the square then run in place on it
        root = (
            np.frombuffer(buf, dtype="<f2", offset=head)
            .astype(np.float64)
            .reshape(-1, ncols)
        )
        np.ldexp(root, exps[None, :], out=root)
        np.multiply(root, np.abs(root), out=root)
        return root.astype(dtype, copy=False).reshape(shape)


class LosslessCodec(PageCodec):
    """Byte-shuffle + zlib: bit-exact, compresses float structure.

    The shuffle transposes the page's bytes so all first-bytes come
    first, then all second-bytes, ...: sign/exponent bytes of nearby
    parameters are highly repetitive (and Adam moments start as runs of
    zeros), so zlib finds the redundancy the interleaved layout hides.
    """

    name = "lossless"
    lossless = True

    #: zlib level 1: the disk tier trades a few percent of ratio for
    #: encode speed — the spill sits on (or near) the training thread.
    level = 1

    def encode(self, arr: np.ndarray) -> bytes:
        contiguous = np.ascontiguousarray(arr)
        itemsize = contiguous.itemsize
        shuffled = (
            contiguous.view(np.uint8)
            .reshape(-1, itemsize)
            .T.tobytes()  # .T + tobytes = the shuffle transpose
        )
        return zlib.compress(shuffled, self.level)

    def decode(self, buf: bytes, shape: tuple, dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        raw = zlib.decompress(buf)
        unshuffled = (
            np.frombuffer(raw, dtype=np.uint8)
            .reshape(dtype.itemsize, -1)
            .T.copy()
        )
        return unshuffled.view(dtype).reshape(shape)


PAGE_CODECS: dict[str, PageCodec] = {
    codec.name: codec
    for codec in (RawCodec(), Float16Codec(), LosslessCodec())
}


def get_page_codec(name: str) -> PageCodec:
    """Look up a codec by registry name (``raw``/``float16``/``lossless``)."""
    try:
        return PAGE_CODECS[name]
    except KeyError:
        raise ValueError(
            f"unknown page codec {name!r}; choose from "
            f"{sorted(PAGE_CODECS)}"
        ) from None
