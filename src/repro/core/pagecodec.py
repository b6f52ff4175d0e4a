"""The page codecs of the serving tier's shard pages.

A :class:`~repro.core.pager.PageFile` stores its array under one of
:data:`CODECS`, by name. Training pages are always ``raw`` (placement
never changes numerics); the ``float16`` codec serves read-only
:class:`~repro.serve.store.PagedServingStore` pages, where the
:class:`~repro.core.systems.TransferLedger` meters both sides of the
page-in bandwidth ratio (``page_in_bytes`` in fp32-equivalent accounting
vs ``page_in_disk_bytes`` as actually stored).

* ``raw`` — a raw page is its mapping: :class:`~repro.core.pager.PageFile`
  keeps it as a memory-mapped file whose bytes are exactly the array,
  with its CRC32 held out of band. Nothing here encodes it.
* ``float16`` — the functions of this module: columns quantized to half
  precision in a signed-sqrt domain behind an exact per-column
  power-of-two scale (so tiny values don't flush to zero and large
  coefficients don't clip). Lossy but *idempotent*: re-encoding a
  decoded page reproduces the same bytes. Stdlib-only and deterministic.

Values are mapped to ``sign(x) * sqrt(|x|)`` and each column is divided
by ``2**k`` (``k`` chosen so the column's max magnitude lands in
``[0.5, 1)``) before the half-precision cast (2 bytes/value plus a
2-byte exponent per column); decode multiplies the scale back and
squares. The sqrt halves the dynamic range in log space (``1e-14..1e-2``
becomes ``1e-7..1e-1``), so a column spanning ~24 decades — far past
f16's ~12-decade window — keeps its small values off zero, and the
power-of-two scale — *exact* in binary floating point — centers it in
half precision's sweet spot. Large SH coefficients likewise no longer
clip at f16's 65504 ceiling.

The codec stays idempotent: a decoded value is ``s * |s|`` where ``s``
carries an 11-bit significand times a power of two, so its square is
exactly representable in float64 and the correctly rounded ``sqrt`` on
re-encode recovers ``s`` bit-exactly: re-sealing a decoded page
reproduces its bytes. The precision cost of squaring is a factor of two
in relative error (~``5e-4``).

Both directions apply a column's scale as one multiply by the double
``2.0**e`` — the value ``np.ldexp`` per element gave, bit for bit, since
every exponent :func:`encode` writes (:data:`EXPONENTS`) makes ``2.0**e``
a finite normal double (numerics contract fact 7). A payload carrying
any other exponent is corrupt.

Encoded page *files* are sealed: :func:`encode_page` frames the payload
with the :mod:`repro.core.integrity` GSP1 header (magic + length +
CRC32) and :func:`decode_page` / :func:`hold_page` validate it, so a
torn or bit-rotted ``.pagez`` surfaces as a
:class:`~repro.core.integrity.CorruptPageError` naming the file instead
of an opaque decode error — and so does a payload that checks out but
does not fit its page (a stale page of another shard size, a column
exponent :func:`encode` never writes). The seal lives at the file layer,
not inside :func:`encode` / :func:`decode` — compression-ratio
accounting and the codec round-trip contract see pure payload bytes.

A read-only reader keeps a page in its encoding: :func:`hold` is what it
holds, and ``hold(buf, shape, dtype)[rows]`` is ``decode(buf, shape,
dtype)[rows]``, byte for byte — indexing it widens, scales and squares
the requested rows only, each as :func:`decode` would.
"""

from __future__ import annotations

import math

import numpy as np

from .integrity import CorruptPageError, seal_page, unseal_page

__all__ = [
    "CODECS",
    "EXPONENTS",
    "check_codec",
    "decode",
    "decode_halves",
    "decode_page",
    "encode",
    "encode_page",
    "hold",
    "hold_page",
]

#: the page codec names, :class:`~repro.core.pager.PageFile`'s and
#: :class:`~repro.serve.store.PagedServingStore`'s ``codec=``
CODECS = ("raw", "float16")

#: the column exponents :func:`encode` writes: ``frexp`` of the square
#: roots of the smallest and the largest finite float64 magnitude (a
#: zero column writes 0)
EXPONENTS = tuple(
    int(np.frexp(np.sqrt(x))[1])
    for x in (np.nextafter(0.0, 1.0), np.finfo(np.float64).max)
)


def check_codec(name: str) -> str:
    """``name`` when it is one of :data:`CODECS`; :class:`ValueError`
    naming the choices otherwise."""
    if name not in CODECS:
        raise ValueError(
            f"unknown page codec {name!r}; choose from {sorted(CODECS)}"
        )
    return name


class _PayloadMismatch(ValueError):
    """A payload that does not fit the page it is decoded as; the sealed
    page layer reports it as :class:`CorruptPageError` naming the file."""


def encode(arr: np.ndarray) -> bytes:
    """The float16 payload of one page (a 2-D array)."""
    a = np.ascontiguousarray(arr, dtype=np.float64)
    if a.ndim != 2:
        a = a.reshape(a.shape[0], -1)
    root = np.sign(a) * np.sqrt(np.abs(a))
    maxabs = np.max(np.abs(root), axis=0) if a.size else np.zeros(a.shape[1])
    # frexp: maxabs = m * 2**e with m in [0.5, 1) -> column / 2**e
    # lands in [0.5, 1]; zero columns get e = 0
    _, exps = np.frexp(maxabs)
    exps = exps.astype(np.int16)
    root *= np.ldexp(1.0, -exps.astype(np.int64))[None, :]
    return exps.astype("<i2").tobytes() + np.ascontiguousarray(
        root, dtype="<f2"
    ).tobytes()


def _split(buf: bytes, shape: tuple):
    """``(scales, halves)`` of a payload: each column's ``2.0**e`` and
    the ``(rows, cols)`` half-precision block, validated."""
    ncols = int(shape[-1]) if len(shape) > 1 else 1
    nbytes = 2 * (ncols + math.prod(shape))
    if len(buf) != nbytes:
        raise _PayloadMismatch(
            f"payload holds {len(buf)} bytes, a {tuple(shape)} page {nbytes}"
        )
    exps = np.frombuffer(buf, dtype="<i2", count=ncols).astype(np.int64)
    low, high = EXPONENTS
    if exps.size and not low <= exps.min() <= exps.max() <= high:
        raise _PayloadMismatch(
            f"column exponents span [{exps.min()}, {exps.max()}], "
            f"outside the [{low}, {high}] encode writes"
        )
    halves = np.frombuffer(buf, dtype="<f2", offset=2 * ncols)
    return np.ldexp(1.0, exps), halves.reshape(-1, ncols)


def hold(buf: bytes, shape: tuple, dtype) -> "_RowDecoder":
    """What a read-only resident page keeps of the payload ``buf``: for
    any integer array ``rows`` (empty, unsorted or repeated),
    ``hold(buf, shape, dtype)[rows]`` is a fresh array byte-equal to
    ``decode(buf, shape, dtype)[rows]``. Raises :class:`ValueError` when
    the payload does not fit ``shape``."""
    scales, halves = _split(buf, shape)
    return _RowDecoder(scales, halves, tuple(shape[1:]), np.dtype(dtype))


def decode(buf: bytes, shape: tuple, dtype) -> np.ndarray:
    """The page the payload ``buf`` encodes, as a fresh writable array.
    Raises :class:`ValueError` when the payload does not fit ``shape``."""
    return hold(buf, shape, dtype)[:].reshape(shape)


def encode_page(arr: np.ndarray) -> bytes:
    """Encode and seal one page for on-disk storage."""
    return seal_page(encode(arr))


def decode_page(buf: bytes, shape: tuple, dtype, path: str = "") -> np.ndarray:
    """Validate a sealed page and decode its payload.

    Raises :class:`~repro.core.integrity.CorruptPageError` (tagged with
    ``path``) when the seal does not check out or the payload does not
    fit ``shape``.
    """
    return _unsealed(decode, buf, shape, dtype, path)


def hold_page(buf: bytes, shape: tuple, dtype, path: str = "") -> "_RowDecoder":
    """:func:`hold` of a sealed page, validated as :func:`decode_page`
    validates it."""
    return _unsealed(hold, buf, shape, dtype, path)


def _unsealed(open_payload, buf, shape, dtype, path):
    payload = unseal_page(buf, path)
    try:
        return open_payload(payload, shape, dtype)
    except _PayloadMismatch as exc:
        raise CorruptPageError(path, str(exc)) from None


def decode_halves(halves: np.ndarray, scales: np.ndarray, dtype) -> np.ndarray:
    """The float16 codec's values of ``halves`` (scaled roots, as a page
    holds them) under ``scales`` (each column's ``2.0**e``, broadcast
    against ``halves``), in ``dtype``: widened, scaled and squared one
    value at a time, so a value's bits depend on its half and its scale
    only (numerics contract fact 11)."""
    # the widening cast is the one float64 buffer; the scale and the
    # square then run in place on it
    root = halves.astype(np.float64)
    root *= scales
    np.multiply(root, np.abs(root), out=root)
    return root.astype(dtype, copy=False)


class _RowDecoder:
    """A held float16 page — the per-column scales and a view of the
    payload's halves: ``page[rows]`` decodes just those rows (``page[:]``
    all of them — :func:`decode`), and ``page[rows, cols]``
    just those columns of them (``cols`` a slice; a 2-D block)."""

    __slots__ = ("scales", "halves", "tail", "dtype")

    def __init__(self, scales: np.ndarray, halves: np.ndarray, tail: tuple,
                 dtype: np.dtype):
        self.scales = scales
        self.halves = halves
        self.tail = tail
        self.dtype = dtype

    def __getitem__(self, key) -> np.ndarray:
        if isinstance(key, tuple):
            rows, cols = key
            return decode_halves(
                self.halves[rows, cols], self.scales[cols], self.dtype
            )
        return decode_halves(
            self.halves[key], self.scales, self.dtype
        ).reshape((-1,) + self.tail)
