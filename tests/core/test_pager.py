"""``PageFile`` cases no tier test reaches.

The per-codec round-trip / torn / corrupt matrix lives with the tiers
(``tests/chaos/test_storage_integrity.py``, ``tests/core/test_pagecodec.py``)
and exercises this one implementation; what is left is the page's own
surface: the empty page, deferred writes, and the typed read.
"""

import os
import pickle

import numpy as np
import pytest

from repro.core import CorruptPageError
from repro.core.pager import PageFile, ResidentSet

CODECS = ("raw", "float16", "lossless")


def _page(tmp_path, codec, rows=12, cols=7, seed=0):
    arr = np.random.default_rng(seed).normal(size=(rows, cols))
    return PageFile(str(tmp_path / "p"), arr.shape, arr.dtype, codec), arr


@pytest.mark.parametrize("codec", CODECS)
def test_zero_row_page_has_no_file(tmp_path, codec):
    """The ``(0, 49)`` shard: zero bytes cannot be memory-mapped, so an
    empty page lives nowhere and still writes, seals and reads."""
    page = PageFile(str(tmp_path / "empty"), (0, 49), np.float64, codec)
    page.write(np.empty((0, 49)))
    page.seal()
    assert page.path == "" and os.listdir(tmp_path) == []
    assert page.read().shape == (0, 49)


def test_raw_page_filled_through_view_needs_a_seal(tmp_path):
    page, arr = _page(tmp_path, "raw")
    page.view()[...] = arr
    with pytest.raises(CorruptPageError, match="checksum"):
        page.read()  # no CRC recorded yet: unverifiable is unreadable
    page.seal()
    assert np.array_equal(page.read(), arr)
    with open(page.path, "rb") as fh:
        assert fh.read() == arr.tobytes()  # the bytes are exactly the array


def test_corrupt_page_error_crosses_a_pool_result_pipe():
    """Unpicklable, it would wedge the pool's result thread forever."""
    err = pickle.loads(pickle.dumps(CorruptPageError("p.dat", "torn page")))
    assert (err.path, err.detail) == ("p.dat", "torn page")
    assert "p.dat" in str(err)


@pytest.mark.parametrize("codec", CODECS)
def test_deferred_write_meters_and_stores_what_a_direct_write_does(
    tmp_path, codec
):
    """Write-behind encodes on the training thread and lands the bytes
    later: same ``disk_nbytes`` (fixed at encode time), same file."""
    direct, arr = _page(tmp_path, codec)
    deferred = PageFile(str(tmp_path / "q"), arr.shape, arr.dtype, codec)
    direct.write(arr)
    encoded = deferred.encode(arr)
    assert deferred.disk_nbytes == direct.disk_nbytes
    assert (encoded is None) == (codec == "raw")
    deferred.write(arr, encoded=encoded)
    with open(direct.path, "rb") as a, open(deferred.path, "rb") as b:
        assert a.read() == b.read()
    if codec != "raw":
        assert direct.disk_nbytes == os.path.getsize(direct.path)


@pytest.mark.parametrize("codec", ("float16", "lossless"))
def test_decode_of_unlanded_bytes_is_the_read(tmp_path, codec):
    """What write-behind re-adopts before the write lands is what a read
    of the landed page returns, byte for byte."""
    page, arr = _page(tmp_path, codec)
    encoded = page.encode(arr)
    queued = page.decode(encoded)
    page.write(arr, encoded=encoded)
    read = page.read()
    assert queued.dtype == read.dtype and queued.flags.writeable
    assert queued.tobytes() == read.tobytes()


def test_decode_in_a_storage_dtype(tmp_path):
    page, arr = _page(tmp_path, "float16")
    encoded = page.encode(arr)
    half = page.decode(encoded, dtype=np.float16)
    page.write(arr, encoded=encoded)
    assert half.dtype == np.float16
    assert half.tobytes() == page.read(dtype=np.float16).tobytes()


@pytest.mark.parametrize("codec", ("float16", "lossless"))
def test_decode_verifies_the_seal(tmp_path, codec):
    page, arr = _page(tmp_path, codec)
    encoded = page.encode(arr)
    with pytest.raises(CorruptPageError, match="p"):
        page.decode(encoded[:-3])
    flipped = bytearray(encoded)
    flipped[-1] ^= 0xFF
    with pytest.raises(CorruptPageError):
        page.decode(bytes(flipped))


def test_read_in_a_storage_dtype(tmp_path):
    page, arr = _page(tmp_path, "float16")
    page.write(arr)
    half = page.read(dtype=np.float16)
    assert half.dtype == np.float16 and half.flags.writeable
    np.testing.assert_array_equal(half, page.read().astype(np.float16))


def test_admit_raises_when_the_victim_cannot_be_spilled():
    class Phantom:
        def spill(self):
            pass  # not resident: spilling it drops nothing

    rset = ResidentSet(1)
    rset.admit(Phantom())
    with pytest.raises(RuntimeError, match="cannot make room"):
        rset.admit(Phantom())
