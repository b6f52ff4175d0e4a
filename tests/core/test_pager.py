"""``PageFile`` cases no tier test reaches.

The per-codec round-trip / torn / corrupt matrix lives with the tiers
(``tests/chaos/test_storage_integrity.py``, ``tests/core/test_pagecodec.py``)
and exercises this one implementation; what is left is the page's own
surface: the empty page, the raw page's seal, and an encoded page's
metered size.
"""

import os
import pickle

import numpy as np
import pytest

from repro.core import CorruptPageError
from repro.core.pager import PageFile, ResidentSet
from repro.faults import corrupt_file

CODECS = ("raw", "float16")


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


def test_encoded_page_meters_its_sealed_file(tmp_path):
    """A float16 serving page records the sealed bytes it wrote (the
    ledger's ``page_in_disk_bytes``); a raw page records none, since its
    disk and host sizes are equal."""
    raw, arr = _page(tmp_path, "raw")
    half = PageFile(str(tmp_path / "q"), arr.shape, arr.dtype, "float16")
    for page in (raw, half):
        page.write(arr)
    assert raw.disk_nbytes is None
    assert half.disk_nbytes == os.path.getsize(half.path)
    assert half.read().tobytes() == half.hold()[np.arange(12)].tobytes()


#: byte positions across a page file, as fractions of its size (1.0 is
#: its last byte); on a sealed page the first ones land in the header
SPOTS = (0.0, 0.05, 0.1, 0.25, 0.5, 1.0)


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("spot", SPOTS)
def test_a_flipped_byte_anywhere_is_caught(tmp_path, codec, spot):
    """One byte flipped anywhere in the file — a sealed page's magic,
    length and checksum included — fails the read and the hold, naming
    the file; flipped back, the page reads as written."""
    page, arr = _page(tmp_path, codec)
    page.write(arr)
    want = page.read()
    offset = int(spot * (os.path.getsize(page.path) - 1))
    corrupt_file(page.path, offset=offset, length=1)
    for load in (page.read, page.hold):
        with pytest.raises(CorruptPageError) as info:
            load()
        assert info.value.path == page.path
    corrupt_file(page.path, offset=offset, length=1)  # flipped back
    assert page.read().tobytes() == want.tobytes()


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("keep", ["none", "one", "half", "all_but_one"])
def test_a_torn_page_is_caught(tmp_path, codec, keep):
    """A page cut short at any length fails the read and the hold before
    a byte of it is used (a raw page is never copied out of a mapping
    longer than its file)."""
    page, arr = _page(tmp_path, codec)
    page.write(arr)
    size = os.path.getsize(page.path)
    cut = {"none": 0, "one": 1, "half": size // 2, "all_but_one": size - 1}
    with open(page.path, "r+b") as fh:
        fh.truncate(cut[keep])
    for load in (page.read, page.hold):
        with pytest.raises(CorruptPageError) as info:
            load()
        assert info.value.path == page.path


@pytest.mark.parametrize("codec", CODECS)
def test_a_grown_page_is_caught(tmp_path, codec):
    page, arr = _page(tmp_path, codec)
    page.write(arr)
    with open(page.path, "ab") as fh:
        fh.write(bytes(8))
    with pytest.raises(CorruptPageError, match="file holds|torn"):
        page.read()


def test_admit_raises_when_the_victim_cannot_be_spilled():
    class Phantom:
        def spill(self):
            pass  # not resident: spilling it drops nothing

    rset = ResidentSet(1)
    rset.admit(Phantom())
    with pytest.raises(RuntimeError, match="cannot make room"):
        rset.admit(Phantom())
