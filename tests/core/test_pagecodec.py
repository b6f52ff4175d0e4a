"""Unit tests for the page codecs behind the paged serving tier.

The codecs carry every serving page, so their contracts are pinned
directly: a raw page is its mapping, and round-trips through
:class:`~repro.core.pager.PageFile` bit-exactly for any dtype; the
float16 codec (the functions of :mod:`repro.core.pagecodec`) is
tolerance-bounded *and idempotent* (re-encoding a decoded page
reproduces its bytes), and scales each column exactly (numerics contract
fact 7); a page file or a paged store rejects an unknown codec name —
the retired ``lossless`` among them — with an actionable error. A
resident page may be held encoded: decoding a subset of its rows (or of
its rows and columns, fact 11) gives those values of the whole page,
byte for byte, and a page that does not fit its shape is a corrupt page,
not a numpy error.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import pagecodec as codec
from repro.core.integrity import CorruptPageError, seal_page
from repro.core.pagecodec import CODECS, decode_halves
from repro.core.pager import PageFile
from repro.gaussians import GaussianModel
from repro.serve import PagedServingStore


def _page(seed=0, shape=(17, 49), dtype=np.float64):
    return np.random.default_rng(seed).normal(size=shape).astype(dtype)


def _stored(tmp_path, name, arr):
    """``arr`` written to a page file under codec ``name``."""
    page = PageFile(str(tmp_path / name), arr.shape, arr.dtype, name)
    page.write(arr)
    return page


class TestCodecNames:
    def test_known_codecs(self, tmp_path):
        assert CODECS == ("raw", "float16")
        for name in CODECS:
            page = PageFile(str(tmp_path / name), (3, 4), np.float64, name)
            assert page.codec == name

    @pytest.mark.parametrize("bad", ["zstd", "f16", "lossless"])
    def test_unknown_codec_is_rejected_at_construction(self, tmp_path, bad):
        with pytest.raises(ValueError, match="unknown page codec") as info:
            PageFile(str(tmp_path / "p"), (3, 4), np.float64, bad)
        assert "float16" in str(info.value)  # names the choices
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ValueError, match="unknown page codec"):
            PagedServingStore.from_model(
                GaussianModel(np.zeros((4, 59))), 1 << 20, num_shards=2,
                page_dir=str(tmp_path / "pages"), codec=bad,
            )


class TestRoundtrip:
    """A raw page is its mapping: what is written reads back bit for
    bit."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bit_exact(self, tmp_path, dtype):
        arr = _page(dtype=dtype)
        out = _stored(tmp_path, "raw", arr).read()
        assert out.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(out, arr)

    def test_noncontiguous_input(self, tmp_path):
        arr = _page(shape=(17, 98))[:, ::2]  # strided view
        np.testing.assert_array_equal(_stored(tmp_path, "raw", arr).read(), arr)

    def test_decoded_pages_are_writable(self, tmp_path):
        for name in CODECS:
            out = _stored(tmp_path, name, _page()).read()
            out[0, 0] = 1.0  # a decoded page is the reader's own copy


class TestFloat16:
    def test_tolerance_bounded(self):
        arr = _page()
        out = codec.decode(codec.encode(arr), arr.shape, arr.dtype)
        # half precision: ~11 significand bits
        np.testing.assert_allclose(out, arr, rtol=1e-3, atol=1e-6)

    def test_idempotent(self):
        arr = _page(seed=3)
        first = codec.encode(arr)
        decoded = codec.decode(first, arr.shape, arr.dtype)
        assert codec.encode(decoded) == first

    def test_two_bytes_per_value_plus_column_header(self):
        arr = _page()
        encoded = codec.encode(arr)
        assert len(encoded) == 2 * arr.size + 2 * arr.shape[1]

    def test_beyond_native_f16_range_roundtrips(self):
        """The per-column scale re-centers each column into [0.5, 1):
        values far past f16's 65504 ceiling survive with full relative
        precision instead of clipping."""
        arr = np.array([[1e9, -3e8], [2e8, 1e9]])
        out = codec.decode(codec.encode(arr), arr.shape, np.float64)
        np.testing.assert_allclose(out, arr, rtol=1e-3)

    def test_tiny_adam_moments_survive(self):
        """The motivating case: second moments of nearly-converged
        parameters (~grad**2 ~ 1e-10) must not flush to zero — a zero v
        makes the next Adam step m/eps and detonates the trajectory."""
        arr = np.abs(_page(seed=7)) * 1e-10
        out = codec.decode(codec.encode(arr), arr.shape, np.float64)
        assert np.all(out[arr > 0] > 0)
        np.testing.assert_allclose(out, arr, rtol=1e-3)

    @pytest.mark.parametrize("decade", range(-300, 301, 50))
    def test_any_decade_round_trips(self, decade):
        """The per-column scale re-centres a column wherever its values
        sit, from 1e-300 to 1e300: half-precision relative error at every
        decade, and re-encoding the decoded page gives its bytes."""
        arr = _page(seed=7) * 10.0**decade
        buf = codec.encode(arr)
        out = codec.decode(buf, arr.shape, np.float64)
        np.testing.assert_allclose(out, arr, rtol=2e-3)
        assert codec.encode(out) == buf

    def test_zero_column_roundtrips(self):
        arr = np.zeros((5, 3))
        arr[:, 1] = np.arange(5)
        out = codec.decode(codec.encode(arr), arr.shape, np.float64)
        np.testing.assert_allclose(out, arr, rtol=1e-3)
        np.testing.assert_array_equal(out[:, 0], 0.0)
        np.testing.assert_array_equal(out[:, 2], 0.0)

    def test_mixed_magnitude_columns_scale_independently(self):
        arr = np.column_stack([
            np.linspace(1e-9, 2e-9, 8),
            np.linspace(1.0, 2.0, 8),
            np.linspace(1e7, 2e7, 8),
        ])
        out = codec.decode(codec.encode(arr), arr.shape, np.float64)
        np.testing.assert_allclose(out, arr, rtol=1e-3)

    def test_upcast_is_exact(self):
        # f16 -> f64 is exact, so decode(encode(decode(...))) fixes
        arr = _page(seed=5)
        once = codec.decode(codec.encode(arr), arr.shape, np.float64)
        twice = codec.decode(codec.encode(once), arr.shape, np.float64)
        np.testing.assert_array_equal(once, twice)

    @staticmethod
    def _decode_out_of_place(buf, shape, dtype):
        """The decode formula as first written (every step a fresh
        array): the in-place decode must reproduce it bit for bit."""
        ncols = shape[-1]
        exps = np.frombuffer(buf[: 2 * ncols], dtype="<i2").astype(np.int64)
        scaled = (
            np.frombuffer(buf[2 * ncols:], dtype="<f2")
            .astype(np.float64)
            .reshape(-1, ncols)
        )
        root = np.ldexp(scaled, exps[None, :])
        return (root * np.abs(root)).astype(dtype).reshape(shape)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_decode_matches_out_of_place_formula(self, dtype):
        rng = np.random.default_rng(11)
        page = rng.normal(size=(64, 49)) * 10.0 ** rng.integers(-6, 4, size=(64, 49))
        page[:, 4] = 0.0                      # zero column: exponent 0
        page[:, 9] = -np.abs(page[:, 9])      # all-negative column
        page[3, :] = 0.0                      # signed zeros inside live columns
        page[5, 20] = -0.0
        # magnitudes whose scaled sqrt lands in half precision's
        # subnormal range (< 2**-14 of the column maximum's scale)
        page[:, 30] = 1.0
        page[7:12, 30] = [1e-9, -3e-10, 5e-11, -1e-12, 2e-14]
        buf = codec.encode(page)
        halves = np.frombuffer(buf, dtype="<f2", offset=2 * 49).reshape(-1, 49)
        tiny = np.abs(halves[7:12, 30].astype(np.float64))
        assert np.all(tiny < 2.0**-14) and np.any(tiny > 0)  # subnormal halves
        got = codec.decode(buf, page.shape, dtype)
        want = self._decode_out_of_place(buf, page.shape, dtype)
        assert got.dtype == np.dtype(dtype) and got.flags.writeable
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        # the documented idempotence survives the rewrite (values, not
        # bytes: a negative zero re-encodes as a positive one)
        once = codec.decode(buf, page.shape, np.float64)
        twice = codec.decode(codec.encode(once), page.shape, np.float64)
        assert np.array_equal(once, twice)

    def test_in_place_decode_leaves_the_page_bytes_alone(self):
        buf = codec.encode(_page(seed=9))
        copy = bytes(buf)
        codec.decode(buf, (17, 49), np.float64)
        assert buf == copy


class TestFloat16ScaleIsExact:
    """Numerics contract fact 7: a power-of-two scale is exact, so the
    codec's one multiply per column gives the bits the per-value
    ``np.ldexp`` formulas gave."""

    def test_power_of_two_scale_is_exact(self):
        """``x * 2.0**e == ldexp(x, e)`` whenever ``2.0**e`` is a finite
        non-zero double — subnormal products and scales included."""
        rng = np.random.default_rng(4)
        x = np.concatenate([
            rng.normal(size=40) * 10.0 ** rng.integers(-300, 300, size=40),
            rng.uniform(-1, 1, size=8) * np.finfo(np.float64).smallest_normal,
            [0.0, -0.0, 1.0, -1.0, np.nextafter(0.0, 1.0),
             np.finfo(np.float64).max],
        ])[:, None]
        exps = np.arange(-1074, 1024)
        scales = np.ldexp(1.0, exps)
        assert np.all(np.isfinite(scales) & (scales > 0))
        with np.errstate(over="ignore"):
            got = x * scales[None, :]
            want = np.ldexp(x, exps[None, :])
        assert got.tobytes() == want.tobytes()

    @staticmethod
    def _encode_ldexp(arr):
        """The encode formula with the scale as a per-value ``np.ldexp``."""
        a = np.asarray(arr, dtype=np.float64)
        root = np.sign(a) * np.sqrt(np.abs(a))
        _, exps = np.frexp(np.max(np.abs(root), axis=0))
        scaled = np.ldexp(root, -exps.astype(np.int64)[None, :])
        return exps.astype("<i2").tobytes() + scaled.astype("<f2").tobytes()

    @staticmethod
    def _page_across_exponents():
        """One column per square-root maximum ``2**k``, ``k`` from -537
        to 511 (column exponents -536 to 512, every one ``encode``
        writes), with subnormal halves, signed zeros and zero columns."""
        rng = np.random.default_rng(6)
        ks = np.arange(-537, 512)
        root = rng.uniform(0.5, 1.0, size=(8, ks.size))
        root *= rng.choice([-1.0, 1.0], size=root.shape)
        root[0] = 1.0                       # the column maximum, exactly
        root[1] = 2.0**-20                  # a half-precision subnormal
        root[2] = -(2.0**-18)
        root[3] = 0.0
        root[4] = -0.0
        root = np.ldexp(root, ks[None, :])
        page = np.sign(root) * root * root
        return np.concatenate([page, np.zeros((8, 3))], axis=1)

    def test_encode_matches_the_ldexp_formula(self):
        page = self._page_across_exponents()
        buf = codec.encode(page)
        assert buf == self._encode_ldexp(page)
        exps = np.frombuffer(buf, dtype="<i2", count=page.shape[1])
        assert (exps.min(), exps.max()) == codec.EXPONENTS
        assert np.all(exps[-3:] == 0)  # zero columns
        halves = np.frombuffer(buf, dtype="<f2", offset=2 * page.shape[1])
        halves = np.abs(halves.reshape(page.shape).astype(np.float64))
        # from k = -517 on, the squares of those rows stay above zero
        tiny = halves[1:3, 20:-3]
        assert np.all((0 < tiny) & (tiny < 2.0**-14))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_decode_matches_the_ldexp_formula(self, dtype):
        page = self._page_across_exponents()
        buf = codec.encode(page)
        with np.errstate(over="ignore"):  # float32 cannot hold 2**1022
            got = codec.decode(buf, page.shape, dtype)
            want = TestFloat16._decode_out_of_place(buf, page.shape, dtype)
        assert got.tobytes() == want.tobytes()

    def test_exponent_range_is_what_encode_writes(self):
        assert codec.EXPONENTS == (-536, 512)
        extremes = np.array([[np.nextafter(0.0, 1.0), np.finfo(np.float64).max]])
        exps = np.frombuffer(codec.encode(extremes), dtype="<i2", count=2)
        assert tuple(exps) == codec.EXPONENTS


ROW_SETS = {
    "empty": [],
    "single": [5],
    "unsorted": [9, 2, 16, 0],
    "repeated": [3, 3, 16, 3, 0],
    "all": list(range(17)),
    "reversed": list(range(16, -1, -1)),
    "last": [16],
}


class TestHeldRows:
    """A held page decodes the rows asked for exactly as the whole page
    decodes them."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", sorted(ROW_SETS))
    def test_held_rows_are_decode_then_index(self, dtype, rows):
        page = _page(seed=2, dtype=dtype)
        page[4, 7] = -0.0
        page[:, 11] = 0.0
        buf = codec.encode(page)
        ids = np.array(ROW_SETS[rows], dtype=np.int64)
        want = codec.decode(buf, page.shape, dtype)[ids]
        for got in (
            codec.hold(buf, page.shape, dtype)[ids],
            codec.hold_page(seal_page(buf), page.shape, dtype)[ids],
        ):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", CODECS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", sorted(ROW_SETS))
    def test_held_page_file_rows_are_read_then_index(
        self, tmp_path, name, dtype, rows
    ):
        arr = _page(seed=2, dtype=dtype)
        arr[4, 7] = -0.0
        page = _stored(tmp_path, name, arr)
        ids = np.array(ROW_SETS[rows], dtype=np.int64)
        want = page.read()[ids]
        got = page.hold()[ids]
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_float16_holds_its_payload(self):
        buf = codec.encode(_page())
        held = codec.hold(buf, (17, 49), np.float64)
        assert not isinstance(held, np.ndarray)
        assert held[np.arange(3)].flags.writeable

    def test_one_dimensional_page(self):
        page = _page(shape=(9,))
        buf = codec.encode(page)
        ids = np.array([4, 0, 4])
        want = codec.decode(buf, page.shape, np.float64)[ids]
        got = codec.hold(buf, page.shape, np.float64)[ids]
        assert got.shape == (3,) and got.tobytes() == want.tobytes()


class TestHeldSubsetsAreRowwise:
    """Numerics contract fact 11: a held float16 page decodes a value
    from its own half and its column's scale only, so any subset of rows
    and columns — or the halves taken out with each row's scales beside
    them, as a serving tick keeps them — gives those values of the whole
    decode, byte for byte."""

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(1, 40),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_rows_and_columns_of_the_whole_decode(self, n, dtype, seed, data):
        rng = np.random.default_rng(seed)
        page = rng.normal(size=(n, 49)) * 10.0 ** rng.uniform(-6, 6, size=49)
        page[rng.random(page.shape) < 0.05] = -0.0
        buf = codec.encode(page)
        whole = codec.decode(buf, page.shape, dtype)
        held = codec.hold(buf, page.shape, dtype)
        size = data.draw(st.sampled_from(sorted({1, min(2, n), n})))
        rows = rng.choice(n, size=size, replace=data.draw(st.booleans()))
        start = data.draw(st.integers(0, 48))
        cols = slice(start, data.draw(st.integers(start + 1, 49)))
        want = whole[rows][:, cols]
        got = held[rows, cols]
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # the halves taken out, each row under its own copy of the scales
        scales = np.repeat(held.scales[None, cols], rows.size, axis=0)
        got = decode_halves(held.halves[rows, cols], scales, dtype)
        assert got.tobytes() == want.tobytes()


class TestMisshapenPayload:
    """A page whose bytes check out but do not fit the page — a stale
    file of another shard size, a column exponent :func:`encode` never
    writes — is corrupt, and says which file."""

    @pytest.mark.parametrize("stored, expected", [(10, 12), (12, 10)])
    def test_wrong_row_count_is_corrupt(self, stored, expected):
        sealed = codec.encode_page(_page(shape=(stored, 49)))
        for open_page in (codec.decode_page, codec.hold_page):
            with pytest.raises(CorruptPageError, match="stale.page") as info:
                open_page(sealed, (expected, 49), np.float64, path="stale.page")
            assert info.value.path == "stale.page"
        with pytest.raises(ValueError):  # unsealed: no file to name
            codec.decode(codec.encode(_page(shape=(stored, 49))),
                         (expected, 49), np.float64)

    @pytest.mark.parametrize("stored, expected", [(10, 12), (12, 10)])
    def test_raw_page_of_another_row_count_is_corrupt(
        self, tmp_path, stored, expected
    ):
        page = _stored(tmp_path, "raw", _page(shape=(expected, 49)))
        with open(page.path, "wb") as fh:
            fh.write(_page(shape=(stored, 49)).tobytes())
        for open_page in (page.read, page.hold):
            with pytest.raises(CorruptPageError, match="bytes") as info:
                open_page()
            assert info.value.path == page.path

    @pytest.mark.parametrize("offset", [-1, 1])
    def test_float16_exponent_outside_encode_range_is_corrupt(self, offset):
        low, high = codec.EXPONENTS
        bad = low + offset if offset < 0 else high + offset
        payload = bytearray(codec.encode(_page()))
        payload[2:4] = np.array([bad], dtype="<i2").tobytes()  # column 1
        sealed = seal_page(bytes(payload))
        for open_page in (codec.decode_page, codec.hold_page):
            with pytest.raises(CorruptPageError, match="exponent"):
                open_page(sealed, (17, 49), np.float64, path="p.pagez")
