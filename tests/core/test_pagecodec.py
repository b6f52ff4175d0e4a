"""Unit tests for the page codecs behind the deep out-of-core tier.

The codecs carry every spilled page of the disk tier, so their contracts
are pinned directly: lossless round-trips are bit-exact for any dtype,
the float16 codec is tolerance-bounded *and idempotent* (repeated
encode/decode cycles converge after the first quantization — the property
that keeps spill/page-in loops from drifting), and the registry rejects
unknown names with an actionable error.
"""

import numpy as np
import pytest

from repro.core.pagecodec import (
    PAGE_CODECS,
    Float16Codec,
    LosslessCodec,
    RawCodec,
    get_page_codec,
)


def _page(seed=0, shape=(17, 49), dtype=np.float64):
    return np.random.default_rng(seed).normal(size=shape).astype(dtype)


class TestRegistry:
    def test_known_codecs(self):
        assert set(PAGE_CODECS) == {"raw", "float16", "lossless"}
        for name in PAGE_CODECS:
            assert get_page_codec(name).name == name

    def test_unknown_codec_error_names_choices(self):
        with pytest.raises(ValueError, match="unknown page codec"):
            get_page_codec("zstd")
        with pytest.raises(ValueError, match="float16"):
            get_page_codec("f16")

    def test_lossless_flags(self):
        assert get_page_codec("raw").lossless
        assert get_page_codec("lossless").lossless
        assert not get_page_codec("float16").lossless

    def test_storage_dtype(self):
        # all three checkpoint in the store dtype: the scaled float16
        # codec's decoded values can exceed half precision's native range
        for name in PAGE_CODECS:
            assert get_page_codec(name).storage_dtype is None


class TestRoundtrip:
    @pytest.mark.parametrize("codec_cls", [RawCodec, LosslessCodec])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bit_exact(self, codec_cls, dtype):
        codec = codec_cls()
        arr = _page(dtype=dtype)
        out = codec.decode(codec.encode(arr), arr.shape, dtype)
        assert out.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(out, arr)

    @pytest.mark.parametrize("codec_cls", [RawCodec, LosslessCodec])
    def test_noncontiguous_input(self, codec_cls):
        codec = codec_cls()
        arr = _page(shape=(17, 98))[:, ::2]  # strided view
        out = codec.decode(codec.encode(arr), arr.shape, arr.dtype)
        np.testing.assert_array_equal(out, arr)

    def test_decoded_pages_are_writable(self):
        for codec in PAGE_CODECS.values():
            arr = _page()
            out = codec.decode(codec.encode(arr), arr.shape, arr.dtype)
            out[0, 0] = 1.0  # the paged-in working set gets mutated

    def test_lossless_compresses_structured_pages(self):
        # fresh Adam moments are runs of zeros: exactly what the
        # byte-shuffle + zlib pipeline exists to exploit
        arr = np.zeros((64, 49))
        encoded = get_page_codec("lossless").encode(arr)
        assert len(encoded) < arr.nbytes / 10


class TestFloat16:
    def test_tolerance_bounded(self):
        codec = Float16Codec()
        arr = _page()
        out = codec.decode(codec.encode(arr), arr.shape, arr.dtype)
        # half precision: ~11 significand bits
        np.testing.assert_allclose(out, arr, rtol=1e-3, atol=1e-6)

    def test_idempotent(self):
        codec = Float16Codec()
        arr = _page(seed=3)
        first = codec.encode(arr)
        decoded = codec.decode(first, arr.shape, arr.dtype)
        assert codec.encode(decoded) == first

    def test_two_bytes_per_value_plus_column_header(self):
        arr = _page()
        encoded = Float16Codec().encode(arr)
        assert len(encoded) == 2 * arr.size + 2 * arr.shape[1]

    def test_beyond_native_f16_range_roundtrips(self):
        """The per-column scale re-centers each column into [0.5, 1):
        values far past f16's 65504 ceiling survive with full relative
        precision instead of clipping."""
        codec = Float16Codec()
        arr = np.array([[1e9, -3e8], [2e8, 1e9]])
        out = codec.decode(codec.encode(arr), arr.shape, np.float64)
        np.testing.assert_allclose(out, arr, rtol=1e-3)

    def test_tiny_adam_moments_survive(self):
        """The motivating case: second moments of nearly-converged
        parameters (~grad**2 ~ 1e-10) must not flush to zero — a zero v
        makes the next Adam step m/eps and detonates the trajectory."""
        codec = Float16Codec()
        arr = np.abs(_page(seed=7)) * 1e-10
        out = codec.decode(codec.encode(arr), arr.shape, np.float64)
        assert np.all(out[arr > 0] > 0)
        np.testing.assert_allclose(out, arr, rtol=1e-3)

    def test_zero_column_roundtrips(self):
        codec = Float16Codec()
        arr = np.zeros((5, 3))
        arr[:, 1] = np.arange(5)
        out = codec.decode(codec.encode(arr), arr.shape, np.float64)
        np.testing.assert_allclose(out, arr, rtol=1e-3)
        np.testing.assert_array_equal(out[:, 0], 0.0)
        np.testing.assert_array_equal(out[:, 2], 0.0)

    def test_mixed_magnitude_columns_scale_independently(self):
        codec = Float16Codec()
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
        codec = Float16Codec()
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
        codec = Float16Codec()
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
        codec = Float16Codec()
        buf = codec.encode(_page(seed=9))
        copy = bytes(buf)
        codec.decode(buf, (17, 49), np.float64)
        assert buf == copy
