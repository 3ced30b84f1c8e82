"""Streamed decode == materialized decode, bit for bit.

The regression contract of the fused decode+MAC path
(:mod:`repro.core.provider` / :class:`repro.core.decompressor.
WeightStream`): streaming only changes *when* decoded weights exist,
never what they are.  Property-tested here across accumulation dtypes,
arbitrary read-chunk patterns, and every registered codec.  A stream
cursor equals the hardware accumulator (``decompress_accumulate``); a
blob cursor equals the codec's own decode (``codec.decode(blob)``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codecs import get_codec
from repro.core.compression import compress
from repro.core.decompressor import WeightStream, decompress_accumulate
from repro.core.provider import (
    ArrayProvider,
    BlobProvider,
    StreamProvider,
    provider_for,
)

from .test_fuzz_codecs import ALL_CODECS

ACC_DTYPES = [np.float32, np.float64]


def _weights(seed: int, size: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(size).astype(np.float32)


class TestWeightStreamBitIdentical:
    @pytest.mark.parametrize("acc_dtype", ACC_DTYPES)
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=31),
        size=st.integers(min_value=1, max_value=4000),
        chunk_seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_arbitrary_chunk_pattern(self, acc_dtype, seed, size, chunk_seed):
        stream = compress(_weights(seed, size), delta=0.05)
        ref = decompress_accumulate(stream, acc_dtype=acc_dtype)

        ws = WeightStream(stream, acc_dtype=acc_dtype)
        rng = np.random.default_rng(chunk_seed)
        parts = []
        while ws.remaining:
            parts.append(ws.read(int(rng.integers(1, size + 1))))
        out = np.concatenate(parts)
        assert out.dtype == ref.dtype
        np.testing.assert_array_equal(out, ref)

    @pytest.mark.parametrize("acc_dtype", ACC_DTYPES)
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=31),
        tile=st.integers(min_value=1, max_value=997),
    )
    def test_tile_iteration(self, acc_dtype, seed, tile):
        stream = compress(_weights(seed, 3000), delta=0.05)
        ref = decompress_accumulate(stream, acc_dtype=acc_dtype)
        ws = WeightStream(stream, acc_dtype=acc_dtype)
        out = np.concatenate(list(ws.tiles(tile)))
        np.testing.assert_array_equal(out, ref)

    def test_reset_restarts_the_pass(self):
        stream = compress(_weights(3, 2000), delta=0.05)
        ws = WeightStream(stream)
        first = ws.read(777).copy()
        ws.reset()
        np.testing.assert_array_equal(ws.read(777), first)


class TestProvidersBitIdentical:
    @pytest.mark.parametrize("name", ALL_CODECS)
    @pytest.mark.parametrize("acc_dtype", ACC_DTYPES)
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=15),
        chunk=st.integers(min_value=1, max_value=1500),
    )
    def test_every_codec_streamed_equals_materialized(
        self, name, acc_dtype, seed, chunk
    ):
        blob = get_codec(name, delta_pct=10.0).encode(_weights(seed, 1200))
        provider = provider_for(blob)
        assert isinstance(provider, BlobProvider)
        ref = provider.materialize(dtype=acc_dtype)

        cur = provider.cursor(dtype=acc_dtype)
        parts = []
        while cur.remaining:
            parts.append(cur.read(chunk))
        out = np.concatenate(parts)
        assert out.dtype == ref.dtype
        np.testing.assert_array_equal(out, ref)

    def test_linefit_blob_streams_without_materializing(self):
        blob = get_codec("linefit", delta_pct=10.0).encode(_weights(0, 1000))
        provider = provider_for(blob)
        assert provider.streaming
        # streamed values equal the codec's own whole-payload decode
        codec = get_codec("linefit", delta_pct=10.0)
        np.testing.assert_array_equal(
            provider.materialize(dtype=np.float32),
            np.asarray(codec.decode(blob), dtype=np.float32),
        )

    @pytest.mark.parametrize("acc_dtype", ACC_DTYPES)
    @pytest.mark.parametrize("kind", ["sorted", "random-walk"])
    @pytest.mark.parametrize("delta_pct", [1.0, 2.0, 5.0, 10.0, 20.0])
    def test_long_segment_blob_cursor_equals_codec_decode(
        self, acc_dtype, kind, delta_pct
    ):
        """Segments of hundreds to thousands of weights, where a float32
        accumulator and the float64 line drift apart: the blob cursor
        must stream the codec's own decode, not the accumulator."""
        rng = np.random.default_rng(3)
        steps = rng.standard_normal(5000)
        w = np.sort(steps) if kind == "sorted" else np.cumsum(steps)
        codec = get_codec("linefit", delta_pct=delta_pct)
        blob = codec.encode(w.astype(np.float32))
        assert 5000 / blob.num_segments >= 8  # Gaussian noise gives ~2.6
        ref = np.asarray(codec.decode(blob)).astype(acc_dtype)

        cur = provider_for(blob).cursor(dtype=acc_dtype)
        sizes, parts, i = (1, 7, 333, 64, 1999, 2), [], 0
        while cur.remaining:
            parts.append(cur.read(sizes[i % len(sizes)]))
            i += 1
        out = np.concatenate(parts)
        assert out.dtype == ref.dtype
        assert out.tobytes() == ref.tobytes()

    def test_non_linefit_blobs_fall_back_to_materialization(self):
        blob = get_codec("rle").encode(_weights(1, 500))
        provider = provider_for(blob)
        assert not provider.streaming

    @pytest.mark.parametrize("acc_dtype", ACC_DTYPES)
    def test_stream_provider_equals_decompress_accumulate(self, acc_dtype):
        stream = compress(_weights(5, 4096), delta=0.05)
        provider = provider_for(stream)
        assert isinstance(provider, StreamProvider)
        assert provider.streaming
        np.testing.assert_array_equal(
            provider.materialize(dtype=acc_dtype),
            decompress_accumulate(stream, acc_dtype=acc_dtype),
        )

    def test_array_provider_round_trip(self):
        w = _weights(7, 321)
        provider = provider_for(w)
        assert isinstance(provider, ArrayProvider)
        np.testing.assert_array_equal(provider.materialize(), w)
        cur = provider.cursor()
        np.testing.assert_array_equal(
            np.concatenate([cur.read(100), cur.read(1000)]), w
        )

    def test_provider_for_rejects_garbage(self):
        with pytest.raises(TypeError):
            provider_for(object())

    def test_cursors_are_independent_passes(self):
        stream = compress(_weights(9, 2048), delta=0.05)
        provider = provider_for(stream)
        a, b = provider.cursor(), provider.cursor()
        first = a.read(512)
        np.testing.assert_array_equal(b.read(512), first)


class TestBlobProviderConcurrency:
    """The materialize-once fallback must hold under concurrent readers.

    The async service shares one provider across in-flight requests, so
    two interleaved ``cursor()`` consumers must never double-decode the
    blob or observe a partially-populated cache.
    """

    def test_concurrent_cursors_decode_exactly_once(self, monkeypatch):
        import threading

        from repro.core.codecs.lossless import HuffmanCodec

        w = _weights(21, 8192)
        blob = get_codec("huffman").encode(w)
        provider = BlobProvider(blob)
        assert not provider.streaming  # huffman takes the materialize path

        decodes = []
        barrier = threading.Barrier(8)
        real_decode = HuffmanCodec.decode

        def counted_decode(self, b):
            decodes.append(threading.get_ident())
            # widen the race window: a second reader arriving mid-decode
            # must wait on the lock, not start its own decode
            import time

            time.sleep(0.02)
            return real_decode(self, b)

        monkeypatch.setattr(HuffmanCodec, "decode", counted_decode)

        results: list[np.ndarray] = [None] * 8
        errors: list[BaseException] = []

        def reader(i: int) -> None:
            try:
                barrier.wait(timeout=5)
                cur = provider.cursor()
                chunks = [cur.read(1000) for _ in range(9)]
                results[i] = np.concatenate(chunks)
            except BaseException as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not errors
        assert len(decodes) == 1, f"blob decoded {len(decodes)} times"
        for out in results:
            np.testing.assert_array_equal(out, w)

    def test_concurrent_cursors_are_independent(self):
        import threading

        blob = get_codec("rle").encode(_weights(23, 4096))
        provider = BlobProvider(blob)
        expected = provider.materialize().copy()

        mismatches = []

        def reader() -> None:
            cur = provider.cursor()
            got = np.concatenate([cur.read(123) for _ in range((4096 // 123) + 1)])
            if not np.array_equal(got, expected):
                mismatches.append(got)

        threads = [threading.Thread(target=reader) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not mismatches
