"""DecodePlan: parse once, check everything once, evaluate any range.

The plan is the only path from a line-fit payload to weights, so these
tests pin three things: the new ``np.repeat``/``take`` kernel is bitwise
the historical ``seg_of``-gather formula (kept here as the oracle), any
range of a plan is bitwise the same slice of the whole-stream decode,
and a plan build raises exactly the typed error the strict wire decoder
raises on a damaged payload.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import codec as wire
from repro.core.codecs import CompressedBlob, LineFitCodec, get_codec
from repro.core.compression import StorageFormat
from repro.core.errors import CodecError, IntegrityError
from repro.core.linefit import EVAL_TILE, evaluate_lines
from repro.core.plan import DecodePlan
from repro.resilience.inject import BitFlipInjector


def seg_of_oracle(m, q, lengths, dtype):
    """The line evaluation as it was written before the plan existed."""
    m = np.asarray(m, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.int64)
    n = int(lengths.sum())
    if n == 0:
        return np.zeros(0, dtype=dtype)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    seg_of = np.repeat(np.arange(lengths.size), lengths)
    x = np.arange(n, dtype=np.float64) - starts[seg_of]
    out = m[seg_of] * x + q[seg_of]
    return out.astype(dtype, copy=False)


def _bits(a: np.ndarray) -> bytes:
    return a.dtype.str.encode() + a.tobytes()


_coeff = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=64
)


@st.composite
def segments(draw):
    k = draw(st.integers(min_value=0, max_value=40))
    lengths = draw(st.lists(st.integers(1, 300), min_size=k, max_size=k))
    m = draw(st.lists(_coeff, min_size=k, max_size=k))
    q = draw(st.lists(_coeff, min_size=k, max_size=k))
    return np.array(m), np.array(q), np.array(lengths, dtype=np.int64)


DTYPES = [np.float32, np.float64, np.float16]


# float16 outputs of large coefficients overflow to inf in both kernels
@pytest.mark.filterwarnings("ignore:overflow encountered in cast")
class TestKernelMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(seg=segments(), dtype=st.sampled_from(DTYPES))
    def test_evaluate_lines_bitwise(self, seg, dtype):
        m, q, lengths = seg
        got = evaluate_lines(m, q, lengths, dtype=dtype)
        assert _bits(got) == _bits(seg_of_oracle(m, q, lengths, dtype))

    @settings(max_examples=150, deadline=None)
    @given(
        seg=segments(),
        dtype=st.sampled_from(DTYPES),
        cut=st.tuples(st.floats(0, 1), st.floats(0, 1)),
    )
    def test_any_range_is_the_same_slice(self, seg, dtype, cut):
        m, q, lengths = seg
        plan = DecodePlan(m, q, lengths)
        n = plan.num_weights
        lo, hi = sorted(int(c * n) for c in cut)
        whole = seg_of_oracle(m, q, lengths, dtype)
        assert _bits(plan.evaluate(lo, hi, dtype)) == _bits(whole[lo:hi])

    def test_ranges_across_evaluation_tiles(self):
        rng = np.random.default_rng(2)
        lengths = rng.integers(1, 900, size=200)  # ~90k weights
        m, q = rng.standard_normal(200), rng.standard_normal(200)
        plan = DecodePlan(m, q, lengths)
        assert plan.num_weights > 4 * EVAL_TILE
        whole = seg_of_oracle(m, q, lengths, np.float32)
        assert _bits(plan.evaluate()) == _bits(whole)
        for lo, hi in [(0, EVAL_TILE + 1), (EVAL_TILE - 3, 3 * EVAL_TILE + 7), (5, plan.num_weights)]:
            assert _bits(plan.evaluate(lo, hi)) == _bits(whole[lo:hi])

    def test_range_outside_the_plan_raises(self):
        plan = DecodePlan(np.ones(2), np.zeros(2), np.array([3, 4]))
        assert plan.evaluate().size == 7
        with pytest.raises(ValueError, match="outside"):
            plan.evaluate(0, 8)
        with pytest.raises(ValueError, match="outside"):
            plan.evaluate(5, 4)


def _blob(delta_pct=5.0, fmt="float32", n=3000, seed=0, **kw):
    w = np.random.default_rng(seed).standard_normal(n).astype(np.float32)
    codec = LineFitCodec(delta_pct=delta_pct, fmt=fmt, **kw)
    return codec, codec.encode(w), w


class TestBuild:
    @pytest.mark.parametrize("fmt", ["float32", "int8"])
    @pytest.mark.parametrize("framing", ["crc", "legacy"])
    def test_plan_equals_parsed_stream_decode(self, fmt, framing):
        codec, blob, _ = _blob(fmt=fmt, framing=framing)
        plan = codec.plan(blob)
        stream = wire.decode(blob.payload)
        m, q = stream.storage_coefficients()
        np.testing.assert_array_equal(plan.m, m)
        np.testing.assert_array_equal(plan.q, q)
        np.testing.assert_array_equal(plan.lengths, stream.lengths)
        assert plan.num_segments == blob.num_segments
        for dtype in (np.float32, np.float64):
            assert _bits(plan.evaluate(dtype=dtype)) == _bits(
                stream.decompress(dtype=dtype)
            )

    def test_codec_decode_is_the_plan(self):
        codec, blob, w = _blob()
        assert _bits(codec.decode(blob)) == _bits(codec.plan(blob).evaluate())
        stream = wire.decode(blob.payload)
        assert codec.reconstruction_mse(blob, w) == stream.mse(w)

    def test_non_default_storage_format(self):
        fmt = StorageFormat(weight_bytes=4, slope_bytes=4, intercept_bytes=2)
        codec, blob, _ = _blob(fmt=fmt)
        stream = wire.decode(blob.payload)
        assert _bits(codec.decode(blob)) == _bits(stream.decompress())

    def test_payload_crc_is_verified(self):
        codec, blob, _ = _blob()
        good = blob.with_checksum()
        codec.plan(good)  # verifies
        damaged = CompressedBlob.rebuild(
            good.spec(), BitFlipInjector(seed=1, ber=1e-3).corrupt_bytes(good.payload)
        )
        with pytest.raises(IntegrityError, match="payload checksum mismatch .layer"):
            codec.plan(damaged, context="layer 'x'")

    @pytest.mark.parametrize("seed", range(6))
    def test_damaged_payload_raises_what_the_wire_decoder_raises(self, seed):
        _, blob, _ = _blob(seed=seed)
        bad = BitFlipInjector(seed=seed, ber=2e-4).corrupt_bytes(blob.payload)
        with pytest.raises(CodecError) as expected:
            wire.decode(bad, expected_weights=blob.num_weights)
        with pytest.raises(CodecError) as got:
            DecodePlan.from_payload(bad, expected_weights=blob.num_weights)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)

    def test_declared_weight_count_is_enforced(self):
        _, blob, _ = _blob(n=500)
        with pytest.raises(CodecError, match="declared"):
            DecodePlan.from_payload(blob.payload, expected_weights=499)
        spec = blob.spec()
        spec["meta"]["num_weights"] = 501
        with pytest.raises(CodecError, match="declared"):
            get_codec("linefit").plan(CompressedBlob.rebuild(spec, blob.payload))

    def test_empty_stream(self):
        codec = LineFitCodec()
        blob = codec.encode(np.zeros(0, dtype=np.float32))
        plan = codec.plan(blob)
        assert plan.num_weights == 0 and plan.evaluate().size == 0
