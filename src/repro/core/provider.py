"""Streamed weight delivery: the decode→consume boundary as an object.

Before this module, every consumer of compressed weights materialized
the full decoded array first (`codec.decode(blob)` → ndarray → MAC
loop).  A :class:`WeightProvider` inverts that: consumers pull decoded
weights *tile by tile* through a :class:`WeightCursor`, and the provider
decides how the tiles come to exist —

* :class:`ArrayProvider` serves views of an already-materialized array
  (the compatibility path: zero copies, zero behavior change);
* :class:`StreamProvider` decodes a line-fit
  :class:`~repro.core.compression.CompressedStream` on demand through
  :class:`~repro.core.decompressor.WeightStream`, so the full weight
  array is never allocated — the software analogue of the paper's
  in-PE decompression unit feeding the MAC datapath directly;
* :class:`BlobProvider` adapts any registered codec's
  :class:`~repro.core.codecs.CompressedBlob`: pure ``linefit`` blobs
  stream for real, as ranges of one verified
  :class:`~repro.core.plan.DecodePlan`; other codecs (whose decoders
  are not incremental) materialize once per provider and then serve
  views — same contract, documented fallback.

Tile values are **bit-identical** to the materialized decode for every
provider: streaming only changes *when* weights exist, never what they
are (property-tested in ``tests/core/test_streamed_decode.py``).  The
two line-fit providers differ in *which* decode they stream:
``StreamProvider`` models the hardware accumulator (equal to
:func:`~repro.core.decompressor.decompress_accumulate` in the cursor
dtype), ``BlobProvider`` streams the codec's own decode (equal to
``codec.decode(blob).astype(dtype)``, the float64 line rounded to
float32), so a blob gives the same weights streamed or materialized.

:func:`provider_for` normalizes anything weight-shaped (ndarray,
``CompressedStream``, ``CompressedBlob``, or an existing provider) so
call sites across ``nn``/``mapping`` accept one spelling.
"""

from __future__ import annotations

import threading

import numpy as np

from .compression import CompressedStream
from .decompressor import DEFAULT_TILE_WEIGHTS, WeightStream
from .errors import CodecError
from .plan import DecodePlan

__all__ = [
    "WeightCursor",
    "WeightProvider",
    "ArrayProvider",
    "StreamProvider",
    "BlobProvider",
    "provider_for",
]


class WeightCursor:
    """Forward read cursor over one pass of a provider's weight stream.

    The base implementation serves slices of a backing array; streaming
    providers substitute a :class:`~repro.core.decompressor.WeightStream`
    backed cursor.  ``read(n)`` returns exactly ``min(n, remaining)``
    elements; returned arrays may be views and must be treated as
    read-only by consumers.
    """

    def __init__(self, data: np.ndarray) -> None:
        self._data = data
        self._pos = 0

    @property
    def remaining(self) -> int:
        return self._data.size - self._pos

    def read(self, n: int) -> np.ndarray:
        n = min(int(n), self.remaining)
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def tiles(self, tile_weights: int = DEFAULT_TILE_WEIGHTS):
        """Iterate the remaining weights in tiles of ``tile_weights``."""
        if tile_weights <= 0:
            raise ValueError("tile_weights must be positive")
        while self.remaining:
            yield self.read(tile_weights)


class _StreamCursor(WeightCursor):
    """Cursor decoding tiles on demand from a ``WeightStream``."""

    def __init__(self, stream: CompressedStream, dtype) -> None:
        self._ws = WeightStream(stream, acc_dtype=dtype)

    @property
    def remaining(self) -> int:
        return self._ws.remaining

    def read(self, n: int) -> np.ndarray:
        return self._ws.read(n)


class _PlanCursor(WeightCursor):
    """Cursor evaluating tiles on demand as ranges of a ``DecodePlan``.

    Tiles are the codec's float32 decode, cast to the cursor dtype.
    """

    def __init__(self, plan: DecodePlan, dtype) -> None:
        self._plan = plan
        self._dtype = np.dtype(dtype)
        self._pos = 0

    @property
    def remaining(self) -> int:
        return self._plan.num_weights - self._pos

    def read(self, n: int) -> np.ndarray:
        n = max(min(int(n), self.remaining), 0)
        out = self._plan.evaluate(self._pos, self._pos + n, dtype=np.float32)
        self._pos += n
        return out.astype(self._dtype, copy=False)


class WeightProvider:
    """Source of one layer's weight stream, consumed tile-by-tile.

    Subclasses implement :meth:`cursor` (a fresh pass over the stream)
    and :attr:`num_weights`; :meth:`materialize` is derived but may be
    overridden with something cheaper.  Providers are reusable: each
    :meth:`cursor` call starts an independent pass, so one provider can
    feed many forward passes.
    """

    #: number of weights a full pass yields
    num_weights: int = 0

    def cursor(self, dtype=np.float32) -> WeightCursor:
        raise NotImplementedError

    def materialize(self, dtype=np.float32) -> np.ndarray:
        """The full decoded stream (compatibility/fallback path)."""
        return self.cursor(dtype=dtype).read(self.num_weights)

    @property
    def streaming(self) -> bool:
        """True when cursors decode incrementally (no full-size buffer)."""
        return False

    #: segment count for decompressor-timing models (0 when N/A)
    num_segments: int = 0
    #: compression ratio of the backing representation (1.0 when raw)
    compression_ratio: float = 1.0


class ArrayProvider(WeightProvider):
    """Provider over an already-materialized weight array (zero-copy)."""

    def __init__(self, weights: np.ndarray) -> None:
        self._w = np.ascontiguousarray(np.asarray(weights)).ravel()
        self.num_weights = int(self._w.size)

    def cursor(self, dtype=np.float32) -> WeightCursor:
        return WeightCursor(self._w.astype(dtype, copy=False))

    def materialize(self, dtype=np.float32) -> np.ndarray:
        return self._w.astype(dtype, copy=False)


class StreamProvider(WeightProvider):
    """Streaming provider over a line-fit :class:`CompressedStream`.

    Each cursor decodes tiles on demand through
    :class:`~repro.core.decompressor.WeightStream`; the full weight
    array is never allocated by this provider.
    """

    def __init__(self, stream: CompressedStream) -> None:
        self._stream = stream
        self.num_weights = stream.num_weights
        self.num_segments = stream.num_segments
        self.compression_ratio = stream.compression_ratio

    @property
    def stream(self) -> CompressedStream:
        return self._stream

    @property
    def streaming(self) -> bool:
        return True

    def cursor(self, dtype=np.float32) -> WeightCursor:
        return _StreamCursor(self._stream, dtype)


class BlobProvider(WeightProvider):
    """Provider over any registered codec's :class:`CompressedBlob`.

    A pure ``linefit`` blob is parsed and verified once, at
    construction, into a :class:`~repro.core.plan.DecodePlan`; its
    cursors evaluate tile ranges of that plan, so streamed and
    materialized values both equal ``codec.decode(blob)`` cast to the
    cursor dtype.  Other codecs' decoders are whole-payload, so the
    first cursor materializes the decode once (cached on the provider)
    and subsequent cursors serve views — the provider contract holds
    either way, only the peak memory differs.

    Providers are safe to share across threads: the materialize-once
    step is guarded by a lock (exactly one decode runs, concurrent
    cursors wait for the finished array instead of observing a
    partially-populated cache), and every cursor carries its own read
    position, so interleaved consumers never perturb each other.  The
    cached array is served as a read-only view contract — consumers
    must not write through it.
    """

    def __init__(self, blob) -> None:
        self._blob = blob
        self.num_weights = blob.num_weights
        self.num_segments = blob.num_segments
        self.compression_ratio = blob.compression_ratio
        self._plan: DecodePlan | None = None
        self._decoded: np.ndarray | None = None
        self._materialize_lock = threading.Lock()
        if blob.codec == "linefit":
            from .codecs import get_codec  # local import: codecs -> core cycles

            self._plan = get_codec(blob.codec, **blob.params).plan(blob)
            self.num_weights = self._plan.num_weights
            self.num_segments = self._plan.num_segments

    @property
    def blob(self):
        return self._blob

    @property
    def streaming(self) -> bool:
        return self._plan is not None

    def _materialized(self) -> np.ndarray:
        # double-checked: the lock-free fast path reads an attribute
        # that is only ever assigned a *fully decoded* array under the
        # lock, so concurrent cursors either see None (and queue on the
        # lock) or the finished decode — never a partial one, and the
        # decode itself runs exactly once
        decoded = self._decoded
        if decoded is None:
            with self._materialize_lock:
                decoded = self._decoded
                if decoded is None:
                    from .codecs import get_codec

                    codec = get_codec(self._blob.codec, **self._blob.params)
                    decoded = np.asarray(codec.decode(self._blob)).ravel()
                    if self.num_weights and decoded.size != self.num_weights:
                        raise CodecError(
                            f"blob decoded to {decoded.size} weights, "
                            f"declared {self.num_weights}"
                        )
                    self.num_weights = int(decoded.size)
                    self._decoded = decoded
        return decoded

    def cursor(self, dtype=np.float32) -> WeightCursor:
        if self._plan is not None:
            return _PlanCursor(self._plan, dtype)
        return WeightCursor(self._materialized().astype(dtype, copy=False))

    def materialize(self, dtype=np.float32) -> np.ndarray:
        if self._plan is not None:
            return self._plan.evaluate(dtype=np.float32).astype(dtype, copy=False)
        return self._materialized().astype(dtype, copy=False)


def provider_for(source) -> WeightProvider:
    """Normalize anything weight-shaped into a :class:`WeightProvider`.

    Accepts an existing provider (returned as-is), a line-fit
    :class:`CompressedStream`, any codec's :class:`CompressedBlob`, or a
    raw ndarray.
    """
    if isinstance(source, WeightProvider):
        return source
    if isinstance(source, CompressedStream):
        return StreamProvider(source)
    if isinstance(source, np.ndarray):
        return ArrayProvider(source)
    # duck-typed CompressedBlob (avoid importing codecs at module import)
    if hasattr(source, "payload") and hasattr(source, "codec"):
        return BlobProvider(source)
    raise TypeError(
        f"cannot build a WeightProvider from {type(source).__name__}"
    )
