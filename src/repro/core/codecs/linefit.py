"""The paper's line-fit compressor behind the :class:`Codec` interface.

``LineFitCodec`` wraps the existing reference implementation —
weak-monotonic segmentation (:mod:`repro.core.segmentation`), per-segment
least squares (:mod:`repro.core.linefit`), the storage-format cost model
(:mod:`repro.core.compression`) and the RWCS wire format
(:mod:`repro.core.codec`) — without re-implementing any of it, so blobs
produced here are byte-identical to the pre-registry call sites.
Decoding builds a :class:`~repro.core.plan.DecodePlan` and evaluates it.
"""

from __future__ import annotations

import numpy as np

from .. import codec as wire
from ..compression import SEGMENTERS, CompressedStream, StorageFormat, compress
from ..errors import CodecError
from ..plan import DecodePlan
from ..segmentation import delta_from_percent
from .base import Codec, CompressedBlob, as_stream
from .registry import register_codec

__all__ = ["LineFitCodec"]

_NAMED_FORMATS = {
    "float32": StorageFormat.float32,
    "int8": StorageFormat.int8,
}


def _resolve_fmt(fmt) -> tuple[StorageFormat, object]:
    """Accept ``"float32"``/``"int8"``, a field dict, or a StorageFormat.

    Returns the format plus its JSON-serializable spelling for
    :meth:`LineFitCodec.params`.
    """
    if isinstance(fmt, StorageFormat):
        for name, factory in _NAMED_FORMATS.items():
            if fmt == factory():
                return fmt, name
        return fmt, {
            "weight_bytes": fmt.weight_bytes,
            "slope_bytes": fmt.slope_bytes,
            "intercept_bytes": fmt.intercept_bytes,
            "length_bytes": fmt.length_bytes,
        }
    if isinstance(fmt, dict):
        return StorageFormat(**fmt), dict(fmt)
    if fmt in _NAMED_FORMATS:
        return _NAMED_FORMATS[fmt](), fmt
    raise CodecError(
        f"unknown storage format {fmt!r}; use "
        f"{sorted(_NAMED_FORMATS)}, a StorageFormat or a field dict"
    )


@register_codec("linefit")
class LineFitCodec(Codec):
    """Weak-monotonic segmentation + per-segment least-squares lines.

    Parameters
    ----------
    delta_pct:
        Tolerance as a percentage of the stream's amplitude (the
        paper's convention); ignored when ``delta`` is given.
    delta:
        Absolute tolerance, overriding ``delta_pct`` (used when the
        tolerance must be derived from a different stream than the one
        encoded, e.g. the full-stream range of a sliced evaluation).
    fmt:
        Storage cost model: ``"float32"`` (default, 8 B/segment) or
        ``"int8"`` (6 B/segment, Tab. III), a field dict, or a
        :class:`~repro.core.compression.StorageFormat`.
    framing:
        Wire framing: ``"crc"`` (default, the version-3 CRC-framed
        format) or ``"legacy"`` (the pre-integrity version-2 layout).
        An ``identical``-class ablation hook — decoded bytes must not
        depend on the framing, only damage *detection* does.
    segmenter:
        Partitioning-rule implementation
        (:data:`repro.core.compression.SEGMENTERS`): ``"vectorized"``
        (default) or ``"reference"`` (the sequential greedy scan).
        Also ``identical``-class: both must produce the same partition.
    """

    lossless = False

    _FRAMINGS = ("crc", "legacy")

    def __init__(
        self,
        delta_pct: float = 0.0,
        delta: float | None = None,
        fmt="float32",
        framing: str = "crc",
        segmenter: str = "vectorized",
    ) -> None:
        self.delta_pct = float(delta_pct)
        self.delta = None if delta is None else float(delta)
        self.fmt, self._fmt_spec = _resolve_fmt(fmt)
        if framing not in self._FRAMINGS:
            raise CodecError(
                f"unknown framing {framing!r}; use {list(self._FRAMINGS)}"
            )
        if segmenter not in SEGMENTERS:
            raise CodecError(
                f"unknown segmenter {segmenter!r}; use {sorted(SEGMENTERS)}"
            )
        self.framing = framing
        self.segmenter = segmenter

    def params(self) -> dict:
        out: dict = {"delta_pct": self.delta_pct, "fmt": self._fmt_spec}
        if self.delta is not None:
            out["delta"] = self.delta
        # non-default toggles only: existing archives/cache keys keep
        # their byte-identical params spelling
        if self.framing != "crc":
            out["framing"] = self.framing
        if self.segmenter != "vectorized":
            out["segmenter"] = self.segmenter
        return out

    def _delta_for(self, w: np.ndarray) -> float:
        if self.delta is not None:
            return self.delta
        return delta_from_percent(w, self.delta_pct)

    def encode(self, weights: np.ndarray) -> CompressedBlob:
        w = as_stream(weights)
        stream = compress(
            w, self._delta_for(w), fmt=self.fmt, segmenter=self.segmenter
        )
        return self._blob_from_stream(stream, str(w.dtype))

    def _blob_from_stream(self, stream: CompressedStream, dtype: str) -> CompressedBlob:
        pack = wire.encode if self.framing == "crc" else wire.encode_legacy
        return CompressedBlob(
            codec=self.name,
            params=self.params(),
            payload=pack(stream),
            meta={
                "num_segments": stream.num_segments,
                "num_weights": stream.num_weights,
                "dtype": dtype,
            },
            original_bytes=stream.original_bytes,
            compressed_bytes=stream.compressed_bytes,
        )

    def decode_stream(self, blob: CompressedBlob) -> CompressedStream:
        """The parsed :class:`CompressedStream` behind a blob.

        For inspecting the segment structure (lengths, coefficients,
        storage format); decoding weights goes through :meth:`plan`.
        When the blob declares its weight count (``meta.num_weights``),
        the segment lengths must sum to exactly it.
        """
        declared = blob.num_weights
        return wire.decode(
            blob.payload, expected_weights=declared if declared else None
        )

    def plan(self, blob: CompressedBlob, context: str = "") -> DecodePlan:
        """The verified :class:`~repro.core.plan.DecodePlan` of a blob.

        Runs every check a decode runs: the payload CRC the blob
        records (if any), the wire format's header and frame CRCs,
        bounds and finiteness, and — when the blob declares its weight
        count (``meta.num_weights``) — that the segment lengths sum to
        exactly it, so a length field corrupted in storage can never
        silently mis-shape the regenerated stream.
        """
        return DecodePlan.from_blob(blob, context=context)

    def decode(self, blob: CompressedBlob) -> np.ndarray:
        return self.plan(blob).evaluate(dtype=np.float32)

    def reconstruction_mse(self, blob: CompressedBlob, original: np.ndarray) -> float:
        # the float64 line against the float64 original, bit-identical
        # with CompressedStream.mse on the Tab. II path
        w = np.asarray(original, dtype=np.float64).ravel()
        if w.size == 0:
            return 0.0
        plan = self.plan(blob)
        if w.size != plan.num_weights:
            raise ValueError(
                f"original has {w.size} weights, stream encodes {plan.num_weights}"
            )
        diff = plan.evaluate(dtype=np.float64) - w
        return float(np.mean(diff * diff))
