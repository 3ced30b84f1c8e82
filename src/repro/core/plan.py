"""Parse-once decode plans for line-fit payloads.

The paper's PE regenerates weights from ⟨m, q, len⟩ triples at one
weight per cycle and never re-parses them.  A :class:`DecodePlan` is
the software form of that: a payload is parsed and verified **once** —
blob payload CRC (:meth:`~repro.core.codecs.CompressedBlob.verify`),
header CRC, frame CRCs, bounds and finiteness validation and the
declared weight count, all in :func:`repro.core.codec.decode` — into
storage-precision coefficients, segment lengths and segment starts.
After that a decode is only :meth:`DecodePlan.evaluate`, the one
line-evaluation kernel (:func:`repro.core.linefit.evaluate_range`).

Payloads are immutable ``bytes``, so a plan built from verified bytes
stays valid for as long as it is kept: verifying once keeps the
integrity property of verifying on every decode.  A build that fails
raises and yields no plan, so the next attempt runs every check again.

Every line-fit blob decode goes through a plan: ``LineFitCodec.decode``
(plan build plus a whole-stream :meth:`~DecodePlan.evaluate`),
``BlobProvider`` cursors (ranges of one plan), archive restore and the
serving layer, which keeps one plan per compressed layer.
"""

from __future__ import annotations

import numpy as np

from .codec import decode as wire_decode
from .linefit import evaluate_range, segment_starts

__all__ = ["DecodePlan"]


class DecodePlan:
    """A verified line-fit stream, ready to regenerate any weight range.

    Attributes
    ----------
    m, q:
        Per-segment line coefficients at the precision the format
        stores (``float64``).
    lengths, starts:
        Per-segment weight counts and global first-weight indices
        (``int64``).
    num_weights:
        Total weights the plan regenerates.
    """

    __slots__ = ("m", "q", "lengths", "starts", "num_weights")

    def __init__(self, m: np.ndarray, q: np.ndarray, lengths: np.ndarray) -> None:
        self.m = np.ascontiguousarray(m, dtype=np.float64)
        self.q = np.ascontiguousarray(q, dtype=np.float64)
        self.lengths = np.ascontiguousarray(lengths, dtype=np.int64)
        self.starts = segment_starts(self.lengths)
        self.num_weights = int(self.lengths.sum())

    @classmethod
    def from_payload(
        cls, payload: bytes, expected_weights: int | None = None
    ) -> "DecodePlan":
        """Parse and check a wire payload (:func:`repro.core.codec.decode`).

        Raises :class:`~repro.core.errors.CodecError` (or its
        :class:`~repro.core.errors.IntegrityError` subclass) exactly
        where the wire decoder does.
        """
        stream = wire_decode(payload, expected_weights=expected_weights)
        m, q = stream.storage_coefficients()
        return cls(m, q, stream.lengths)

    @classmethod
    def from_blob(cls, blob, context: str = "") -> "DecodePlan":
        """Verify a line-fit blob's payload CRC, then parse its payload.

        When the blob declares its weight count (``meta.num_weights``)
        the segment lengths must sum to exactly it.
        """
        blob.verify(context=context)
        declared = blob.num_weights
        return cls.from_payload(
            blob.payload, expected_weights=declared if declared else None
        )

    @property
    def num_segments(self) -> int:
        return int(self.lengths.size)

    def evaluate(self, lo: int = 0, hi: int | None = None, dtype=np.float32) -> np.ndarray:
        """Weights ``lo .. hi - 1`` (default: all of them) as ``dtype``.

        Bitwise equal to the same slice of ``evaluate_lines(m, q,
        lengths, dtype)`` over the whole stream.
        """
        hi = self.num_weights if hi is None else int(hi)
        lo = int(lo)
        if not 0 <= lo <= hi <= self.num_weights:
            raise ValueError(
                f"range [{lo}, {hi}) outside the plan's {self.num_weights} weights"
            )
        return evaluate_range(self.m, self.q, self.lengths, self.starts, lo, hi, dtype)
