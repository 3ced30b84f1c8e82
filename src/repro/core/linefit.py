"""Per-segment least-squares line fitting.

For every monotonic sub-succession ``M_i = {w_f, ..., w_l}`` the paper
stores the coefficients ``(m_i, q_i)`` of the line minimizing the mean
squared error over the points ``(j, w_{f+j})``, ``j = 0 .. |M_i| - 1``.

With local abscissae ``x = 0 .. L-1`` the normal equations have the
closed form::

    m = (L * Sxy - Sx * Sy) / (L * Sxx - Sx**2)
    q = (Sy - m * Sx) / L

where ``Sx = L(L-1)/2`` and ``Sxx = (L-1)L(2L-1)/6`` depend only on the
segment length, and ``Sy``, ``Sxy`` are computed for *all* segments at
once with ``np.add.reduceat`` over the stream (``Sxy`` uses the identity
``sum_j j * w_{f+j} = sum_k k * w_k - f * Sy`` on global indices ``k``).
No Python-level loop over segments is required.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fit_segments", "evaluate_lines", "evaluate_range", "segment_starts"]


def fit_segments(
    weights: np.ndarray, boundaries: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares line per segment.

    Parameters
    ----------
    weights:
        The 1-D stream being compressed.
    boundaries:
        Segment boundary array from
        :func:`repro.core.segmentation.segment_boundaries`.

    Returns
    -------
    (m, q):
        ``float64`` arrays, one slope and intercept per segment.
        Length-1 segments get ``m = 0`` and ``q = w``.
    """
    w = np.asarray(weights, dtype=np.float64).ravel()
    b = np.asarray(boundaries, dtype=np.int64)
    num_segments = b.size - 1
    if num_segments <= 0 or w.size == 0:
        return np.zeros(0), np.zeros(0)
    starts = b[:-1]
    lengths = np.diff(b).astype(np.float64)

    # reduceat with a trailing start index == len(w) would error; starts
    # from segment_boundaries never include n because the last boundary
    # is exclusive and dropped by b[:-1].
    sy = np.add.reduceat(w, starts)
    k = np.arange(w.size, dtype=np.float64)
    sky = np.add.reduceat(k * w, starts)
    sxy = sky - starts * sy

    sx = lengths * (lengths - 1.0) / 2.0
    sxx = (lengths - 1.0) * lengths * (2.0 * lengths - 1.0) / 6.0

    denom = lengths * sxx - sx * sx
    m = np.zeros(num_segments)
    multi = denom > 0  # false exactly for length-1 segments
    m[multi] = (lengths[multi] * sxy[multi] - sx[multi] * sy[multi]) / denom[multi]
    q = (sy - m * sx) / lengths
    return m, q


def evaluate_lines(
    m: np.ndarray,
    q: np.ndarray,
    lengths: np.ndarray,
    dtype=np.float64,
) -> np.ndarray:
    """Evaluate ``m_i * x + q_i`` for ``x = 0 .. L_i - 1``, concatenated.

    This is the *mathematical* decompression (used for accuracy studies
    and MSE metrics); the hardware-faithful accumulator datapath lives in
    :mod:`repro.core.decompressor`.  It is :func:`evaluate_range` over
    the whole stream.
    """
    m = np.asarray(m, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if m.shape != q.shape or m.shape != lengths.shape:
        raise ValueError("m, q and lengths must have identical shapes")
    n = int(lengths.sum())
    return evaluate_range(m, q, lengths, segment_starts(lengths), 0, n, dtype)


def segment_starts(lengths: np.ndarray) -> np.ndarray:
    """Global index of each segment's first weight (``int64``)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    return np.cumsum(lengths) - lengths


#: weights regenerated per pass of :func:`evaluate_range`: the float64
#: temporaries of one pass stay cache-sized (a whole-layer pass over
#: ~100k weights runs at about two thirds of the speed)
EVAL_TILE = 16384


def evaluate_range(
    m: np.ndarray,
    q: np.ndarray,
    lengths: np.ndarray,
    starts: np.ndarray,
    lo: int,
    hi: int,
    dtype=np.float64,
) -> np.ndarray:
    """Weights ``lo .. hi - 1`` of the concatenated lines — the one kernel.

    ``m``/``q`` are ``float64``, ``lengths``/``starts`` ``int64`` (see
    :func:`segment_starts`) and ``0 <= lo <= hi <= lengths.sum()``.
    Every element is ``m_i * x + q_i`` in ``float64`` with ``x`` its
    local abscissa, then cast to ``dtype``, so any range is bitwise the
    same slice of the whole-stream evaluation.  Only the segments the
    range touches are expanded, :data:`EVAL_TILE` weights at a time.
    """
    out = np.empty(max(hi - lo, 0), dtype=dtype)
    for a in range(lo, hi, EVAL_TILE):
        b = min(a + EVAL_TILE, hi)
        out[a - lo : b - lo] = _lines(m, q, lengths, starts, a, b)
    return out


def _lines(m, q, lengths, starts, lo: int, hi: int) -> np.ndarray:
    """``float64`` weights ``lo .. hi - 1`` (``lo < hi``)."""
    first = int(np.searchsorted(starts, lo, side="right")) - 1
    last = int(np.searchsorted(starts, hi, side="left"))
    counts = lengths[first:last]
    head = lo - int(starts[first])
    tail = int(starts[last - 1] + lengths[last - 1]) - hi
    if head or tail:
        counts = counts.copy()
        counts[0] -= head
        counts[-1] -= tail
    seg_of = np.repeat(np.arange(first, last), counts)
    # local abscissa (global index minus the start of its segment), then
    # m * x + q in place: one index array and one float64 buffer
    x = np.arange(lo, hi, dtype=np.float64)
    x -= starts.take(seg_of)
    x *= m.take(seg_of)
    x += q.take(seg_of)
    return x
