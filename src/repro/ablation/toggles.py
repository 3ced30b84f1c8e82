"""The registered features: one runner per toggleable design choice.

Every runner is a module-level function ``(workload, on, fast) ->
dict`` (picklable for pool/shard workers) that executes the workload
with the feature ``on`` or ``off`` through the subsystem's *real*
toggle hook — codec parameters (``framing``, ``segmenter``,
``delta_pct``, ``fmt``), :class:`~repro.mapping.accelerator.
AcceleratorConfig` fields (``reference_stepper``, ``routing``,
``streamed_decode``, ``refetch_model``, ``demand_mode``), or the
:mod:`repro.runtime` cache API — never a reimplementation of the
feature, so a delta here is a delta in shipped code paths.

``DEFAULT_FEATURES`` is the registry the ``fig_ablation`` experiment
and the tier-1 zero-delta smoke run against.
"""

from __future__ import annotations

import hashlib
import json
import tempfile

import numpy as np

from ..core.codecs import LineFitCodec
from ..core.compression import StorageFormat, compress_percent
from ..core.provider import provider_for
from ..runtime import GridTask, ResultCache, result_key, run_tasks
from . import workloads as wl
from .registry import IDENTICAL, MEASURED, Feature, FeatureRegistry

__all__ = ["DEFAULT_FEATURES"]

_DELTA_PCT = 10.0  # the shared operating point of the codec-side features

STREAMS = ("lenet-dense", "gaussian", "adversarial")


def _codec_metrics(codec: LineFitCodec, w: np.ndarray) -> dict:
    """CR / MSE / segment count plus the decoded-bytes identity witness."""
    blob = codec.encode(w)
    decoded = codec.decode(blob)
    return {
        "cr": float(blob.compression_ratio),
        "mse": float(codec.reconstruction_mse(blob, w)),
        "num_segments": float(blob.num_segments),
        "decoded": wl.decoded_digest(decoded),
    }


# -- identical-class runners -------------------------------------------------


def run_crc_framing(workload: str, on: bool, fast: bool) -> dict:
    """v3 CRC-framed wire format vs the pre-integrity v2 layout.

    Framing adds detection, never content: decoded bytes, CR (the cost
    model excludes the trailer) and MSE must all be unchanged.
    """
    w = wl.stream(workload, fast)
    codec = LineFitCodec(delta_pct=_DELTA_PCT, framing="crc" if on else "legacy")
    return _codec_metrics(codec, w)


def run_segmenter(workload: str, on: bool, fast: bool) -> dict:
    """Vectorized partitioning rule vs the sequential greedy reference."""
    w = wl.stream(workload, fast)
    codec = LineFitCodec(
        delta_pct=_DELTA_PCT, segmenter="vectorized" if on else "reference"
    )
    return _codec_metrics(codec, w)


def run_streamed_decode(workload: str, on: bool, fast: bool) -> dict:
    """Tile-cursor streamed decode vs materializing the full array.

    ``on`` pulls the blob through a :class:`~repro.core.provider.
    BlobProvider` cursor in deliberately uneven chunks (the fused
    forward's access pattern); ``off`` decodes the whole stream at
    once.  The reassembled bytes must be identical.
    """
    w = wl.stream(workload, fast)
    codec = LineFitCodec(delta_pct=_DELTA_PCT)
    blob = codec.encode(w)
    if on:
        cursor = provider_for(blob).cursor(dtype=np.float32)
        chunks, sizes, i = [], (1, 3, 17, 64, 251, 1024), 0
        while cursor.remaining:
            chunks.append(cursor.read(min(sizes[i % len(sizes)], cursor.remaining)))
            i += 1
        decoded = (
            np.concatenate(chunks) if chunks else np.empty(0, dtype=np.float32)
        )
    else:
        decoded = codec.decode(blob)
    return {
        "decoded": wl.decoded_digest(decoded),
        "num_weights": float(decoded.size),
    }


def _cache_point(workload: str, fast: bool, delta_pct: float) -> dict:
    """One grid point of the result-cache feature's inner sweep."""
    w = wl.stream(workload, fast)
    stream = compress_percent(w, delta_pct)
    return {
        "delta_pct": delta_pct,
        "cr": float(stream.compression_ratio),
        "mse": float(stream.mse(w)),
        "num_segments": float(stream.num_segments),
    }


def run_result_cache(workload: str, on: bool, fast: bool) -> dict:
    """Content-addressed result cache on (warm read-back) vs off.

    ``on`` runs a small sweep grid twice against a private cache — the
    second pass returns every record from disk — and reports the
    *warm* results; ``off`` computes the same grid uncached.  Any delta
    is a serialization-fidelity bug in the cache codec.
    """
    deltas = (0.0, 5.0, 15.0)
    fp = wl.stream_fingerprint(workload, fast)

    def _tasks(keyed: bool) -> list[GridTask]:
        return [
            GridTask(
                fn=_cache_point,
                args=(workload, fast, d),
                key=result_key(
                    "ablation-cache-point",
                    workload=workload,
                    fast=fast,
                    delta_pct=d,
                    stream=fp,
                )
                if keyed
                else None,
            )
            for d in deltas
        ]

    if on:
        with tempfile.TemporaryDirectory(prefix="ablation-cache-") as root:
            cache = ResultCache(root=root, enabled=True)
            run_tasks(_tasks(True), jobs=1, cache=cache)  # cold fill
            records = run_tasks(_tasks(True), jobs=1, cache=cache)  # warm
    else:
        records = run_tasks(_tasks(False), jobs=1)
    payload = json.dumps(records, sort_keys=True)
    return {
        "records": hashlib.sha256(payload.encode()).hexdigest(),
        "num_records": float(len(records)),
    }


def run_cycle_skip(workload: str, on: bool, fast: bool) -> dict:
    """Activity-scheduled cycle-skipping fast path vs ``step_reference``."""
    del workload, fast  # one canonical flit-level layer run
    return wl.result_metrics(wl.layer_run({"reference_stepper": not on}))


# -- measured-class runners --------------------------------------------------


def run_monotonicity(workload: str, on: bool, fast: bool) -> dict:
    """Weak-monotonic rule (delta > 0) vs strict sense (delta = 0)."""
    w = wl.stream(workload, fast)
    codec = LineFitCodec(delta_pct=_DELTA_PCT if on else 0.0)
    m = _codec_metrics(codec, w)
    del m["decoded"]  # measured: the numeric deltas are the result
    return m


def run_storage_format(workload: str, on: bool, fast: bool) -> dict:
    """Default 8 B/segment (24-bit coeffs) vs 6 B/segment (float16)."""
    w = wl.stream(workload, fast)
    fmt = (
        StorageFormat()
        if on
        else StorageFormat(slope_bytes=2, intercept_bytes=2)
    )
    m = _codec_metrics(LineFitCodec(delta_pct=_DELTA_PCT, fmt=fmt), w)
    del m["decoded"]
    return m


def run_routing(workload: str, on: bool, fast: bool) -> dict:
    """XY dimension-order routing (paper default) vs YX."""
    del workload, fast
    return wl.result_metrics(wl.layer_run({"routing": "xy" if on else "yx"}))


def run_transaction_model(workload: str, on: bool, fast: bool) -> dict:
    """Flit-level ground truth vs the calibrated transaction model."""
    del workload, fast
    return wl.result_metrics(wl.layer_run(mode="flit" if on else "txn"))


def run_streamed_timing(workload: str, on: bool, fast: bool) -> dict:
    """Streamed decode+MAC overlap timing vs materialize-then-compute."""
    del workload, fast
    return wl.result_metrics(wl.layer_run({"streamed_decode": on}))


def run_conv_traffic(workload: str, on: bool, fast: bool) -> dict:
    """Single-pass "paper" conv traffic vs conservative "banded" refetch."""
    del workload, fast
    return wl.result_metrics(
        wl.layer_run(
            {"refetch_model": "paper" if on else "banded"}, layer="conv2d_2"
        )
    )


def run_demand_mode(workload: str, on: bool, fast: bool) -> dict:
    """PE-issued request packets vs statically scheduled MC programs."""
    del workload, fast
    return wl.result_metrics(wl.layer_run({"demand_mode": on}))


# -- the default registry ----------------------------------------------------

DEFAULT_FEATURES = FeatureRegistry()

for _feature in (
    Feature(
        name="core.crc_framing",
        delta_class=IDENTICAL,
        description="CRC32 frame integrity in the wire format",
        toggle="LineFitCodec(framing='crc'|'legacy')",
        runner=run_crc_framing,
        workloads=("lenet-dense", "adversarial"),
    ),
    Feature(
        name="core.segmenter",
        delta_class=IDENTICAL,
        description="vectorized monotone-run partitioner vs greedy reference",
        toggle="compress(segmenter='vectorized'|'reference')",
        runner=run_segmenter,
        workloads=STREAMS,
    ),
    Feature(
        name="core.streamed_decode",
        delta_class=IDENTICAL,
        description="tile-cursor streamed decode vs full materialization",
        toggle="WeightProvider.cursor() vs Codec.decode()",
        runner=run_streamed_decode,
        workloads=("lenet-dense", "gaussian", "random-walk"),
    ),
    Feature(
        name="runtime.result_cache",
        delta_class=IDENTICAL,
        description="content-addressed on-disk result cache",
        toggle="run_tasks(cache=ResultCache(...) | None)",
        runner=run_result_cache,
        workloads=("gaussian",),
    ),
    Feature(
        name="noc.cycle_skip",
        delta_class=IDENTICAL,
        description="activity-scheduled cycle-skipping NoC fast path",
        toggle="AcceleratorConfig.reference_stepper",
        runner=run_cycle_skip,
        workloads=("lenet-layer",),
    ),
    Feature(
        name="core.monotonicity",
        delta_class=MEASURED,
        description="weak-monotonic segmentation rule (delta tolerance)",
        toggle="LineFitCodec(delta_pct=10 vs 0)",
        runner=run_monotonicity,
        workloads=STREAMS,
    ),
    Feature(
        name="core.storage_format",
        delta_class=MEASURED,
        description="8 B/segment 24-bit coeffs vs 6 B/segment float16",
        toggle="LineFitCodec(fmt=StorageFormat(...))",
        runner=run_storage_format,
        workloads=("lenet-dense", "gaussian"),
    ),
    Feature(
        name="noc.routing",
        delta_class=MEASURED,
        description="XY dimension-order routing vs YX",
        toggle="AcceleratorConfig.routing",
        runner=run_routing,
        workloads=("lenet-layer",),
    ),
    Feature(
        name="noc.transaction_model",
        delta_class=MEASURED,
        description="flit-level simulator vs calibrated transaction model",
        toggle="Accelerator.run_model(mode='flit'|'txn')",
        runner=run_transaction_model,
        workloads=("lenet-layer",),
    ),
    Feature(
        name="mapping.streamed_timing",
        delta_class=MEASURED,
        description="fused decode+MAC overlap hiding decode cycles",
        toggle="AcceleratorConfig.streamed_decode",
        runner=run_streamed_timing,
        workloads=("lenet-layer",),
        default_on=False,
    ),
    Feature(
        name="mapping.conv_traffic",
        delta_class=MEASURED,
        description="single-pass paper conv traffic vs banded refetch",
        toggle="AcceleratorConfig.refetch_model",
        runner=run_conv_traffic,
        workloads=("lenet-conv",),
    ),
    Feature(
        name="noc.demand_scheduling",
        delta_class=MEASURED,
        description="PE-issued demand requests vs static MC schedules",
        toggle="AcceleratorConfig.demand_mode",
        runner=run_demand_mode,
        workloads=("lenet-layer",),
        default_on=False,
    ),
):
    DEFAULT_FEATURES.register(_feature)
