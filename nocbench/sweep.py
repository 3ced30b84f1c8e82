"""``zoo-sweep``: a Fig. 10-style grid through the sweep runtime.

The grid is full-scale MobileNet, ResNet50 and Inception-v3, each
uncompressed and with its selected layer linefit-encoded at 5, 10 and
20 %.  A compressed point encodes and decodes the layer and runs
``Accelerator.run_model(mode="txn")``; an uncompressed point only runs
the model.  Each unit is one *pass*: the grid through ``run_tasks`` on a
fresh ``ResultCache`` (cold: every task runs and writes), then again on
the filled cache (warm: reads only).  ``TransactionModel.layer_latency``
takes most of a cold pass and ``core`` encode comes second; the flit
simulator, serve and nn never run.  AlexNet and VGG-16 are left out: one
encode of their selected layer takes seconds, which would fill a run.

Checks, outside the timed passes: every cold pass leaves byte-identical
cache entries (``results_digest``), the warm pass returns the cold
results and runs no task, and every compressed stream respects the
codec's tolerance: each segment is a delta-weakly-monotonic run and its
decoded values stay within the run's spread.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.codecs import get_codec
from repro.core.segmentation import delta_from_percent, segment_boundaries
from repro.mapping.accelerator import Accelerator
from repro.nn import zoo
from repro.runtime import GridTask, ResultCache, Timings, result_key, run_tasks
from repro.runtime.keys import fingerprint_array
from repro.runtime.shard import results_digest

from . import stats
from .metrics import ZOO_NETWORKS
from .spans import Tracer, span, unit, wrap

DELTAS = (None, 5.0, 10.0, 20.0)
WORK_DIR = Path(__file__).resolve().parent.parent / ".bench_out" / "work"


@dataclass
class Point:
    network: str
    spec: object
    layer: str
    weights: np.ndarray
    delta: float | None
    key: str


def setup(name: str, seed: int) -> list[Point]:
    points = []
    for net in ZOO_NETWORKS:
        model = getattr(zoo, net)
        spec = model.full()
        w = spec.materialize(model.SELECTED_LAYER, seed=seed).ravel()
        fp = fingerprint_array(w)
        for delta in DELTAS:
            key = result_key("nocbench-zoo-point", network=net, weights=fp, delta=delta)
            points.append(Point(net, spec, model.SELECTED_LAYER, w, delta, key))
    return points


def grid_point(p: Point, tracer: Tracer | None, k: int, spins: list[float]) -> dict:
    """One grid task: encode + decode (compressed points) and a txn run.

    A calibration kernel runs first; its time is taken out of the pass."""
    spins.append(stats.spin_ms())
    with unit((k, p.network, p.delta)):
        acc = Accelerator()
        if tracer is not None:
            wrap(acc, "schedule_layer", tracer, "mapping", name="Accelerator.schedule_layer")
            wrap(acc, "run_layer", tracer, "noc", name="Accelerator.run_layer[txn]",
                 args={"network": p.network})
        record: dict = {}
        compression = None
        if p.delta is not None:
            codec = get_codec("linefit", delta_pct=p.delta)
            with span(tracer, "LineFitCodec.encode", "core", nbytes=p.weights.nbytes):
                blob = codec.encode(p.weights)
            with span(tracer, "LineFitCodec.decode", "core", nbytes=p.weights.nbytes):
                decoded = codec.decode(blob)
            err = decoded.astype(np.float64) - p.weights
            record.update(
                cr=blob.compression_ratio,
                segments=blob.num_segments,
                rmse=float(np.sqrt(np.mean(err * err))),
            )
            compression = {p.layer: blob}
        result = acc.run_model(p.spec, compression, mode="txn")
        record.update(
            cycles=int(result.total_latency.total), energy=float(result.total_energy.total)
        )
        return record


def _delta_bound_ok(p: Point, record: dict) -> bool:
    """Re-encode untimed and check the stream against the codec's tolerance."""
    codec = get_codec("linefit", delta_pct=p.delta)
    blob = codec.encode(p.weights)
    stream = codec.decode_stream(blob)
    bounds = np.concatenate(([0], np.cumsum(stream.lengths)))
    greedy = segment_boundaries(p.weights, delta_from_percent(p.weights, p.delta))
    # long runs may be split for the length field, never merged
    runs_ok = np.isin(greedy, bounds).all() and bounds[-1] == p.weights.size
    decoded = stream.decompress(dtype=np.float32).astype(np.float64)
    w = p.weights.astype(np.float64)
    starts = bounds[:-1]
    err = np.maximum.reduceat(np.abs(decoded - w), starts)
    spread = np.maximum.reduceat(w, starts) - np.minimum.reduceat(w, starts)
    tol = 1e-5 * float(np.abs(w).max())
    err_ok = bool((err <= spread + tol).all())
    same = (record["cr"], record["segments"]) == (blob.compression_ratio, blob.num_segments)
    return bool(runs_ok and err_ok and same)


def run(name: str, points: list[Point], seed: int, seconds: float, tracer: Tracer | None):
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    passes = []
    deadline = time.perf_counter() + seconds
    # start another pass only while at least half of one still fits
    while not passes or time.perf_counter() + passes[-1]["cold_s"] / 2 < deadline:
        k = len(passes)
        if tracer is not None:
            # alternate traced and untraced passes for the overhead figure
            tracer.enabled = k % 2 == 0
        spins: list[float] = []
        tasks = [GridTask(grid_point, (p, tracer, k, spins), p.key) for p in points]
        root = tempfile.mkdtemp(dir=WORK_DIR)
        try:
            cache = ResultCache(root, enabled=True)
            cold_t, warm_t = Timings(), Timings()
            start = time.perf_counter()
            with span(tracer, "run_tasks[cold]", "runtime"):
                cold = run_tasks(tasks, jobs=1, cache=cache, timings=cold_t)
            cold_s = time.perf_counter() - start
            start = time.perf_counter()
            with span(tracer, "run_tasks[warm]", "runtime"):
                warm = run_tasks(tasks, jobs=1, cache=cache, timings=warm_t)
            warm_s = time.perf_counter() - start
            digest = results_digest(tasks, cache)
        finally:
            shutil.rmtree(root)
        in_pass = sum(spins) / 1e3
        spins.append(stats.spin_ms())
        passes.append({
            "cold_s": cold_s - in_pass,
            "cal_s": stats.calibrated(cold_s - in_pass, spins),
            "spins": spins,
            "warm_s": warm_s,
            "overhead_s": cold_s - cold_t.counters["task_seconds"],
            "digest": digest,
            "cold": cold,
            "warm": warm,
            "warm_run": warm_t.counters.get("tasks_run", 0),
            "warm_hits": warm_t.counters.get("cache_hits", 0),
            "traced": tracer is not None and tracer.enabled,
        })
    if tracer is not None:
        tracer.enabled = True

    # -- checks (untimed) -----------------------------------------------------
    checks = []
    for ps in passes:
        checks += [
            ps["digest"] == passes[0]["digest"],
            ps["warm"] == ps["cold"],
            ps["warm_run"] == 0,
            ps["cold"] == passes[0]["cold"],
        ]
    records = passes[0]["cold"]
    checks += [_delta_bound_ok(p, r) for p, r in zip(points, records) if p.delta is not None]
    attempted, failed = len(checks), checks.count(False)

    base = {p.network: r for p, r in zip(points, records) if p.delta is None}
    comp = [(p, r) for p, r in zip(points, records) if p.delta is not None]
    cold_s = stats.median(ps["cal_s"] for ps in passes)
    e2e = {
        "p50_ms": cold_s * 1e3,
        "throughput_per_s": len(points) / cold_s,
        "ok_frac": (attempted - failed) / attempted,
        "cr": stats.geomean(r["cr"] for _, r in comp),
        "weight_rmse": max(r["rmse"] for _, r in comp),
    }
    layers = {
        "noc.sim_latency_norm": stats.geomean(r["cycles"] / base[p.network]["cycles"] for p, r in comp),
        "noc.sim_energy_norm": stats.geomean(r["energy"] / base[p.network]["energy"] for p, r in comp),
        "core.segments": float(sum(r["segments"] for _, r in comp)),
        "runtime.overhead_s": stats.median(ps["overhead_s"] for ps in passes),
        "runtime.warm_pass_ms": stats.median(ps["warm_s"] * 1e3 for ps in passes),
        "runtime.warm_hit_frac": sum(ps["warm_hits"] for ps in passes) / (len(points) * len(passes)),
        "host.spin_ms": stats.median(x for ps in passes for x in ps["spins"]),
    }
    if tracer is not None:
        layers.update(_layer_metrics(tracer, passes))
    cold_list = ", ".join(f"{ps['cold_s']:.3f} ({ps['cal_s']:.3f})" for ps in passes)
    warm_list = ", ".join(f"{ps['warm_s'] * 1e3:.2f}" for ps in passes)
    lines = [
        f"passes: {len(passes)}, cold (calibrated) {cold_list} s, warm {warm_list} ms",
        f"grid digest {passes[0]['digest'][:16]}; cr_geomean {e2e['cr']:.4f}, "
        f"weight_rmse_max {e2e['weight_rmse']:.6f}",
        f"sim_latency_norm {layers['noc.sim_latency_norm']:.4f}, sim_energy_norm "
        f"{layers['noc.sim_energy_norm']:.4f} (txn model, geomean over compressed points)",
    ]
    return stats.Outcome(attempted, failed, e2e, layers, lines)


def _layer_metrics(tracer: Tracer, passes) -> dict:
    """Per-layer metrics of the traced passes; task span units are
    ``(pass, network, delta)``."""
    per_pass: dict[int, dict[str, float]] = {}
    enc = dec = enc_bytes = dec_bytes = 0.0
    for s in tracer.spans:
        if not isinstance(s.unit, tuple):
            continue
        row = per_pass.setdefault(s.unit[0], {})
        if s.name == "Accelerator.run_layer[txn]":
            key = f"noc.txn_s.{s.args['network']}"
            row[key] = row.get(key, 0.0) + s.dur
        elif s.name == "Accelerator.schedule_layer":
            row["mapping.schedule_s"] = row.get("mapping.schedule_s", 0.0) + s.dur
        elif s.name == "LineFitCodec.encode":
            enc, enc_bytes = enc + s.dur, enc_bytes + s.args["nbytes"]
        elif s.name == "LineFitCodec.decode":
            dec, dec_bytes = dec + s.dur, dec_bytes + s.args["nbytes"]
    names = [f"noc.txn_s.{n}" for n in ZOO_NETWORKS] + ["mapping.schedule_s"]
    out = {n: stats.median(r.get(n, 0.0) for r in per_pass.values()) for n in names}
    out["core.encode_mbps"] = enc_bytes / enc / 1e6
    out["core.decode_mbps"] = dec_bytes / dec / 1e6
    on = [ps["cal_s"] for ps in passes if ps["traced"]]
    off = [ps["cal_s"] for ps in passes if not ps["traced"]]
    if on and off:
        out["trace.overhead_frac"] = stats.median(on) / stats.median(off) - 1
    return out
