"""Every metric the benchmark prints, with its unit, direction and bound.

``BENCHMARK.json`` mirrors these tables (a test keeps them equal).

End-to-end metrics are printed by every workload, each defined on that
workload's own *unit* of work:

============  =======================  ======================  ====================
workload      unit                     throughput_per_s        ok_frac
============  =======================  ======================  ====================
lenet-flit    one LeNet-5 flit pair    flit inferences / s     pairs equal to ref.
zoo-sweep     one cold grid pass       cold grid points / s    points within bound
serve-hot     one request (ref. rate)  highest rate in limit   Ok / attempted
serve-evict   one request (ref. rate)  highest rate in limit   Ok / attempted
============  =======================  ======================  ====================

Host times (``setup_s``, ``p50_ms``, ``throughput_per_s``) are
*calibrated*: this host's speed drifts in phases of seconds to minutes,
so each unit of work is scaled by a pure-Python kernel run right before
and after it (``stats.calibrated``) to the speed at which that kernel
takes ``stats.SPIN_REF_MS``.  The report lines print the raw times too.

``cr`` and ``weight_rmse`` are exact properties of the workload's
compressed weights.  The simulated latency, energy and transaction-model
error are exact too, but only the NoC workloads have them, so they are
per-layer ``noc.*`` metrics.  The repository holds no hardware
reference: the NoC model is unvalidated, and ``noc.txn_err_max`` (the
transaction model against the flit model) is its only error figure.

Per-layer metrics come from the traced run only.  A workload that
bypasses a layer reports 0 for that layer's metrics.
"""

from __future__ import annotations

#: LeNet-5 layers that occupy the accelerator, in execution order
FLIT_LAYERS = (
    "conv2d_1", "max_pooling2d_1", "conv2d_2", "max_pooling2d_2",
    "dense_1", "dense_2", "dense_3",
)
FLIT_ARMS = ("unc", "cmp")
ZOO_NETWORKS = ("mobilenet", "resnet50", "inception_v3")
#: parametric layers of the served LeNet-5 proxy
SERVE_PARAM_LAYERS = ("conv2d_1", "conv2d_2", "dense_1", "dense_2", "dense_3")
#: graph nodes of the served LeNet-5 proxy
SERVE_NODES = (
    "conv2d_1", "relu_1", "max_pooling2d_1", "conv2d_2", "relu_2",
    "max_pooling2d_2", "flatten", "dense_1", "relu_3", "dense_2", "relu_4",
    "dense_3", "softmax",
)

WORKLOADS = {
    "lenet-flit": "LeNet-5 flit-level on the 4x4 mesh, uncompressed vs dense_1 at 5%; "
    "loads noc flit sim + mapping, bypasses runtime, serve, nn",
    "zoo-sweep": "MobileNet/ResNet50/Inception-v3 x {raw,5,10,20%} through run_tasks, "
    "cold then warm cache; loads noc txn, core, runtime, bypasses flit sim, serve, nn",
    "serve-hot": "served LeNet-5 proxy, dense_1 compressed, open-loop Poisson; loads serve "
    "batching + nn forward, bypasses core decode (cache hits), noc, runtime",
    "serve-evict": "served LeNet-5 proxy, all layers compressed, 128 KiB cache; loads core "
    "decode on every batch (LRU misses), serve, nn, bypasses noc, runtime",
}

#: name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "p50_ms": ("ms", "lower", 0.25),
    "throughput_per_s": ("1/s", "higher", 0.25),
    "ok_frac": ("frac", "higher", 0.05),
    "cr": ("ratio", "higher", 0.05),
    "weight_rmse": ("weight", "lower", 0.05),
}

_E2E_FLIT = (("p50_ms", "lenet-flit"), ("throughput_per_s", "lenet-flit"))
_E2E_SWEEP = (("p50_ms", "zoo-sweep"), ("throughput_per_s", "zoo-sweep"))
_E2E_SERVE = tuple(
    (m, w) for w in ("serve-hot", "serve-evict") for m in ("p50_ms", "throughput_per_s")
)
_E2E_EVICT = (("p50_ms", "serve-evict"),)
_E2E_HOT = (("p50_ms", "serve-hot"),)
_NONE: tuple = ()

#: name -> (unit, better, end-to-end metrics and workloads it should move)
PER_LAYER: dict[str, tuple[str, str, tuple]] = {}
for _arm in FLIT_ARMS:
    for _layer in FLIT_LAYERS:
        PER_LAYER[f"noc.flit_s.{_arm}.{_layer}"] = ("s", "lower", _E2E_FLIT)
PER_LAYER["noc.host_ns_per_hop"] = ("ns", "lower", _E2E_FLIT)
for _arm in FLIT_ARMS:
    PER_LAYER[f"noc.sim_cycles.{_arm}"] = ("cycles", "lower", _NONE)
    PER_LAYER[f"noc.flit_hops.{_arm}"] = ("count", "lower", _NONE)
PER_LAYER.update({
    "noc.sim_latency_norm": ("ratio", "lower", _NONE),
    "noc.sim_energy_norm": ("ratio", "lower", _NONE),
    "noc.txn_err_max": ("frac", "lower", _NONE),
    "mapping.schedule_s": ("s", "lower", _E2E_FLIT + _E2E_SWEEP),
})
for _net in ZOO_NETWORKS:
    PER_LAYER[f"noc.txn_s.{_net}"] = ("s", "lower", _E2E_SWEEP)
PER_LAYER.update({
    "core.encode_mbps": ("MB/s", "higher", _E2E_SWEEP),
    "core.decode_mbps": ("MB/s", "higher", _E2E_SWEEP),
    "core.segments": ("count", "lower", (("cr", "zoo-sweep"),)),
    "runtime.overhead_s": ("s", "lower", _E2E_SWEEP),
    # the read side of the result cache: moves no end-to-end metric, shows
    # a write-path gain that costs reads
    "runtime.warm_pass_ms": ("ms", "lower", _NONE),
    "runtime.warm_hit_frac": ("frac", "higher", _NONE),
    "serve.queue_wait_ms": ("ms", "lower", _E2E_SERVE),
    "serve.batch_size_mean": ("count", "lower", _E2E_SERVE),
    "serve.forward_batch_ms": ("ms", "lower", _E2E_SERVE),
    "serve.tail_ms": ("ms", "lower", _E2E_SERVE),
    "serve.resolve_ms": ("ms", "lower", _E2E_EVICT),
    "serve.cache_hit_frac": ("frac", "higher", _E2E_EVICT),
    "serve.evictions_per_batch": ("count", "lower", _E2E_EVICT),
})
for _layer in SERVE_PARAM_LAYERS:
    PER_LAYER[f"core.decode_ms.{_layer}"] = ("ms", "lower", _E2E_EVICT)
PER_LAYER["nn.forward_sample_ms"] = ("ms", "lower", _E2E_HOT)
for _node in SERVE_NODES:
    PER_LAYER[f"nn.layer_ms.{_node}"] = ("ms", "lower", _E2E_HOT)
PER_LAYER.update({
    # validity marker of an open-loop run, not an optimisation target
    "bench.gen_lateness_ms": ("ms", "lower", _NONE),
    # the calibration kernel's median time: host speed, not a target
    "host.spin_ms": ("ms", "lower", _NONE),
    "trace.overhead_frac": ("frac", "lower", _NONE),
    "trace.coverage": ("frac", "higher", _NONE),
})


def benchmark_doc(run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` document these tables define."""
    return {
        "command": ["python3", "nocbench/run.py"],
        "paths": ["nocbench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, (u, b, _) in PER_LAYER.items()
        ],
    }
