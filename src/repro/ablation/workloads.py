"""Named, deterministic workloads the ablation features run on.

Two kinds:

* **streams** — 1-D float32 weight streams for the codec-side features:
  the selected LeNet-5 layer (``lenet-dense``), a seeded Gaussian
  stream (``gaussian``), the paper's Fig. 5 adversarial
  alternating-pairs ramp (``adversarial``), and a long-segment random
  walk (``random-walk``, segments of hundreds of weights where the
  Gaussian streams give two or three).  ``fast`` truncates them so the
  CI smoke stays cheap.
* **accelerator runs** — :func:`layer_run` executes the selected
  LeNet-5 layer (or a named one) on the flit-level simulator with an
  :class:`~repro.mapping.accelerator.AcceleratorConfig` override dict;
  the NoC-side features diff its cycles/latency/energy.

Everything here is a pure function of ``(name, fast)`` — workloads must
be bit-reproducible across processes and hosts, because their outputs
feed content-addressed cache keys and the serial == sharded identity
contract.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..mapping import Accelerator
from ..mapping.accelerator import AcceleratorConfig, ModelResult
from ..nn import zoo
from ..runtime import fingerprint_array

__all__ = [
    "STREAM_WORKLOADS",
    "stream",
    "stream_fingerprint",
    "layer_run",
    "result_metrics",
    "decoded_digest",
]

#: stream size caps: full vs fast (CI smoke)
_FULL_N = 16_384
_FAST_N = 4_096


def _lenet_dense(n: int) -> np.ndarray:
    module = zoo.lenet5
    w = module.full().materialize(module.SELECTED_LAYER).ravel()
    return w[:n].astype(np.float32)


def _gaussian(n: int) -> np.ndarray:
    return np.random.default_rng(7).normal(size=n).astype(np.float32)


def _adversarial(n: int) -> np.ndarray:
    # pairwise-alternating worst case of the paper's Fig. 5a: strict
    # monotonicity yields CR ~ 1, the weak rule recovers one long ramp
    idx = np.arange(n)
    return (idx * 0.01 + (idx % 2) * 0.5).astype(np.float32)


def _random_walk(n: int) -> np.ndarray:
    # small Gaussian steps (flat under the tolerance) broken by a +-1
    # jump every 256 weights: a few long segments, where a float32
    # accumulator and the float64 line drift apart
    rng = np.random.default_rng(7)
    steps = rng.normal(scale=0.01, size=n)
    steps[::256] += rng.choice([-1.0, 1.0], size=steps[::256].size)
    return np.cumsum(steps).astype(np.float32)


STREAM_WORKLOADS = {
    "lenet-dense": _lenet_dense,
    "gaussian": _gaussian,
    "adversarial": _adversarial,
    "random-walk": _random_walk,
}


def stream(name: str, fast: bool = False) -> np.ndarray:
    """The named weight stream (deterministic; ``fast`` truncates)."""
    try:
        factory = STREAM_WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown stream workload {name!r}; "
            f"available: {sorted(STREAM_WORKLOADS)}"
        ) from None
    return factory(_FAST_N if fast else _FULL_N)


def stream_fingerprint(name: str, fast: bool = False) -> str:
    """Content fingerprint of a stream workload (for cache keys)."""
    return fingerprint_array(stream(name, fast))


def layer_run(
    overrides: dict | None = None,
    *,
    delta_pct: float | None = 10.0,
    layer: str | None = None,
    mode: str = "flit",
) -> ModelResult:
    """One LeNet-5 layer on the accelerator, config-overridable.

    The spec is trimmed to the target layer (the fig_scale_matrix
    pattern), compressed at ``delta_pct`` (``None`` = uncompressed) with
    the paper's line-fit codec, and run in ``mode`` on an
    :class:`Accelerator` built from the default config plus
    ``overrides`` — the NoC/mapping toggle hooks are all
    ``AcceleratorConfig`` fields, so every feature variant is one
    override away.
    """
    from ..core.codecs import LineFitCodec
    from ..core.segmentation import delta_from_percent

    module = zoo.lenet5
    spec = module.full()
    layer = layer or module.SELECTED_LAYER
    spec = dataclasses.replace(spec, layers=[spec.layer(layer)])
    config = dataclasses.replace(AcceleratorConfig(), **(overrides or {}))
    acc = Accelerator(config)
    compression = None
    if delta_pct is not None:
        weights = module.full().materialize(layer).ravel()
        delta = delta_from_percent(weights, delta_pct)
        blob = LineFitCodec(delta=float(delta)).encode(weights)
        compression = {layer: blob}
    return acc.run_model(spec, compression, mode=mode)


def result_metrics(result: ModelResult) -> dict:
    """Flatten a :class:`ModelResult` into the ablation metric mapping."""
    lat = result.total_latency
    en = result.total_energy
    events: dict[str, int] = {}
    for layer in result.layers:
        for key, value in layer.events.items():
            events[key] = events.get(key, 0) + value
    return {
        "cycles": float(lat.total),
        "lat_memory": float(lat.memory),
        "lat_communication": float(lat.communication),
        "lat_computation": float(lat.computation),
        "energy_j": float(en.total),
        "flit_hops": float(events.get("flit_hops", 0)),
        "main_mem_bytes": float(events.get("main_mem_bytes", 0)),
    }


def decoded_digest(decoded: np.ndarray) -> str:
    """Bitwise identity witness of a decoded weight array."""
    return fingerprint_array(np.ascontiguousarray(decoded))
