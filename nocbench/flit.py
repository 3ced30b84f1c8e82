"""``lenet-flit``: full LeNet-5 at flit level on the paper's 4x4 mesh.

Each unit is one *flit pair*: the seven accelerator layers of
``lenet5.full()`` run through ``Accelerator.schedule_layer`` and
``Accelerator.run_layer(mode="flit")`` once uncompressed and once with
``dense_1`` linefit-compressed at 5 % with streamed decode.  The two
arms alternate their order pair by pair.  The flit simulator is ~99 %
of the time; runtime, serve and nn never run.

Checks, outside the timed pairs: every timed layer result equals the
untimed ``Accelerator.run_model`` reference of its arm.  An untimed
transaction-level pass gives the txn model's error against the flit
model, the only error figure of the (unvalidated) NoC model.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from repro.core.codecs import get_codec
from repro.core.provider import provider_for
from repro.mapping.accelerator import SIMULATED_KINDS, Accelerator, AcceleratorConfig
from repro.nn.zoo import lenet5

from . import stats
from .metrics import FLIT_ARMS, FLIT_LAYERS
from .spans import Tracer, unit, wrap

DELTA_PCT = 5.0


@dataclass
class State:
    spec: object
    acc: Accelerator
    layers: list
    #: arm -> layer name -> compression effect
    arms: dict[str, dict]
    weights: np.ndarray
    blob: object


def setup(name: str, seed: int) -> State:
    spec = lenet5.full()
    acc = Accelerator(AcceleratorConfig(streamed_decode=True))
    weights = spec.materialize(lenet5.SELECTED_LAYER, seed=seed).ravel()
    blob = get_codec("linefit", delta_pct=DELTA_PCT).encode(weights)
    effect = acc.compression_effect(provider_for(blob))
    layers = [l for l in spec.layers if l.kind in SIMULATED_KINDS]
    arms = {"unc": {}, "cmp": {lenet5.SELECTED_LAYER: effect}}
    return State(spec, acc, layers, arms, weights, blob)


def run_arm(state: State, arm: str) -> list:
    """One LeNet-5 inference at flit level, layer by layer."""
    acc, compression = state.acc, state.arms[arm]
    return [
        acc.run_layer(
            acc.schedule_layer(layer, compression=compression.get(layer.name)), mode="flit"
        )
        for layer in state.layers
    ]


def _instrument(state: State, tracer: Tracer) -> None:
    acc = state.acc
    wrap(acc, "schedule_layer", tracer, "mapping", name="Accelerator.schedule_layer",
         args=lambda layer, **kw: {"cnn_layer": layer.name})
    wrap(acc, "run_layer", tracer, "noc", name="Accelerator.run_layer[flit]",
         args=lambda schedule, **kw: {"cnn_layer": schedule.layer_name})


def run(name: str, state: State, seed: int, seconds: float, tracer: Tracer | None):
    reference = {
        arm: state.acc.run_model(state.spec, state.arms[arm], mode="flit").layers
        for arm in FLIT_ARMS
    }  # untimed, and the warm-up of the simulator
    txn = {
        arm: state.acc.run_model(state.spec, state.arms[arm], mode="txn").layers
        for arm in FLIT_ARMS
    }
    if tracer is not None:
        _instrument(state, tracer)

    pairs: list[float] = []
    traced: list[bool] = []
    spins = [stats.spin_ms()]  # one before and after every pair
    results = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(pairs) < 2:
        k = len(pairs)
        order = FLIT_ARMS if k % 2 == 0 else FLIT_ARMS[::-1]
        if tracer is not None:
            # alternate traced and untraced pairs for the overhead figure
            tracer.enabled = k % 4 < 2
            traced.append(tracer.enabled)
        pair = {}
        start = time.perf_counter()
        for arm in order:
            with unit((k, arm)):
                pair[arm] = run_arm(state, arm)
        pairs.append(time.perf_counter() - start)
        results.append(pair)
        spins.append(stats.spin_ms())
    if tracer is not None:
        tracer.enabled = True

    # -- checks (untimed) -----------------------------------------------------
    attempted = failed = 0
    for pair in results:
        for arm in FLIT_ARMS:
            for got, want in zip(pair[arm], reference[arm], strict=True):
                attempted += 1
                failed += got != want
    ok_pairs = sum(all(p[a] == reference[a] for a in FLIT_ARMS) for p in results)

    cycles = {a: sum(r.latency.total for r in reference[a]) for a in FLIT_ARMS}
    energy = {a: sum(r.energy.total for r in reference[a]) for a in FLIT_ARMS}
    hops = {a: sum(r.events["flit_hops"] for r in reference[a]) for a in FLIT_ARMS}
    errs = [
        (abs(t.latency.total - f.latency.total) / f.latency.total, f.layer_name)
        for a in FLIT_ARMS
        for f, t in zip(reference[a], txn[a], strict=True)
    ]
    txn_err, err_layer = max(errs)
    decoded = get_codec("linefit", delta_pct=DELTA_PCT).decode(state.blob)
    raw_s = stats.median(pairs)
    pair_s = stats.median(stats.calibrated(t, spins[i : i + 2]) for i, t in enumerate(pairs))
    e2e = {
        "p50_ms": pair_s * 1e3,
        "throughput_per_s": len(FLIT_ARMS) / pair_s,
        "ok_frac": ok_pairs / len(results),
        "cr": state.blob.compression_ratio,
        "weight_rmse": float(np.sqrt(np.mean((decoded.astype(np.float64) - state.weights) ** 2))),
    }
    layers = {
        **{f"noc.sim_cycles.{a}": float(cycles[a]) for a in FLIT_ARMS},
        **{f"noc.flit_hops.{a}": float(hops[a]) for a in FLIT_ARMS},
        "noc.sim_latency_norm": cycles["cmp"] / cycles["unc"],
        "noc.sim_energy_norm": energy["cmp"] / energy["unc"],
        "noc.txn_err_max": txn_err,
        "host.spin_ms": stats.median(spins),
    }
    if tracer is not None:
        layers.update(_layer_metrics(tracer, pairs, traced, hops))
    lines = [
        f"flit pairs: {len(pairs)}, median {raw_s:.4f} s (calibrated {pair_s:.4f} s), "
        f"quartiles {', '.join(f'{q:.4f}' for q in statistics.quantiles(pairs, n=4))} s",
        f"simulated cycles unc {cycles['unc']} cmp {cycles['cmp']}: sim_latency_norm "
        f"{layers['noc.sim_latency_norm']:.4f}, sim_energy_norm {layers['noc.sim_energy_norm']:.4f}",
        f"txn_err_max {txn_err:.4f} at {err_layer} (txn model against flit model; "
        "no hardware reference, the NoC model is unvalidated)",
    ]
    return stats.Outcome(attempted, int(failed), e2e, layers, lines)


def _layer_metrics(tracer: Tracer, pairs, traced, hops) -> dict:
    """Per-layer metrics of the traced pairs; span units are ``(pair, arm)``."""
    per_pair: dict[int, dict[str, float]] = {}
    out = {}
    for arm in FLIT_ARMS:
        for layer in FLIT_LAYERS:
            durs = [
                s.dur for s in tracer.spans
                if s.name == "Accelerator.run_layer[flit]"
                and s.unit[1] == arm and s.args["cnn_layer"] == layer
            ]
            out[f"noc.flit_s.{arm}.{layer}"] = stats.median(durs)
    for s in tracer.spans:
        row = per_pair.setdefault(s.unit[0], {"sim": 0.0, "schedule": 0.0})
        row["sim" if s.name == "Accelerator.run_layer[flit]" else "schedule"] += s.dur
    total_hops = sum(hops.values())
    out["noc.host_ns_per_hop"] = stats.median(r["sim"] / total_hops * 1e9 for r in per_pair.values())
    out["mapping.schedule_s"] = stats.median(r["schedule"] for r in per_pair.values())
    on = [t for t, flag in zip(pairs, traced) if flag]
    off = [t for t, flag in zip(pairs, traced) if not flag]
    if on and off:
        out["trace.overhead_frac"] = stats.median(on) / stats.median(off) - 1
    return out
