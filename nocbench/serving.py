"""``serve-hot`` and ``serve-evict``: the served LeNet-5 proxy under open-loop load.

The archive is served in-process through :class:`InferenceService` (one
event loop plus its single forward thread).  The load generator is open
loop: Poisson arrivals drawn from the seed at each rate of a fixed
ladder, each request timed from when it was due.  The ladder runs in
half-second slices that cycle through the rates (reversing direction
every round), so a slow host phase hits every rate; each slice drains
before the next starts.  The highest rate within the tail limit is found
per round and the median over rounds reported.

* ``serve-hot`` compresses only ``dense_1`` (``serve.demo.demo_model``)
  under the default cache budget: after warm-up every batch hits the
  decoded-weight cache, so batching and the nn forward take the time.
* ``serve-evict`` compresses every parametric layer and caps the cache
  at 128 KiB, below the 246 KB decoded working set: LRU misses and
  evicts every layer on every batch, which puts core decode on the
  request path.

Inputs come from a pool of distinct seeded samples, so every ``Ok``
payload can be checked bit for bit against an untimed
``ServedModel.forward`` on the same input.
"""

from __future__ import annotations

import asyncio
import gc
import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.model_store import compress_model
from repro.nn.zoo import lenet5
from repro.serve.cache import DecodedWeightCache
from repro.serve.demo import demo_model
from repro.serve.model import ServedModel, decoded_weight_key
from repro.serve.replies import Ok
from repro.serve.service import InferenceService, ServeConfig

from . import stats
from .metrics import SERVE_NODES
from .spans import Tracer, span, unit, wrap


@dataclass(frozen=True)
class Profile:
    #: offered loads, requests per second, ascending
    ladder: tuple[float, ...]
    #: the rate at which p50 and ok_frac are reported
    reference: float
    #: tail-latency limit a ladder rate must meet
    limit_ms: float
    #: decoded-weight cache budget (None = the default budget)
    cache_bytes: int | None
    #: compress every parametric layer, not only ``dense_1``
    compress_all: bool


PROFILES = {
    "serve-hot": Profile(
        ladder=(200.0, 400.0, 800.0, 1400.0, 2400.0),
        reference=400.0,
        limit_ms=25.0,
        cache_bytes=None,
        compress_all=False,
    ),
    "serve-evict": Profile(
        ladder=(100.0, 300.0, 600.0, 900.0, 1300.0),
        reference=100.0,
        limit_ms=50.0,
        cache_bytes=128 * 1024,
        compress_all=True,
    ),
}

DELTA_PCT = 5.0
INPUT_POOL = 256
SLICE_S = 0.5
#: slice plus drain and bookkeeping, for sizing the number of rounds
SLICE_BUDGET_S = 0.65
SERVE_CONFIG = ServeConfig(max_batch=32, max_queue=512)


@dataclass
class Slice:
    rate: float
    due: np.ndarray  # seconds from slice start
    idx: np.ndarray  # input-pool index per request


@dataclass
class Request:
    rid: int
    rate: float
    idx: int
    due: float
    sent: float = math.nan
    done: float = math.nan
    reply: object = None
    #: host-speed calibration of the request's slice (see ``stats.calibrated``)
    scale: float = 1.0

    @property
    def latency_ms(self) -> float:
        """Calibrated latency from the due time; a miss is infinitely late."""
        ok = isinstance(self.reply, Ok)
        return (self.done - self.due) * 1e3 * self.scale if ok else math.inf


@dataclass
class State:
    profile: Profile
    served: ServedModel
    inputs: list[np.ndarray]
    slices: list[Slice] = field(default_factory=list)
    #: id of each in-flight request array -> request id
    rid_of: dict[int, int] = field(default_factory=dict)


def make_inputs(seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng([seed, 1])
    pool = rng.standard_normal((INPUT_POOL, *lenet5.INPUT_SHAPE)).astype(np.float32)
    return list(pool)


def make_schedule(profile: Profile, seed: int, seconds: float) -> list[Slice]:
    """The seeded arrival schedule: rounds over the ladder, one slice per rate."""
    rng = np.random.default_rng([seed, 2])
    rounds = max(1, round(seconds / (SLICE_BUDGET_S * len(profile.ladder))))
    slices = []
    for r in range(rounds):
        order = profile.ladder if r % 2 == 0 else profile.ladder[::-1]
        for rate in order:
            gaps = rng.exponential(1.0 / rate, size=int(rate * SLICE_S * 2) + 32)
            due = np.cumsum(gaps)
            due = due[due < SLICE_S]
            slices.append(Slice(rate, due, rng.integers(0, INPUT_POOL, size=len(due))))
    return slices


def build_model(profile: Profile) -> ServedModel:
    cache = (
        DecodedWeightCache()
        if profile.cache_bytes is None
        else DecodedWeightCache(max_bytes=profile.cache_bytes)
    )
    if not profile.compress_all:
        return demo_model(cache=cache, delta_pct=DELTA_PCT)
    model = lenet5.proxy()
    archive = compress_model(
        model, {name: DELTA_PCT for name, _ in model.parametric_layers()}
    )
    return ServedModel(lenet5.proxy(), archive, cache=cache, input_shape=lenet5.INPUT_SHAPE)


def setup(name: str, seed: int) -> State:
    profile = PROFILES[name]
    inputs = make_inputs(seed)
    served = build_model(profile)
    served.forward_batch(inputs[:4])  # warm-up: fills the decoded-weight cache
    return State(profile, served, inputs)


# -- load generation -------------------------------------------------------
async def _request(service: InferenceService, x: np.ndarray, req: Request, tracer):
    with unit(req.rid), span(tracer, "request", "bench", rate=req.rate):
        req.reply = await service.submit(x)
    req.done = time.perf_counter()


async def _drive(state: State, service: InferenceService, tracer, on_slice) -> list[Request]:
    requests: list[Request] = []
    for k, sl in enumerate(state.slices):
        on_slice(k)
        start = time.perf_counter() + 0.002
        tasks = []
        for due, idx in zip(sl.due.tolist(), sl.idx.tolist()):
            req = Request(len(requests), sl.rate, idx, start + due)
            requests.append(req)
            delay = req.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            req.sent = time.perf_counter()
            # a fresh view per request: the traced forward maps arrays back
            # to requests by identity
            x = state.inputs[idx].view()
            state.rid_of[id(x)] = req.rid
            tasks.append(asyncio.ensure_future(_request(service, x, req, tracer)))
        await asyncio.gather(*tasks)
    return requests


async def _serve(state: State, tracer, on_slice) -> tuple[list[Request], dict]:
    service = InferenceService(state.served, SERVE_CONFIG)
    cache = state.served.cache
    before = (cache.hits, cache.misses, cache.evictions)
    async with service:
        requests = await _drive(state, service, tracer, on_slice)
    counters = {
        "hits": cache.hits - before[0],
        "misses": cache.misses - before[1],
        "evictions": cache.evictions - before[2],
        "batches": service.batches,
    }
    return requests, counters


# -- tracing ---------------------------------------------------------------
def _instrument(state: State, tracer: Tracer) -> None:
    """Spans around the public calls of the served model and its cache."""
    served = state.served
    names = {
        decoded_weight_key(payload, served.archive.codecs.get(name), shape): name
        for name, (payload, shape) in served.archive.compressed.items()
    }
    forward_batch = served.forward_batch

    def traced_forward_batch(xs):
        rids = tuple(state.rid_of.get(id(x)) for x in xs)
        with unit(rids), tracer.span("ServedModel.forward_batch", "serve", size=len(xs)):
            return forward_batch(xs)

    served.forward_batch = traced_forward_batch
    wrap(served, "providers", tracer, "serve", name="ServedModel.providers")
    provider = served.cache.provider

    def traced_provider(key, decode):
        layer = names[key]

        def traced_decode():
            with tracer.span("decode", "core", cnn_layer=layer):
                return decode()

        with tracer.span("DecodedWeightCache.provider", "serve", cnn_layer=layer):
            return provider(key, traced_decode)

    served.cache.provider = traced_provider
    wrap(served.model, "forward_streamed", tracer, "nn", name="Model.forward_streamed")
    for node in SERVE_NODES:
        wrap(served.model[node], "forward", tracer, "nn", name="Layer.forward", args={"node": node})


# -- the run ---------------------------------------------------------------
def _by_slice(requests: list[Request], slices: list[Slice]) -> list[list[Request]]:
    out, pos = [], 0
    for sl in slices:
        out.append(requests[pos : pos + len(sl.due)])
        pos += len(sl.due)
    return out


def _rate_table(profile: Profile, chunks: list[list[Request]]) -> dict:
    """Per ladder rate: sample count, Ok count, p50, tail and drain time."""
    by_rate: dict[float, list[Request]] = {r: [] for r in profile.ladder}
    # drain: how long after its last due time a slice finished, worst slice
    drain: dict[float, float] = dict.fromkeys(profile.ladder, 0.0)
    for chunk in chunks:
        if chunk:
            rate = chunk[0].rate
            by_rate[rate] += chunk
            last = (max(r.done for r in chunk) - chunk[-1].due) * chunk[0].scale
            drain[rate] = max(drain[rate], last * 1e3)
    table = {}
    for rate, reqs in by_rate.items():
        lat = [r.latency_ms for r in reqs]
        pct, tail_ms, n = stats.tail(lat)
        ok = [x for x in lat if math.isfinite(x)]
        table[rate] = {
            "n": n,
            "ok": len(ok),
            "p50_ms": stats.median(lat) if lat else math.inf,
            "tail_pct": pct,
            "tail_ms": tail_ms,
            "drain_ms": drain[rate],
            "passes": math.isfinite(tail_ms)
            and tail_ms <= profile.limit_ms
            and drain[rate] <= profile.limit_ms,
        }
    return table


def max_rate(profile: Profile, table: dict) -> float:
    """Highest ladder rate whose tail meets the limit without a growing backlog.

    Towards the next ladder rate (which fails) the crossing is interpolated
    on log(tail), misses capped at the request deadline, so the figure
    moves smoothly instead of jumping a whole ladder step.  A lower rate
    that fails, as a host stall can make it, does not cap the figure.
    """
    cap_ms = SERVE_CONFIG.policy.timeout * 1e3
    limit = math.log(profile.limit_ms)
    passing = [i for i, rate in enumerate(profile.ladder) if table[rate]["passes"]]
    if not passing:
        first = table[profile.ladder[0]]["tail_ms"]
        return profile.ladder[0] * profile.limit_ms / min(first, cap_ms)
    i = passing[-1]
    if i + 1 == len(profile.ladder):
        return profile.ladder[i]
    lo_rate, hi_rate = profile.ladder[i], profile.ladder[i + 1]
    lo = math.log(table[lo_rate]["tail_ms"])
    hi = math.log(min(table[hi_rate]["tail_ms"], cap_ms))
    if hi <= limit:
        return lo_rate  # the next rate failed on its backlog alone
    return lo_rate + (limit - lo) / (hi - lo) * (hi_rate - lo_rate)


def _weight_rmse(served: ServedModel) -> float:
    """Largest per-layer RMSE of the decoded weights against the originals."""
    original = lenet5.proxy()  # the deterministic init the archive came from
    decoded = lenet5.proxy()
    served.archive.apply(decoded)
    return max(
        float(np.sqrt(np.mean((decoded.get_weights(n).astype(np.float64) - original.get_weights(n)) ** 2)))
        for n in served.archive.compressed
    )


def _compression_ratio(served: ServedModel) -> float:
    """Raw weight bytes of the whole model over its archived footprint."""
    archive = served.archive
    raw = archive.raw_weight_bytes + sum(
        4 * int(np.prod(shape)) for _, shape in archive.compressed.values()
    )
    return raw / archive.weights_footprint()


def _layer_metrics(tracer: Tracer, requests: list[Request], state: State) -> tuple[dict, list]:
    """Per-layer metrics from the traced batches at the reference rate.

    Batch spans carry the tuple of their request ids as unit; the untimed
    check forwards carry ``None`` ids and drop out here.
    """
    rate = {r.rid: r.rate for r in requests}
    due = {r.rid: r.due for r in requests}
    ref = state.profile.reference
    spans = [
        s for s in tracer.spans
        if isinstance(s.unit, tuple) and s.unit and rate.get(s.unit[0]) == ref
    ]

    def med_ms(name, **args):
        durs = [
            s.dur * 1e3 for s in spans
            if s.name == name and all(s.args.get(k) == v for k, v in args.items())
        ]
        return stats.median(durs) if durs else 0.0

    batches = [s for s in spans if s.name == "ServedModel.forward_batch"]
    waits = [(s.start - due[rid]) * 1e3 for s in batches for rid in s.unit]
    out = {
        "serve.queue_wait_ms": stats.median(waits) if waits else 0.0,
        "serve.forward_batch_ms": med_ms("ServedModel.forward_batch"),
        "serve.resolve_ms": med_ms("ServedModel.providers"),
        "nn.forward_sample_ms": med_ms("Model.forward_streamed"),
    }
    for layer in state.served.archive.compressed:
        out[f"core.decode_ms.{layer}"] = med_ms("decode", cnn_layer=layer)
    for node in SERVE_NODES:
        out[f"nn.layer_ms.{node}"] = med_ms("Layer.forward", node=node)
    traced = {rid for s in batches for rid in s.unit}
    traced_lat = [r.latency_ms for r in requests if r.rate == ref and r.rid in traced]
    plain_lat = [r.latency_ms for r in requests if r.rate == ref and r.rid not in traced]
    if traced_lat and plain_lat:
        out["trace.overhead_frac"] = stats.median(traced_lat) / stats.median(plain_lat) - 1
    rows = sorted(tracer.self_times(spans).items(), key=lambda kv: -kv[1]["self_s"])
    lines = [
        f"self time at {ref:g}/s, inside forward_batch: {layer} {name} {row['self_s']:.4f} s"
        for (layer, name), row in rows[:4]
    ]
    return out, lines


def run(name: str, state: State, seed: int, seconds: float, tracer: Tracer | None):
    profile = state.profile
    state.slices = make_schedule(profile, seed, seconds)
    spins: list[float] = []
    if tracer is not None:
        _instrument(state, tracer)

    def on_slice(k: int) -> None:
        # keep the growing request records out of the program's garbage
        # collections: collect now, between slices, and freeze what is left
        gc.collect()
        gc.freeze()
        spins.append(stats.spin_ms())
        if tracer is not None:
            # alternate traced and untraced rounds for the overhead figure
            tracer.enabled = (k // len(profile.ladder)) % 2 == 0

    requests, counters = asyncio.run(_serve(state, tracer, on_slice))
    spins.append(stats.spin_ms())
    if tracer is not None:
        tracer.enabled = True
    chunks = _by_slice(requests, state.slices)
    for k, chunk in enumerate(chunks):
        scale = stats.calibrated(1.0, spins[k : k + 2])
        for req in chunk:
            req.scale = scale

    # -- checks (untimed): every Ok payload equals ServedModel.forward -------
    reference: dict[int, bytes] = {}
    attempted = failed = 0
    for req in requests:
        if not isinstance(req.reply, Ok):
            continue
        if req.idx not in reference:
            reference[req.idx] = np.asarray(state.served.forward(state.inputs[req.idx])).tobytes()
        attempted += 1
        failed += np.asarray(req.reply.output).tobytes() != reference[req.idx]

    table = _rate_table(profile, chunks)
    ref = table[profile.reference]
    # the highest rate within the limit, per round of the ladder, then the
    # median over rounds: a host stall spoils one round, not the figure.
    # Offered rates convert to the nominal host speed like the latencies.
    n = len(profile.ladder)
    per_round = [
        max_rate(profile, _rate_table(profile, chunks[i : i + n]))
        / stats.calibrated(1.0, spins[i : i + n + 1])
        for i in range(0, len(chunks), n)
    ]
    oks = [r.reply for r in requests if r.rate == profile.reference and isinstance(r.reply, Ok)]
    e2e = {
        "p50_ms": ref["p50_ms"],
        "throughput_per_s": stats.median(per_round),
        "ok_frac": ref["ok"] / ref["n"],
        "cr": _compression_ratio(state.served),
        "weight_rmse": _weight_rmse(state.served),
    }
    layers = {
        "serve.batch_size_mean": sum(o.batch_size for o in oks) / max(1, len(oks)),
        "serve.tail_ms": ref["tail_ms"],
        "serve.cache_hit_frac": counters["hits"] / max(1, counters["hits"] + counters["misses"]),
        "serve.evictions_per_batch": counters["evictions"] / max(1, counters["batches"]),
        "bench.gen_lateness_ms": stats.median([(r.sent - r.due) * 1e3 for r in requests]),
        "host.spin_ms": stats.median(spins),
    }
    lines = []
    if tracer is not None:
        traced_layers, lines = _layer_metrics(tracer, requests, state)
        layers.update(traced_layers)
    lines += [
        f"rate {rate:7.1f}/s: n={row['n']} ok={row['ok']} p50={row['p50_ms']:.3f} ms "
        f"p{row['tail_pct']}={row['tail_ms']:.3f} ms drain={row['drain_ms']:.1f} ms "
        f"{'meets' if row['passes'] else 'misses'} {profile.limit_ms} ms"
        for rate, row in table.items()
    ]
    lines.append(
        f"reference {profile.reference}/s: p50 {ref['p50_ms']:.3f} ms, tail "
        f"p{ref['tail_pct']} {ref['tail_ms']:.3f} ms over {ref['n']} samples"
    )
    lines.append(f"highest rate within {profile.limit_ms} ms per round: "
                 + ", ".join(f"{r:.1f}" for r in per_round) + "/s")
    return stats.Outcome(attempted, int(failed), e2e, layers, lines)
