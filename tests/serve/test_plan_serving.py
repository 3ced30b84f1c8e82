"""Plan-backed serving: same weights, same failures, one parse per payload.

A compressed line-fit layer keeps its :class:`~repro.core.plan.DecodePlan`
after the first cache miss.  These tests pin that this changes nothing a
client can see — decoded weights, forwards, typed errors and damage
reports all equal the decode path that parsed the payload on every miss
(reconstructed here as the oracle) — and that the parse really happens
once per payload, counted across evicting batches.
"""

from __future__ import annotations

import asyncio
from dataclasses import asdict

import numpy as np
import pytest

import repro.obs as obs
from repro.core import codec as wire
from repro.core.codecs import CompressedBlob, LineFitCodec, get_codec
from repro.core.errors import CodecError
from repro.core.model_store import compress_model
from repro.core.provider import ArrayProvider
from repro.nn import zoo
from repro.resilience.degrade import decode_degraded
from repro.resilience.inject import BitFlipInjector
from repro.serve import DecodedWeightCache, Failed, InferenceService, Ok, ServedModel

from ..core.test_plan import seg_of_oracle

EVICT_ALL = 8  # cache budget in bytes: every layer misses on every batch


def parse_every_miss(name: str, spec: dict | None, payload: bytes) -> np.ndarray:
    """The serving decode as it ran before plans: parse on every miss."""
    if spec is None:
        stream = wire.decode(payload)
    else:
        get_codec(spec["name"], **spec.get("params", {}))
        blob = CompressedBlob.rebuild(spec, payload)
        blob.verify(context=f"layer {name!r}")
        stream = wire.decode(payload, expected_weights=blob.num_weights or None)
    m, q = stream.storage_coefficients()
    return seg_of_oracle(m, q, stream.lengths, np.float32)


def oracle_error(name: str, spec: dict | None, payload: bytes) -> CodecError:
    with pytest.raises(CodecError) as info:
        parse_every_miss(name, spec, payload)
    return info.value


def resolved(served: ServedModel) -> dict[str, np.ndarray]:
    return {name: p.materialize() for name, p in served.providers().items()}


def archive_for(module, delta_pct: float = 5.0, **kw):
    model = module.proxy()
    layers = {name: delta_pct for name, _ in model.parametric_layers()}
    return compress_model(model, layers, **kw)


@pytest.mark.parametrize("module", zoo.ALL_MODELS, ids=lambda m: m.NAME)
def test_zoo_decode_equals_apply_and_codec(module):
    archive = archive_for(module)
    served = ServedModel(
        module.proxy(), archive, cache=DecodedWeightCache(max_bytes=EVICT_ALL)
    )
    applied = module.proxy()
    archive.apply(applied)
    first, again = resolved(served), resolved(served)  # build, then reuse
    assert set(first) == set(archive.compressed)
    for name, (payload, _) in archive.compressed.items():
        spec = archive.codecs[name]
        by_codec = LineFitCodec().decode(CompressedBlob.rebuild(spec, payload))
        for got in (first[name], again[name]):
            assert got.dtype == np.float32
            assert got.tobytes() == applied.get_weights(name).ravel().tobytes()
            assert got.tobytes() == by_codec.tobytes()
            assert got.tobytes() == parse_every_miss(name, spec, payload).tobytes()


def streamed_forward(model, names, x):
    """``model``'s own weights through the fused forward serving uses."""
    providers = {n: ArrayProvider(model.get_weights(n).ravel()) for n in names}
    return model.forward_streamed(x[None], providers)[0]


def test_lenet_forward_equals_applied_model():
    module = zoo.lenet5
    archive = archive_for(module)
    served = ServedModel(
        module.proxy(),
        archive,
        cache=DecodedWeightCache(max_bytes=EVICT_ALL),
        input_shape=module.INPUT_SHAPE,
    )
    applied = module.proxy()
    archive.apply(applied)
    rng = np.random.default_rng(5)
    xs = list(rng.standard_normal((6, *module.INPUT_SHAPE)).astype(np.float32))
    for x, out in zip(xs, served.forward_batch(xs)):
        assert out.tobytes() == streamed_forward(applied, archive.compressed, x).tobytes()


@pytest.fixture
def counted(monkeypatch):
    """Counts wire parses (CRC checks + unpack) and payload CRC checks."""
    calls = {"parse": 0, "verify": 0}
    real_parse, real_verify = wire._parse, CompressedBlob.verify

    def parse(data, strict):
        calls["parse"] += 1
        return real_parse(data, strict)

    def verify(self, context=""):
        calls["verify"] += 1
        return real_verify(self, context)

    monkeypatch.setattr(wire, "_parse", parse)
    monkeypatch.setattr(CompressedBlob, "verify", verify)
    return calls


@pytest.mark.parametrize("legacy", [False, True], ids=["codec-spec", "legacy"])
def test_each_payload_parsed_once_across_evicting_batches(counted, legacy):
    module = zoo.lenet5
    archive = archive_for(module)
    if legacy:
        archive.codecs = {}  # spec-less layers decode as raw wire payloads
    cache = DecodedWeightCache(max_bytes=EVICT_ALL)
    served = ServedModel(module.proxy(), archive, cache=cache)
    layers = len(archive.compressed)
    xs = list(np.zeros((2, *module.INPUT_SHAPE), dtype=np.float32))
    batches = 5
    for _ in range(batches):
        served.forward_batch(xs)
    assert cache.misses == batches * layers and cache.hits == 0
    assert counted["parse"] == layers
    assert counted["verify"] == (0 if legacy else layers)


# -- damaged payloads ---------------------------------------------------------


def damaged(raw_fallback: bool = False, legacy: bool = False):
    archive = archive_for(zoo.lenet5, raw_fallback=raw_fallback)
    if legacy:
        archive.codecs = {}
    payload, shape = archive.compressed["dense_1"]
    archive.compressed["dense_1"] = (
        BitFlipInjector(seed=3, ber=1e-3).corrupt_bytes(payload),
        shape,
    )
    return archive


def served_damaged(archive, on_fault):
    return ServedModel(
        zoo.lenet5.proxy(),
        archive,
        cache=DecodedWeightCache(max_bytes=EVICT_ALL),
        input_shape=zoo.lenet5.INPUT_SHAPE,
        on_fault=on_fault,
    )


X = np.random.default_rng(9).standard_normal(zoo.lenet5.INPUT_SHAPE).astype(np.float32)
LEGACY = pytest.mark.parametrize("legacy", [False, True], ids=["codec-spec", "legacy"])


@LEGACY
def test_raise_policy_fails_every_miss_with_the_same_error(counted, legacy):
    archive = damaged(legacy=legacy)
    payload = archive.compressed["dense_1"][0]
    expected = oracle_error("dense_1", archive.codecs.get("dense_1"), payload)
    served = served_damaged(archive, "raise")
    checks = []
    for _ in range(3):
        with pytest.raises(CodecError) as info:
            served.forward(X)
        assert type(info.value) is type(expected)
        assert str(info.value) == str(expected)
        checks.append(counted["parse"] + counted["verify"])
    # the pristine layers keep their plans; the failed build is not
    # kept, so every later miss runs dense_1's first check again
    assert checks[2] - checks[1] == checks[1] - checks[0] == 1
    assert served.damage == {}


@LEGACY
def test_zero_policy_reports_once_and_serves_the_salvage(legacy):
    archive = damaged(legacy=legacy)
    payload, shape = archive.compressed["dense_1"]
    expected = oracle_error("dense_1", archive.codecs.get("dense_1"), payload)
    reference = zoo.lenet5.proxy()
    archive.apply(reference, on_fault="zero")
    served = served_damaged(archive, "zero")
    with obs.use(obs.Obs()) as o:
        outs = [served.forward(X) for _ in range(3)]
    want = streamed_forward(reference, archive.compressed, X).tobytes()
    assert all(out.tobytes() == want for out in outs)
    assert o.metrics.value("serve.degraded.layers") == 1
    assert list(served.damage) == ["dense_1"]
    report = served.damage["dense_1"]
    assert report["error"] == str(expected)
    try:
        _, salvage = decode_degraded(payload, int(np.prod(shape)))
    except CodecError:
        assert report["action"] == "zero-fill (whole layer)"
    else:
        assert report == {
            "action": "zero-fill (salvaged segments)",
            "error": str(expected),
            **asdict(salvage),
        }


def test_raw_policy_restores_the_fallback():
    archive = damaged(raw_fallback=True)
    payload = archive.compressed["dense_1"][0]
    expected = oracle_error("dense_1", archive.codecs["dense_1"], payload)
    pristine, reference = zoo.lenet5.proxy(), zoo.lenet5.proxy()
    archive.apply(reference, on_fault="raw")
    want = streamed_forward(reference, archive.compressed, X).tobytes()
    served = served_damaged(archive, "raw")
    for _ in range(2):
        assert resolved(served)["dense_1"].tobytes() == (
            pristine.get_weights("dense_1").ravel().tobytes()
        )
        assert served.forward(X).tobytes() == want
    assert served.damage == {"dense_1": {"action": "raw-fallback", "error": str(expected)}}


@pytest.mark.parametrize("on_fault", ["raise", "zero"])
def test_service_replies_match_the_parse_every_miss_path(on_fault):
    archive = damaged()
    payload = archive.compressed["dense_1"][0]
    expected = oracle_error("dense_1", archive.codecs["dense_1"], payload)
    served = served_damaged(archive, on_fault)

    async def go():
        async with InferenceService(served) as svc:
            return [await svc.submit(X) for _ in range(3)]

    replies = asyncio.run(go())
    if on_fault == "raise":
        want = f"{type(expected).__name__}: {expected}"
        assert all(isinstance(r, Failed) and r.error == want for r in replies)
    else:
        assert all(isinstance(r, Ok) for r in replies)
        assert all(r.degraded == served.damage for r in replies)
        assert replies[0].degraded["dense_1"]["error"] == str(expected)
