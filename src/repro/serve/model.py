"""A :class:`~repro.core.model_store.ModelArchive` wired for serving.

:class:`ServedModel` is the bridge between the deployable artifact (a
compressed archive) and the request path: raw layers and non-weight
state install into the model skeleton once at load time, while
compressed layers stay *compressed* — each forward pass resolves them
through the :class:`~repro.serve.cache.DecodedWeightCache` into the
fused streamed-weight forward
(:meth:`repro.nn.graph.Model.forward_streamed`), so decoded arrays
live in one bounded, shared, evictable place instead of being baked
into every model instance.  A cache miss on a line-fit layer parses
and verifies its payload only the first time: the layer keeps the
resulting :class:`~repro.core.plan.DecodePlan` (outside the cache
budget, one per compressed layer), and later misses only evaluate it.

Batch forwards run **per sample**: each request's output is produced by
exactly the computation a lone request would get, so batched and serial
serving are bit-identical by construction (BLAS kernels are *not*
batch-invariant — a stacked GEMM changes the answer in the last ulp —
so sample isolation is the only way to keep the service's batching an
invisible latency optimization).  What the batch amortizes is
everything around the MACs: cache lookups and provider resolution
happen once per batch, and the executor/event-loop round trip is paid
once per batch rather than once per request.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from .. import obs
from ..core.errors import CodecError, IntegrityError
from ..core.model_store import ModelArchive, decode_layer, layer_plan
from ..core.plan import DecodePlan
from ..nn.graph import Model
from ..runtime.keys import fingerprint_bytes, result_key
from .cache import DecodedWeightCache

__all__ = ["ServedModel", "decoded_weight_key", "ON_FAULT_POLICIES"]

#: degradation policies accepted by :class:`ServedModel` — the same
#: contract as :meth:`repro.core.model_store.ModelArchive.apply`
ON_FAULT_POLICIES = ("raise", "zero", "raw")


def decoded_weight_key(payload: bytes, spec: dict | None, shape: tuple) -> str:
    """Content address of one layer's decoded weights.

    The same scheme the sweep runtime uses (:func:`repro.runtime.keys.
    result_key`): payload fingerprint + codec spec + shape.  Legacy
    archives with no codec record hash under the wire-format sentinel.
    """
    codec = (
        {"name": spec["name"], "params": spec.get("params")}
        if spec is not None
        else {"name": "__linefit-wire__", "params": None}
    )
    return result_key(
        "decoded-weights",
        payload=fingerprint_bytes(payload),
        codec=codec,
        shape=[int(s) for s in shape],
    )


class _CompressedLayer:
    """One compressed archive layer: its blob, key, and decode recipe.

    A line-fit layer keeps its :class:`~repro.core.plan.DecodePlan`
    once the first cache miss has built it, so later misses only
    evaluate lines.  A build that fails keeps nothing: every miss on a
    damaged payload re-runs the checks and fails the same way.
    """

    __slots__ = ("name", "payload", "spec", "shape", "key", "plan")

    def __init__(self, name: str, payload: bytes, spec: dict | None, shape: tuple):
        self.name = name
        self.payload = payload
        self.spec = spec
        self.shape = tuple(int(s) for s in shape)
        self.key = decoded_weight_key(payload, spec, self.shape)
        self.plan: DecodePlan | None = None

    def decode(self) -> np.ndarray:
        """Full decode of the layer's weight stream (cache-miss path)."""
        if self.plan is None:
            context = f"layer {self.name!r}"
            plan = layer_plan(self.spec, self.payload, context=context)
            if plan is None:  # not line-fit: the codec decodes the whole payload
                return np.asarray(decode_layer(self.spec, self.payload, context)).ravel()
            self.plan = plan
        return self.plan.evaluate()


class ServedModel:
    """An archive-backed model exposing the serving forward contract.

    The contract the service consumes is just
    ``forward_batch(list_of_samples) -> list_of_outputs`` (plus an
    optional ``input_shape`` for admission-time validation), so tests
    and exotic backends can substitute any duck-typed model.

    Parameters
    ----------
    model:
        Skeleton whose topology matches the archive (e.g. the zoo
        proxy the archive was compressed from).  Raw layers and state
        are installed into it immediately; compressed layers are left
        untouched (their stored weights are never read on the serving
        path).
    archive:
        The compressed container to serve.
    cache:
        Decoded-weight cache; a private default-budget cache is created
        when not given, but sharing one cache across served models is
        the intended deployment shape.
    input_shape:
        Per-sample input shape for request validation (``None`` skips
        validation).
    on_fault:
        Per-layer degradation policy when a compressed payload fails
        integrity verification or decoding on the serving path — the
        same contract as :meth:`ModelArchive.apply`:

        * ``"raise"`` (default) — propagate the :class:`CodecError`;
          the forward fails and the service answers ``Failed``;
        * ``"zero"`` — salvage the undamaged line-fit segments and
          zero-fill the rest (whole-layer zeros for other codecs);
        * ``"raw"`` — restore the archive's uncompressed fallback copy
          (requires ``compress_model(..., raw_fallback=True)``).

        A degraded layer is recorded in :attr:`damage` (layer ->
        report, including the structured
        :class:`~repro.resilience.degrade.DamageReport` fields when the
        zero policy salvaged a line-fit payload), counted once under
        ``serve.degraded.layers``, and surfaced in every subsequent
        ``Ok`` reply's ``degraded`` metadata — a replica holding a
        damaged archive keeps serving instead of dying.
    """

    def __init__(
        self,
        model: Model,
        archive: ModelArchive,
        cache: DecodedWeightCache | None = None,
        input_shape: tuple[int, ...] | None = None,
        on_fault: str = "raise",
    ) -> None:
        if on_fault not in ON_FAULT_POLICIES:
            raise ValueError(
                f"unknown degradation policy {on_fault!r}; use {ON_FAULT_POLICIES}"
            )
        self.model = model
        self.archive = archive
        self.cache = cache if cache is not None else DecodedWeightCache()
        self.input_shape = tuple(input_shape) if input_shape is not None else None
        self.on_fault = on_fault
        #: layer -> degradation report; empty while weights are pristine
        self.damage: dict[str, dict] = {}
        # raw layers + non-weight state install once; compressed layers
        # resolve per forward through the cache
        for name, arr in archive.raw.items():
            if name not in model:
                raise ValueError(f"archive layer {name!r} unknown to model")
            model.set_weights(name, arr)
        if archive.state:
            current = model.state_dict()
            for key, arr in archive.state.items():
                if key not in current:
                    raise ValueError(f"archive state key {key!r} unknown to model")
                current[key] = arr
            model.load_state_dict(current)
        self._compressed = []
        for name, (payload, shape) in archive.compressed.items():
            if name not in model:
                raise ValueError(f"archive layer {name!r} unknown to model")
            self._compressed.append(
                _CompressedLayer(name, payload, archive.codecs.get(name), shape)
            )

    @property
    def compressed_layers(self) -> list[str]:
        return [c.name for c in self._compressed]

    # -- degraded-mode decode ----------------------------------------------
    def _degrade(self, c: _CompressedLayer, exc: CodecError) -> tuple[np.ndarray, dict]:
        """Salvage one damaged layer under :attr:`on_fault` (not "raise")."""
        num_weights = int(np.prod(c.shape, dtype=np.int64))
        if self.on_fault == "raw":
            fb = self.archive.fallback.get(c.name)
            if fb is None:
                raise IntegrityError(
                    f"layer {c.name!r} is damaged and the archive stores no "
                    f"raw fallback copy (build with compress_model(raw_fallback=True))"
                ) from exc
            arr = np.ascontiguousarray(fb, dtype=np.float32).ravel()
            return arr, {"action": "raw-fallback", "error": str(exc)}
        # "zero": salvage undamaged line-fit frames, zero everything else
        terminal = (c.spec["name"].rsplit("|", 1)[-1] if c.spec else "linefit").strip()
        if terminal == "linefit" and (c.spec is None or c.spec["name"] == "linefit"):
            from ..resilience.degrade import decode_degraded  # late: avoid cycle

            try:
                stream, report = decode_degraded(c.payload, num_weights)
                return stream.ravel(), {
                    "action": "zero-fill (salvaged segments)",
                    "error": str(exc),
                    **asdict(report),
                }
            except CodecError:
                pass  # structurally unsalvageable: fall through to full zero
        return (
            np.zeros(num_weights, dtype=np.float32),
            {"action": "zero-fill (whole layer)", "error": str(exc)},
        )

    def _resolve(self, c: _CompressedLayer) -> np.ndarray:
        """Cache-miss decode honouring the degradation policy."""
        try:
            return c.decode()
        except CodecError as exc:
            if self.on_fault == "raise":
                raise
            arr, report = self._degrade(c, exc)
            if c.name not in self.damage:
                self.damage[c.name] = report
                obs.current().count("serve.degraded.layers")
            return arr

    def providers(self) -> dict[str, object]:
        """Resolve every compressed layer through the cache (hot path).

        Called once per *batch*: the returned providers are zero-copy
        views over cached decoded arrays, reused by every sample in the
        batch — this is where serving amortizes the decode.
        """
        return {
            c.name: self.cache.provider(c.key, lambda c=c: self._resolve(c))
            for c in self._compressed
        }

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Single-sample forward (adds/strips the batch dimension)."""
        return self.forward_batch([x])[0]

    def forward_batch(self, samples: list[np.ndarray]) -> list[np.ndarray]:
        """Per-sample forwards sharing one provider resolution.

        Outputs are bit-identical to serial single-request execution by
        construction — see the module docstring for why the samples are
        *not* stacked into one GEMM.
        """
        providers = self.providers()
        return [
            self.model.forward_streamed(np.asarray(x)[None, ...], providers)[0]
            for x in samples
        ]
