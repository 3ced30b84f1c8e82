"""Whole-model compressed archives.

The deployable artifact of this system: a container holding, per layer,
either a codec's compressed weight blob (for layers the selection
policy / multi-layer optimizer chose) or the raw tensor, plus
everything needed to restore an inference-ready model.  This is what a
host would flash into the accelerator's parameter storage.

Archives are codec-agnostic: each compressed layer records the registry
name and parameters of the codec that produced it (plus the blob's
decode metadata), so an archive built with ``codec="huffman"`` restores
exactly like one built with the default ``"linefit"``.  Archives written
before the codec registry existed (no ``meta.codecs`` entry) decode
through the line-fit wire format, as before.

Integrity (archive format version 2): every compressed layer's codec
spec carries a CRC32 of its payload (``meta.codecs[layer].meta.crc32``),
verified before decoding; the line-fit wire payload additionally
carries its own per-frame framing (:mod:`repro.core.codec` version 3).
Version-1 archives (no checksums, v2 wire payloads) still load and
apply — the legacy fallback.  On damage, :meth:`ModelArchive.apply`
follows a configurable per-layer degradation policy: ``"raise"``
(default), ``"zero"`` (salvage undamaged segments, zero the rest), or
``"raw"`` (restore the optional uncompressed fallback copy).

Format: a ``.npz`` with
  ``meta.format``              archive format version (absent = 1)
  ``meta.layers``              ordered layer names (JSON)
  ``meta.assignments``         layer -> delta_pct for compressed layers
  ``meta.codecs``              layer -> codec spec (name/params/meta/bytes)
  ``compressed.<name>``        codec payload bytes (uint8)
  ``shape.<name>``             original tensor shape
  ``raw.<name>``               raw float32 tensor for untouched layers
  ``fallback.<name>``          optional raw copy of a *compressed* layer
  ``state.<key>``              non-weight model state (biases, BN, ...)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..nn.graph import Model
from .codecs import Codec, CompressedBlob, LineFitCodec, get_codec
from .errors import CodecError, IntegrityError
from .plan import DecodePlan

__all__ = [
    "ModelArchive",
    "compress_model",
    "load_archive",
    "layer_plan",
    "decode_layer",
    "FORMAT_VERSION",
]

#: current archive format: 2 = per-layer payload CRCs + optional fallbacks
FORMAT_VERSION = 2

#: degradation policies accepted by :meth:`ModelArchive.apply`
_POLICIES = ("raise", "zero", "raw")


@dataclass
class ModelArchive:
    """In-memory form of a compressed model container."""

    #: layer -> delta_pct used
    assignments: dict[str, float]
    #: layer -> (codec payload bytes, original shape)
    compressed: dict[str, tuple[bytes, tuple[int, ...]]]
    #: layer -> raw weight tensor (not compressed)
    raw: dict[str, np.ndarray]
    #: everything else the model needs (biases, BN stats, ...)
    state: dict[str, np.ndarray] = field(default_factory=dict)
    #: layer -> codec spec (see ``CompressedBlob.spec``); layers absent
    #: here decode through the legacy line-fit wire path
    codecs: dict[str, dict] = field(default_factory=dict)
    #: optional raw copies of compressed layers (the ``"raw"`` policy)
    fallback: dict[str, np.ndarray] = field(default_factory=dict)
    #: archive format version this container was loaded from/built at
    version: int = FORMAT_VERSION

    @property
    def compressed_weight_bytes(self) -> int:
        return sum(len(blob) for blob, _ in self.compressed.values())

    @property
    def raw_weight_bytes(self) -> int:
        return sum(a.nbytes for a in self.raw.values())

    def weights_footprint(self) -> int:
        """Parameter-storage bytes (weight tensors only).

        Fallback copies are intentionally excluded: they model a host-
        side recovery image, not what is flashed into the accelerator's
        parameter storage.
        """
        return self.compressed_weight_bytes + self.raw_weight_bytes

    # -- persistence -------------------------------------------------------
    def to_file(self, path: str | Path) -> None:
        arrays: dict[str, np.ndarray] = {
            "meta.format": np.asarray([self.version], dtype=np.int64),
            "meta.layers": np.frombuffer(
                json.dumps(sorted(set(self.compressed) | set(self.raw))).encode(),
                dtype=np.uint8,
            ),
            "meta.assignments": np.frombuffer(
                json.dumps(self.assignments).encode(), dtype=np.uint8
            ),
        }
        if self.codecs:
            arrays["meta.codecs"] = np.frombuffer(
                json.dumps(self.codecs).encode(), dtype=np.uint8
            )
        for name, (blob, shape) in self.compressed.items():
            arrays[f"compressed.{name}"] = np.frombuffer(blob, dtype=np.uint8)
            arrays[f"shape.{name}"] = np.asarray(shape, dtype=np.int64)
        for name, arr in self.raw.items():
            arrays[f"raw.{name}"] = arr
        for name, arr in self.fallback.items():
            arrays[f"fallback.{name}"] = arr
        for key, arr in self.state.items():
            arrays[f"state.{key}"] = arr
        np.savez_compressed(path, **arrays)

    # -- application -------------------------------------------------------
    def _degrade_layer(
        self, name: str, shape: tuple[int, ...], error: CodecError, on_fault: str
    ) -> tuple[np.ndarray, str]:
        """Apply the degradation policy to one damaged layer."""
        if on_fault == "raw":
            if name in self.fallback:
                return self.fallback[name].reshape(shape).copy(), "raw-fallback"
            raise IntegrityError(
                f"layer {name!r} is damaged and the archive stores no raw "
                f"fallback copy (build with compress_model(raw_fallback=True))"
            ) from error
        # "zero": salvage undamaged line-fit frames, zero everything else
        num_weights = int(np.prod(shape, dtype=np.int64))
        spec = self.codecs.get(name)
        terminal = (spec["name"].rsplit("|", 1)[-1] if spec else "linefit").strip()
        if terminal == "linefit" and (spec is None or spec["name"] == "linefit"):
            from ..resilience.degrade import decode_degraded  # late: avoid cycle

            payload = self.compressed[name][0]
            try:
                stream, report = decode_degraded(payload, num_weights)
                return (
                    stream.reshape(shape),
                    f"zero-fill ({report.damaged_segments}/{report.num_segments} "
                    f"segments, {report.zeroed_weights} weights zeroed)",
                )
            except CodecError:
                pass  # structurally unsalvageable: fall through to full zero
        return np.zeros(shape, dtype=np.float32), "zero-fill (whole layer)"

    def apply(self, model: Model, on_fault: str = "raise") -> dict[str, str]:
        """Install the archive's weights into a model (decompressing).

        ``on_fault`` selects the per-layer degradation policy when a
        payload fails integrity verification or decoding:

        * ``"raise"`` — propagate the :class:`CodecError` (default);
        * ``"zero"`` — keep the undamaged segments of a line-fit payload
          and zero-fill the damaged ones (whole-layer zeros for other
          codecs or structurally broken payloads);
        * ``"raw"`` — restore the archive's uncompressed fallback copy
          (requires ``compress_model(..., raw_fallback=True)``).

        Returns a report: damaged layer -> action taken (empty when
        every layer decoded cleanly).
        """
        if on_fault not in _POLICIES:
            raise ValueError(f"unknown degradation policy {on_fault!r}; use {_POLICIES}")
        report: dict[str, str] = {}
        for name, (payload, shape) in self.compressed.items():
            try:
                tensor = decode_layer(
                    self.codecs.get(name), payload, context=f"layer {name!r}"
                ).reshape(shape)
            except CodecError as exc:
                if on_fault == "raise":
                    raise
                tensor, action = self._degrade_layer(name, shape, exc, on_fault)
                report[name] = action
            model.set_weights(name, tensor)
        for name, arr in self.raw.items():
            model.set_weights(name, arr)
        if self.state:
            # merge: archive state keys override, others stay
            current = model.state_dict()
            for key, arr in self.state.items():
                if key not in current:
                    raise ValueError(f"archive state key {key!r} unknown to model")
                current[key] = arr
            model.load_state_dict(current)
        return report


def layer_plan(spec: dict | None, payload: bytes, context: str = "") -> DecodePlan | None:
    """The verified :class:`DecodePlan` of one line-fit archive layer.

    ``spec`` is the layer's codec record (``None`` for a legacy
    archive, whose payloads are line-fit wire messages).  Building the
    plan runs every check a decode runs; v2 archives record a payload
    CRC, v1 specs verify vacuously.  Returns ``None`` for layers of any
    other codec — those decode whole through :func:`decode_layer`.
    """
    if spec is None:
        return DecodePlan.from_payload(payload)
    codec = get_codec(spec["name"], **spec.get("params", {}))
    if not isinstance(codec, LineFitCodec):
        return None
    return codec.plan(CompressedBlob.rebuild(spec, payload), context=context)


def decode_layer(spec: dict | None, payload: bytes, context: str = "") -> np.ndarray:
    """Decode one archive layer's payload to its flat float32 stream."""
    plan = layer_plan(spec, payload, context=context)
    if plan is not None:
        return plan.evaluate()
    codec = get_codec(spec["name"], **spec.get("params", {}))
    blob = CompressedBlob.rebuild(spec, payload)
    blob.verify(context=context)
    return codec.decode(blob)


def compress_model(
    model: Model,
    assignments: dict[str, float],
    include_state: bool = True,
    codec: str | Codec = "linefit",
    raw_fallback: bool = False,
) -> ModelArchive:
    """Build an archive from a trained model and a delta assignment.

    Layers named in ``assignments`` are stored as codec blobs at their
    delta; every other parametric layer is stored raw.  ``codec`` is any
    :mod:`repro.core.codecs` spec (per-layer deltas parameterize it;
    lossless codecs ignore them).  With ``include_state`` the non-weight
    state (biases, batch-norm statistics) rides along so
    :meth:`ModelArchive.apply` fully restores inference behaviour.  With
    ``raw_fallback`` each compressed layer additionally keeps its
    uncompressed tensor, enabling the ``"raw"`` degradation policy.
    """
    parametric = dict(model.parametric_layers())
    unknown = set(assignments) - set(parametric)
    if unknown:
        raise ValueError(f"assignments for unknown layers: {sorted(unknown)}")
    compressed = {}
    codecs = {}
    fallback = {}
    for name, delta in assignments.items():
        weights = model.get_weights(name)
        codec_obj = (
            codec
            if isinstance(codec, Codec)
            else get_codec(codec, delta_pct=float(delta))
        )
        blob = codec_obj.encode(weights.ravel()).with_checksum()
        compressed[name] = (blob.payload, tuple(weights.shape))
        codecs[name] = blob.spec()
        if raw_fallback:
            fallback[name] = weights.copy()
    raw = {
        name: model.get_weights(name).copy()
        for name in parametric
        if name not in assignments
    }
    state = {}
    if include_state:
        weight_keys = {f"{n}.param0" for n in parametric}
        state = {
            k: v.copy()
            for k, v in model.state_dict().items()
            if k not in weight_keys
        }
    return ModelArchive(
        assignments=dict(assignments),
        compressed=compressed,
        raw=raw,
        state=state,
        codecs=codecs,
        fallback=fallback,
        version=FORMAT_VERSION,
    )


def load_archive(path: str | Path) -> ModelArchive:
    with np.load(path) as data:
        version = (
            int(data["meta.format"][0]) if "meta.format" in data.files else 1
        )
        assignments = json.loads(bytes(data["meta.assignments"]).decode())
        codecs = (
            json.loads(bytes(data["meta.codecs"]).decode())
            if "meta.codecs" in data.files
            else {}
        )
        compressed = {}
        raw = {}
        state = {}
        fallback = {}
        for key in data.files:
            if key.startswith("compressed."):
                name = key[len("compressed.") :]
                compressed[name] = (
                    bytes(data[key]),
                    tuple(int(v) for v in data[f"shape.{name}"]),
                )
            elif key.startswith("raw."):
                raw[key[len("raw.") :]] = data[key]
            elif key.startswith("fallback."):
                fallback[key[len("fallback.") :]] = data[key]
            elif key.startswith("state."):
                state[key[len("state.") :]] = data[key]
    return ModelArchive(
        assignments={k: float(v) for k, v in assignments.items()},
        compressed=compressed,
        raw=raw,
        state=state,
        codecs=codecs,
        fallback=fallback,
        version=version,
    )
