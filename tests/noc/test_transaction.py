"""Transaction-level model unit behaviour (agreement tests live in
tests/integration/test_transaction_vs_flit.py)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapping.accelerator import SIMULATED_KINDS, Accelerator, AcceleratorConfig
from repro.mapping.schedule import (
    CompressionEffect,
    LayerSchedule,
    Transfer,
    build_schedule,
)
from repro.nn import zoo
from repro.nn.arch import ArchBuilder
from repro.noc.flit import TrafficClass
from repro.noc.mesh import Mesh
from repro.noc.memory_if import DramConfig
from repro.noc.transaction import LatencyComponents, TransactionModel, _flits


def _sched(in_f=400, out_f=1200):
    b = ArchBuilder("t", (1, 1, 1))
    b.set_shape((in_f,))
    b.fc("fc", out_f)
    return build_schedule(b.build().layer("fc"), Mesh(4, 4))


class TestLatencyComponents:
    def test_total(self):
        c = LatencyComponents(10, 5, 3)
        assert c.total == 18

    def test_add(self):
        c = LatencyComponents(1, 2, 3) + LatencyComponents(10, 20, 30)
        assert (c.memory, c.communication, c.computation) == (11, 22, 33)


class TestModel:
    def test_components_positive_for_real_layer(self):
        model = TransactionModel()
        lat = model.layer_latency(_sched())
        assert lat.memory > 0 and lat.communication > 0 and lat.computation > 0

    def test_memory_dominates_fc(self):
        model = TransactionModel()
        lat = model.layer_latency(_sched(4000, 4000))
        assert lat.memory > lat.communication + lat.computation

    def test_bigger_layer_costs_more(self):
        model = TransactionModel()
        small = model.layer_latency(_sched(100, 100)).total
        big = model.layer_latency(_sched(2000, 2000)).total
        assert big > 5 * small

    def test_events_bytes_conserved(self):
        model = TransactionModel()
        sched = _sched()
        ev = model.layer_events(sched)
        # DRAM-side accounting: shared ifmap counted once per MC
        assert ev["main_mem_bytes"] == (
            sched.total_dram_read_bytes + sched.total_write_bytes
        )
        assert ev["main_mem_bytes"] < sched.total_read_bytes + sched.total_write_bytes
        assert ev["macs"] >= sched.plan.total_macs

    def test_flit_hops_scale_with_volume(self):
        model = TransactionModel()
        small = model.layer_events(_sched(100, 120))["flit_hops"]
        big = model.layer_events(_sched(1000, 1200))["flit_hops"]
        assert big > 5 * small

    def test_empty_schedule_zero(self):
        # a pool layer on a tiny map still has some traffic, so build a
        # degenerate schedule by hand
        sched = _sched()
        sched.transfers = []
        sched.pe_work = {}
        model = TransactionModel()
        lat = model.layer_latency(sched)
        assert lat.total == 0


# -- differential oracle ------------------------------------------------------
#
# The model is closed-form per DRAM job and per ofmap write.  The
# references below walk the same schedule one DRAM chunk and one write
# packet at a time, the way the channels serve them; every
# quantity is an integer and equal chunks cost the same, so the two must
# agree exactly.


def reference_latency(model: TransactionModel, schedule: LayerSchedule) -> LatencyComponents:
    """Per-chunk / per-packet walk of the transaction model."""
    mesh, dram = model.mesh, model.dram
    pipe = mesh.routers[0].pipeline_depth

    read_busy: dict[int, int] = {}
    inject_flits: dict[int, int] = {}
    max_hops = 0
    for job in schedule.dram_jobs():
        # every chunk of a job fans out to the same PEs
        farthest = max(mesh.hop_count(job.mc, dst) for dst in job.dsts)
        remaining = job.nbytes
        while remaining > 0:
            n = min(model.chunk, remaining)
            read_busy[job.mc] = read_busy.get(job.mc, 0) + dram.service_cycles(n)
            inject_flits[job.mc] = inject_flits.get(job.mc, 0) + len(job.dsts) * _flits(
                n, dram.max_packet_bytes
            )
            max_hops = max(max_hops, farthest)
            remaining -= n
    t_read = max(
        (max(read_busy[mc], inject_flits.get(mc, 0)) for mc in read_busy),
        default=0,
    )

    write_busy: dict[int, int] = {}
    for pe, (_, _, o_bytes, _, _, _) in schedule.pe_work.items():
        if o_bytes <= 0:
            continue
        mc = mesh.nearest_corner(pe)
        remaining = o_bytes
        while remaining > 0:
            n = min(dram.max_packet_bytes, remaining)
            write_busy[mc] = write_busy.get(mc, 0) + dram.service_cycles(n)
            remaining -= n
        max_hops = max(max_hops, mesh.hop_count(pe, mc))
    t_write = max(write_busy.values(), default=0)

    last_chunk_flits = _flits(
        min(model.chunk, max((t.nbytes for t in schedule.transfers), default=0)),
        dram.max_packet_bytes,
    )
    max_ofmap_flits = max(
        (_flits(w[2], dram.max_packet_bytes) for w in schedule.pe_work.values()),
        default=0,
    )
    t_comm = last_chunk_flits + max_ofmap_flits + 2 * max_hops * (pipe + 1)

    t_comp = max(
        (max(compute, decomp) for (_, _, _, compute, decomp, _) in schedule.pe_work.values()),
        default=0,
    )
    if schedule.streamed and t_comp > 0:
        t_comp = max(t_comp - t_read, 1)
    return LatencyComponents(memory=t_read + t_write, communication=t_comm, computation=t_comp)


def reference_events(model: TransactionModel, schedule: LayerSchedule) -> dict[str, int]:
    """Event counts, the DRAM read volume recounted from the transfers."""
    mesh, mpb = model.mesh, model.dram.max_packet_bytes
    flit_hops = nic_flits = local_mem = main_write = macs = 0
    for t in schedule.transfers:
        f = _flits(t.nbytes, mpb)
        flit_hops += f * mesh.hop_count(t.mc, t.pe)
        nic_flits += 2 * f
    for pe, (w, i, o, _, _, m) in schedule.pe_work.items():
        if o > 0:
            f = _flits(o, mpb)
            flit_hops += f * mesh.hop_count(pe, mesh.nearest_corner(pe))
            nic_flits += 2 * f
        local_mem += 2 * (w + i) + o
        main_write += o
        macs += m
    # DRAM side: private streams once each, a shared class once per MC
    shared_class = schedule.shared_class
    shared = {(t.mc, t.nbytes) for t in schedule.transfers if t.traffic_class is shared_class}
    main_read = sum(nbytes for _, nbytes in shared) + sum(
        t.nbytes for t in schedule.transfers if t.traffic_class is not shared_class
    )
    return {
        "flit_hops": flit_hops,
        "nic_flits": nic_flits,
        "local_mem_bytes": local_mem,
        "main_mem_bytes": main_read + main_write,
        "macs": macs,
        "decompressed_weights": schedule.decompressed_weights_per_pe * len(schedule.pe_work),
    }


def assert_matches_reference(model: TransactionModel, schedule: LayerSchedule) -> None:
    assert model.layer_latency(schedule) == reference_latency(model, schedule), (
        schedule.layer_name
    )
    assert model.layer_events(schedule) == reference_events(model, schedule), (
        schedule.layer_name
    )


NETWORKS = ("lenet5", "alexnet", "vgg16", "mobilenet", "resnet50", "inception_v3")
TOPOLOGIES = {
    "mesh-4x4": AcceleratorConfig(),
    "odd-even-8x8": AcceleratorConfig(mesh_width=8, mesh_height=8, routing="odd-even"),
    "chiplet-12x12": AcceleratorConfig(
        mesh_width=12, mesh_height=12, topology="chiplet", chiplet_size=4
    ),
}
EFFECTS = {
    "none": None,
    "compressed": CompressionEffect(cr=7.3, segments_total=5003),
    "streamed": CompressionEffect(cr=7.3, segments_total=5003, streamed=True),
}


@pytest.mark.parametrize("network", NETWORKS)
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_zoo_layers_match_reference(network, topology):
    """Every simulated layer of a full-scale network, every compression
    mode, batch 1 and 3: closed form == per-chunk walk."""
    acc = Accelerator(TOPOLOGIES[topology])
    layers = [l for l in getattr(zoo, network).full().layers if l.kind in SIMULATED_KINDS]
    assert layers
    # repeated blocks (ResNet stages, Inception modules, VGG conv pairs)
    # give identical schedules; each distinct one is checked once
    seen = set()
    for layer in layers:
        for effect in EFFECTS.values():
            for batch in (1, 3):
                sched = acc.schedule_layer(layer, compression=effect, batch=batch)
                key = (
                    tuple(sched.transfers),
                    tuple(sched.pe_work.items()),
                    sched.shared_class,
                    sched.streamed,
                )
                if key not in seen:
                    seen.add(key)
                    assert_matches_reference(acc._txn, sched)


def _hand_schedule(volumes, ofmaps, shared, mesh, keep_empty):
    """A schedule built directly from per-PE (weight, ifmap) volumes;
    ``keep_empty`` also lists the zero-byte transfers."""
    pes = mesh.pe_ids()[: len(volumes)]
    transfers, pe_work = [], {}
    for pe, (w, i), o in zip(pes, volumes, ofmaps):
        mc = mesh.nearest_corner(pe)
        if w or keep_empty:
            transfers.append(Transfer(mc, pe, w, TrafficClass.WEIGHTS))
        if i or keep_empty:
            transfers.append(Transfer(mc, pe, i, TrafficClass.IFMAP))
        pe_work[pe] = (w, i, o, 1 + o % 97, w % 89, 3 * o)
    return LayerSchedule(
        layer_name="hand",
        plan=None,
        transfers=transfers,
        pe_work=pe_work,
        shared_class=shared,
    )


# byte counts that straddle every boundary the closed form divides by:
# exact multiples of the 2 KiB chunk and of the 256 B packet, one byte
# either side of them, and zero
_EDGE_BYTES = st.sampled_from(
    [0, 1, 7, 8, 9, 255, 256, 257, 2047, 2048, 2049, 4096, 4097, 6144, 65536 + 1]
)
_BYTES = st.one_of(_EDGE_BYTES, st.integers(0, 200_000))


@settings(max_examples=150, deadline=None)
@given(
    num_pes=st.integers(1, 12),
    shared=st.sampled_from([None, TrafficClass.WEIGHTS, TrafficClass.IFMAP]),
    weight=_BYTES,
    ifmap=_BYTES,
    private=st.lists(_BYTES, min_size=12, max_size=12),
    ofmaps=st.lists(_BYTES, min_size=12, max_size=12),
    streamed=st.booleans(),
    keep_empty=st.booleans(),
    chunk=st.sampled_from([256, 2048, 3000]),
    packet=st.sampled_from([64, 256, 1000]),
)
def test_hand_built_schedules_match_reference(
    num_pes, shared, weight, ifmap, private, ofmaps, streamed, keep_empty, chunk, packet
):
    """Shared-class fan-out gets one volume per MC class; the other class
    varies per PE.  Zero-ofmap PEs, zero-volume classes and zero-byte
    transfers included."""
    mesh = Mesh(4, 4)
    if shared is TrafficClass.WEIGHTS:
        volumes = [(weight, p) for p in private[:num_pes]]
    elif shared is TrafficClass.IFMAP:
        volumes = [(p, ifmap) for p in private[:num_pes]]
    else:
        volumes = list(zip(private[:num_pes], reversed(ofmaps[:num_pes])))
    sched = _hand_schedule(volumes, ofmaps[:num_pes], shared, mesh, keep_empty)
    sched.streamed = streamed
    model = TransactionModel(mesh, DramConfig(max_packet_bytes=packet), dram_chunk_bytes=chunk)
    assert_matches_reference(model, sched)


def test_zero_byte_transfer_costs_nothing():
    """A job with no bytes has no chunks: no channel time, no route."""
    mesh = Mesh(4, 4)
    sched = _hand_schedule([(0, 0)], [0], None, mesh, keep_empty=True)
    assert sched.transfers
    model = TransactionModel(mesh)
    # only the hand-built PE's one compute cycle remains
    expected = LatencyComponents(memory=0, communication=0, computation=1)
    assert model.layer_latency(sched) == reference_latency(model, sched) == expected
