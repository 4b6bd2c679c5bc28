"""Piece requests: a relation submitted with its global ``offset``.

A gateway chunk is a piece of one long stream.  Submitted as a piece
request, whoever partitions it writes its generated record ids as the
global positions ``offset + i`` and hands back the piece's own
``(partition, lane)`` histogram with lanes counted from ``offset`` —
so the stream's accounting folds rows instead of hashing every chunk a
second time.  The contract, pinned here for every executor:

* the output is the bytes of the offline ``partition(chunk, offset +
  arange)`` (or of the chunk's own payloads), on both kernel backends;
* ``lane_counts`` folded over the chunks equals ``Accounting.observe``
  over the same chunks — so the MANIFEST is unchanged;
* only piece outputs carry a lane row (a row on every output is what
  made the service's burst lane hold every batch's lane matrix);
* generated ids past ``0xFFFFFFFE`` are refused by length, and a
  gateway stream that would reach them ends with an ERROR frame.
"""

from __future__ import annotations

import asyncio
import dataclasses
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.analysis.verify import outputs_identical
from repro.cluster import ShardRouter
from repro.core.modes import LayoutMode, OutputMode, PartitionerConfig
from repro.core.partitioner import FpgaPartitioner
from repro.core.pieces import (
    Accounting,
    normalize_columns,
    piece_config,
    piece_lanes,
    run_piece,
)
from repro.core.tuples import DUMMY_PAYLOAD
from repro.errors import ConfigurationError
from repro.gateway import (
    GatewayClient,
    GatewayServer,
    GatewayStreamError,
    stream_partition,
)
from repro.gateway import server as gateway_server
from repro.gateway.chunking import StreamAccounting
from repro.gateway.protocol import ErrorCode
from repro.service import (
    CircuitBreaker,
    DegradationPolicy,
    PartitionRequest,
    PartitionService,
    RequestStatus,
)
from repro.service.service import _call_isolated
from tests.conftest import needs_native

MODES = [
    (OutputMode.HIST, LayoutMode.RID),
    (OutputMode.HIST, LayoutMode.VRID),
    (OutputMode.PAD, LayoutMode.RID),
    (OutputMode.PAD, LayoutMode.VRID),
]

BACKENDS = [pytest.param("native", marks=needs_native), "numpy"]


@st.composite
def streams(draw, max_chunks=8):
    """(stream config, keys, chunk sizes, payloads or None): chunk sizes
    off the lane grid, payloads explicit or generated."""
    output_mode, layout_mode = draw(st.sampled_from(MODES))
    config = PartitionerConfig(
        num_partitions=draw(st.sampled_from([16, 64])),
        output_mode=output_mode,
        layout_mode=layout_mode,
    )
    sizes = draw(
        st.lists(st.integers(1, 700), min_size=1, max_size=max_chunks)
    )
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    keys = rng.integers(0, 2**32, n, dtype=np.uint64).astype(np.uint32)
    payloads = None
    if draw(st.booleans()):
        payloads = rng.integers(0, DUMMY_PAYLOAD, n, dtype=np.uint32)
    return config, keys, sizes, payloads


def _pieces(keys, sizes, payloads):
    """``(offset, keys, payloads or None)`` per chunk."""
    out, low = [], 0
    for size in sizes:
        out.append((
            low,
            keys[low:low + size],
            None if payloads is None else payloads[low:low + size],
        ))
        low += size
    return out


def _offline(config, chunk, payloads, offset):
    """The offline call a piece must reproduce."""
    if payloads is None:
        payloads = np.arange(offset, offset + len(chunk), dtype=np.uint32)
    with FpgaPartitioner(config) as partitioner:
        return partitioner.partition(chunk, payloads)


def _lanes(config, chunk, offset):
    return kernels.hash_histogram(
        chunk, config.num_partitions, config.uses_hash,
        lanes=config.num_lanes, global_offset=offset,
    )[2]


def _check_stream(config, keys, pieces, outputs, check_accounting=True):
    """Each output is its offline piece; the folded rows are what
    ``Accounting.observe`` over the same chunks folds."""
    pc = piece_config(config)
    folded, observed = Accounting(config), Accounting(config)
    for (offset, chunk, payloads), output in zip(pieces, outputs):
        reference = _offline(pc, chunk, payloads, offset)
        assert outputs_identical(
            output, reference, check_accounting=check_accounting
        )
        assert output.lane_counts.shape == (
            config.num_partitions, config.num_lanes
        )
        assert folded.reserve(len(chunk)) == observed.observe(chunk)
        folded.fold(output.lane_counts)
    assert folded.tuples == observed.tuples == len(keys)
    assert np.array_equal(folded.lane_counts, observed.lane_counts)
    assert folded.finalize("hist").to_dict() == (
        observed.finalize("hist").to_dict()
    )


# ---------------------------------------------------------------------------
# The batch kernel


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 300), min_size=1, max_size=6),
    offsets=st.lists(
        st.none() | st.integers(0, 2**32 - 400), min_size=6, max_size=6
    ),
    generated=st.lists(st.booleans(), min_size=6, max_size=6),
    fan_out=st.sampled_from([16, 512]),
    seed=st.integers(0, 2**16),
)
def test_partition_batch_offsets_native_twin_and_one_request(
    sizes, offsets, generated, fan_out, seed
):
    """Empty requests and whole runs (``None`` offsets) included: each
    request's slice, counts and lines are ``hash_histogram(global_offset
    =offset)`` + a stable scatter of its payloads, or of ``offset + i``
    when they are generated, and only a piece returns a lane row — its
    histogram."""
    rng = np.random.default_rng(seed)
    columns = []
    for size, is_generated in zip(sizes, generated):
        keys = rng.integers(0, 2**32, size, dtype=np.uint64).astype(np.uint32)
        payloads = None if is_generated else rng.permutation(size).astype(
            np.uint32
        )
        columns.append((keys, payloads))
    offsets = offsets[:len(sizes)]
    backends = ["numpy"] + (["native"] if kernels.native_available() else [])
    results = []
    for backend in backends:
        with kernels.using_backend(backend):
            results.append(
                kernels.partition_batch(columns, fan_out, True, 8, offsets)
            )
    for got in results[1:]:
        for a, b in zip(got, results[0]):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    out_keys, out_payloads, counts, lines, lane_rows = results[0]
    pieces = [offset for offset in offsets if offset is not None]
    assert lane_rows.shape == (len(pieces), fan_out, 8)
    rows = iter(lane_rows)
    low = 0
    for (keys, payloads), offset, row_counts, row_lines in zip(
        columns, offsets, counts, lines
    ):
        first = offset or 0
        if payloads is None:
            payloads = np.arange(first, first + len(keys), dtype=np.uint32)
        parts, hist, want = kernels.hash_histogram(
            keys, fan_out, True, lanes=8, global_offset=first
        )
        order = np.argsort(parts, kind="stable")
        high = low + len(keys)
        if offset is not None:
            assert np.array_equal(next(rows), want)
        assert np.array_equal(row_counts, hist)
        assert np.array_equal(row_lines, (-(-want // 8)).sum(axis=1))
        assert np.array_equal(out_keys[low:high], keys[order])
        assert np.array_equal(out_payloads[low:high], payloads[order])
        low = high


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 400), min_size=1, max_size=5),
    offsets=st.lists(
        st.none() | st.integers(0, 2**31), min_size=5, max_size=5
    ),
    tuple_bytes=st.sampled_from([8, 16]),
    seed=st.integers(0, 2**16),
)
def test_partition_many_lines_and_lane_rows(
    backend, sizes, offsets, tuple_bytes, seed
):
    """Per request of a mixed batch: its lines are Σ⌈lane /
    tuples_per_line⌉ of its own ``hash_histogram(lanes=,
    global_offset=)``, a piece's ``lane_counts`` is that histogram, and
    a whole run's is ``None``."""
    config = PartitionerConfig(num_partitions=32, tuple_bytes=tuple_bytes)
    rng = np.random.default_rng(seed)
    relations = [
        rng.integers(0, 2**32, size, dtype=np.uint64).astype(np.uint32)
        for size in sizes
    ]
    offsets = offsets[:len(sizes)]
    with kernels.using_backend(backend):
        with FpgaPartitioner(config) as partitioner:
            outputs = partitioner.partition_many(relations, offsets=offsets)
    for keys, offset, output in zip(relations, offsets, outputs):
        lanes = _lanes(config, keys, offset or 0)
        per_line = config.tuples_per_line
        assert np.array_equal(
            output.lines_per_partition, (-(-lanes // per_line)).sum(axis=1)
        )
        if offset is None:
            assert output.lane_counts is None
        else:
            assert np.array_equal(output.lane_counts, lanes)


# ---------------------------------------------------------------------------
# partition_many(offsets=): native ≡ twin ≡ offline


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=30, deadline=None)
@given(stream=streams())
def test_partition_many_pieces_are_offline_partitions(backend, stream):
    config, keys, sizes, payloads = stream
    pieces = _pieces(keys, sizes, payloads)
    with kernels.using_backend(backend):
        with FpgaPartitioner(piece_config(config)) as partitioner:
            outputs = partitioner.partition_many(
                [chunk for _, chunk, _ in pieces],
                [pays for _, _, pays in pieces],
                offsets=[offset for offset, _, _ in pieces],
            )
        _check_stream(config, keys, pieces, outputs)


def test_partition_many_mixes_pieces_and_whole_runs():
    """Offsets are data: a batch holds pieces and whole runs side by
    side, and only the pieces' outputs carry a lane row — a fresh array,
    not a view that would keep the batch's lane matrix alive."""
    config = PartitionerConfig(num_partitions=32)
    keys = np.random.default_rng(3).integers(0, 2**32, 900, np.uint64)
    keys = keys.astype(np.uint32)
    with FpgaPartitioner(config) as partitioner:
        outputs = partitioner.partition_many(
            [keys[:300], keys[300:600], keys[600:]],
            offsets=[None, 1_000, None],
        )
        alone = partitioner.partition(keys[:300])
    assert outputs[0].lane_counts is None and outputs[2].lane_counts is None
    assert outputs[1].lane_counts.base is None
    assert np.array_equal(
        outputs[1].lane_counts, _lanes(config, keys[300:600], 1_000)
    )
    assert outputs_identical(outputs[0], alone)
    assert outputs_identical(
        outputs[1], _offline(config, keys[300:600], None, 1_000)
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_outputs_keep_only_the_counts_and_lines_alive(backend):
    """Of the kernel's buffers, a batch's outputs hold only its
    ``(batch, P)`` counts and lines — not the lane scratch, nor the
    piece rows, each of which its output owns as a copy."""
    config = PartitionerConfig(num_partitions=32)
    keys = np.random.default_rng(4).integers(0, 2**32, 900, np.uint64)
    keys = keys.astype(np.uint32)
    with kernels.using_backend(backend):
        with FpgaPartitioner(config) as partitioner:
            outputs = partitioner.partition_many(
                [keys[:300], keys[300:600], keys[600:]],
                offsets=[None, 1_000, 2_000],
            )
    for output in outputs:
        for array in (output.counts, output.lines_per_partition):
            while array.base is not None:
                array = array.base
            assert array.nbytes <= 2 * len(outputs) * 32 * 8
    assert all(output.lane_counts.base is None for output in outputs[1:])


# ---------------------------------------------------------------------------
# Every other executor, through run_piece


@settings(max_examples=6, deadline=None)
@given(stream=streams(max_chunks=4))
def test_split_path_meets_the_piece_contract(stream):
    """Chunks over ``split_tuples`` run solo through ``partition()``."""
    config, keys, sizes, payloads = stream
    pieces = _pieces(keys, sizes, payloads)
    with PartitionService(split_tuples=1) as service:
        outputs = _submit_all(service, config, pieces, "fpga")
        assert service.metrics.to_dict()["counters"]["split_requests"] == len(
            pieces
        )
    _check_stream(config, keys, pieces, outputs)


@settings(max_examples=6, deadline=None)
@given(stream=streams(max_chunks=4))
def test_cpu_path_meets_the_piece_contract(stream):
    """A breaker held open sends every chunk to the CPU partitioner,
    whose dense layout differs by design: contents and rows only."""
    config, keys, sizes, payloads = stream
    pieces = _pieces(keys, sizes, payloads)
    breaker = CircuitBreaker(failure_threshold=1, cooldown_s=3600.0)
    breaker.record_failure()
    with PartitionService(policy=DegradationPolicy(breaker=breaker)) as service:
        outputs = _submit_all(service, config, pieces, "cpu")
    _check_stream(config, keys, pieces, outputs, check_accounting=False)


@settings(max_examples=4, deadline=None)
@given(stream=streams(max_chunks=3))
def test_spill_path_meets_the_piece_contract(stream, tmp_path_factory):
    config, keys, sizes, payloads = stream
    pieces = _pieces(keys, sizes, payloads)
    spill_dir = tmp_path_factory.mktemp("spill")
    with PartitionService(spill_tuples=1, spill_dir=spill_dir) as service:
        responses = _responses(service, config, pieces)
        assert {r.backend for r in responses} == {"spill"}
        _check_stream(config, keys, pieces, [r.output for r in responses])
        for response in responses:
            response.spill.cleanup()


@settings(max_examples=6, deadline=None)
@given(stream=streams(max_chunks=4))
def test_isolated_path_meets_the_piece_contract(stream):
    """Heavy-hitter isolation, as the dispatcher calls it for a batch
    the optimizer marked (its PAD layout starts hot regions elsewhere:
    contents and rows only)."""
    config, keys, sizes, payloads = stream
    config = dataclasses.replace(config, layout_mode=LayoutMode.RID)
    pieces = _pieces(keys, sizes, payloads)
    pc = dataclasses.replace(piece_config(config), output_mode=OutputMode.PAD)
    live = [
        types.SimpleNamespace(
            request=PartitionRequest(
                relation=chunk, payloads=pays, config=pc, offset=offset
            ),
            decision=types.SimpleNamespace(isolate_keys=(int(chunk[0]),)),
        )
        for offset, chunk, pays in pieces
    ]
    with FpgaPartitioner(pc) as partitioner:
        outputs = _call_isolated(partitioner, live)
    _check_stream(config, keys, pieces, outputs, check_accounting=False)


@settings(max_examples=5, deadline=None)
@given(stream=streams(max_chunks=4))
def test_router_meets_the_piece_contract(stream):
    """The router hands back its routing pass's own lane matrix,
    relabelled to start at the piece's offset."""
    config, keys, sizes, payloads = stream
    pieces = _pieces(keys, sizes, payloads)
    with ShardRouter(2, seed=1) as router:
        outputs = []
        for offset, chunk, pays in pieces:
            response = router.partition(
                chunk, pays, piece_config(config), "raise", None, offset
            )
            assert response.ok, response.error
            outputs.append(response.output)
        whole = router.partition(keys, payloads, piece_config(config))
    assert whole.output.lane_counts is None
    _check_stream(config, keys, pieces, outputs)


def _responses(service, config, pieces):
    tickets = [
        service.submit(PartitionRequest(
            relation=chunk, payloads=pays, config=piece_config(config),
            offset=offset,
        ))
        for offset, chunk, pays in pieces
    ]
    responses = [ticket.result(timeout=60) for ticket in tickets]
    assert all(r.status is RequestStatus.OK for r in responses), [
        r.error for r in responses
    ]
    return responses


def _submit_all(service, config, pieces, backend):
    responses = _responses(service, config, pieces)
    assert {r.backend for r in responses} == {backend}
    return [r.output for r in responses]


def test_piece_lanes_is_hash_histogram_from_the_offset():
    config = PartitionerConfig(num_partitions=16)
    keys = np.random.default_rng(9).integers(0, 2**32, 333, np.uint64)
    keys = keys.astype(np.uint32)
    for offset in (0, 1, 7, 8, 2**32 - 1_000):
        assert np.array_equal(
            piece_lanes(_lanes(config, keys, 0), offset),
            _lanes(config, keys, offset),
        )


# ---------------------------------------------------------------------------
# The generated-id bound


class TestGeneratedIdBound:
    config = PartitionerConfig(num_partitions=16)
    keys = np.arange(64, dtype=np.uint32)

    def test_offset_plus_length_past_the_dummy_raises(self):
        last = DUMMY_PAYLOAD - len(self.keys)
        assert normalize_columns(self.config, self.keys, offset=last)[1] is None
        with FpgaPartitioner(self.config) as partitioner:
            output = partitioner.partition_many([self.keys], offsets=[last])[0]
            assert int(
                np.concatenate(list(output.partition_payloads)).max()
            ) == DUMMY_PAYLOAD - 1
            with pytest.raises(ConfigurationError, match="dummy"):
                partitioner.partition_many([self.keys], offsets=[last + 1])
            # explicit payloads are the caller's: no id is generated
            explicit = np.arange(64, dtype=np.uint32)
            partitioner.partition_many(
                [self.keys], [explicit], offsets=[last + 1]
            )
        with pytest.raises(ConfigurationError, match="dummy"):
            run_piece(
                self.config, self.keys, None, last + 1,
                lambda keys, payloads: pytest.fail("ran past the bound"),
            )

    def test_checked_by_length_without_a_scan(self, monkeypatch):
        from repro.core import pieces

        def scan(payloads):
            raise AssertionError("generated record ids were scanned")

        monkeypatch.setattr(pieces, "check_payloads_valid", scan)
        assert normalize_columns(self.config, self.keys, offset=5)[1] is None

    def test_vrid_and_negative_pieces_refused(self):
        vrid = dataclasses.replace(self.config, layout_mode=LayoutMode.VRID)
        with pytest.raises(ConfigurationError, match="RID"):
            normalize_columns(vrid, self.keys, offset=0)
        with pytest.raises(ConfigurationError, match="offset"):
            normalize_columns(self.config, self.keys, offset=-1)

    def test_service_resolves_failed(self):
        with PartitionService() as service:
            response = service.submit(PartitionRequest(
                relation=self.keys, config=self.config,
                offset=DUMMY_PAYLOAD - 10,
            )).result(timeout=30)
        assert response.status is RequestStatus.FAILED
        assert response.error_type == "ConfigurationError"


class _NearTheEnd(StreamAccounting):
    """A stream whose counter starts 100 positions before the dummy
    id, instead of one that sends 2**32 tuples to get there."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._accounting.tuples = DUMMY_PAYLOAD - 100


@pytest.mark.parametrize("backend", ["service", "router"])
def test_gateway_stream_past_the_dummy_id_ends_with_an_error_frame(
    backend, monkeypatch
):
    monkeypatch.setattr(gateway_server, "StreamAccounting", _NearTheEnd)
    config = PartitionerConfig(num_partitions=16)
    keys = np.arange(128, dtype=np.uint32)

    async def main():
        if backend == "service":
            service = PartitionService().start()
            server = GatewayServer(service=service, drain_backend=True)
        else:
            router = ShardRouter(2, seed=1).start()
            server = GatewayServer(router=router, drain_backend=True)
        await server.start()
        try:
            with pytest.raises(GatewayStreamError) as error:
                await stream_partition(
                    "127.0.0.1", server.port, keys, config=config,
                    chunk_tuples=64,
                )
            return error.value
        finally:
            await server.drain()

    error = asyncio.run(main())
    assert error.code == ErrorCode.FAILED.value
    assert "ConfigurationError" in str(error) and "dummy" in str(error)
    # the ERROR frame carries the bare message: one prefix, the client's
    assert str(error).startswith("[failed] ConfigurationError")
    assert str(error).count("[failed] ") == 1


@pytest.mark.parametrize("backend", ["service", "router"])
def test_an_empty_chunk_is_an_empty_piece(backend):
    """``send(keys[:0])`` between two chunks is legal stream data: the
    server answers it with an empty CHUNK frame in order, and the
    stitched output is the offline partition of the concatenation."""
    config = PartitionerConfig(num_partitions=16)
    keys = np.random.default_rng(12).integers(0, 2**32, 100, np.uint64)
    keys = keys.astype(np.uint32)

    async def main():
        if backend == "service":
            service = PartitionService().start()
            server = GatewayServer(service=service, drain_backend=True)
        else:
            router = ShardRouter(2, seed=1).start()
            server = GatewayServer(router=router, drain_backend=True)
        await server.start()
        try:
            client = await GatewayClient.connect("127.0.0.1", server.port)
            try:
                stream = await client.open_stream(config)
                for chunk in (keys[:50], keys[:0], keys[50:]):
                    await stream.send(chunk)
                return await stream.finish()
            finally:
                await client.close()
        finally:
            await server.drain()

    output = asyncio.run(main())
    with FpgaPartitioner(config) as partitioner:
        assert outputs_identical(output, partitioner.partition(keys))


# ---------------------------------------------------------------------------
# Counts


@needs_native
def test_a_gateway_stream_is_hashed_once(native_calls):
    """k chunks through a service-backed gateway: the server hashes
    nothing outside the batch kernel (one ``hash_hist`` per chunk
    before piece requests), and the client stitch is one run copy."""
    config = PartitionerConfig(num_partitions=32)
    chunks = 12
    keys = np.random.default_rng(5).integers(0, 2**32, 12 * 500, np.uint64)
    keys = keys.astype(np.uint32)

    async def main():
        service = PartitionService().start()
        server = GatewayServer(service=service, drain_backend=True)
        await server.start()
        try:
            return await stream_partition(
                "127.0.0.1", server.port, keys, config=config,
                chunk_tuples=len(keys) // chunks,
            )
        finally:
            await server.drain()

    output = asyncio.run(main())
    calls = dict(native_calls)
    assert calls.get("hash_hist", 0) == 0, calls
    assert 1 <= calls["partition_batch"] <= chunks, calls
    assert calls["copy_runs"] == 1, calls
    with FpgaPartitioner(config) as partitioner:
        assert outputs_identical(output, partitioner.partition(keys))


def test_whole_run_outputs_carry_no_lane_row():
    """The burst lane's requests are whole runs: no output keeps a lane
    row (held by 8,192 responses, one per request was +160 MiB)."""
    rng = np.random.default_rng(11)
    configs = [PartitionerConfig(num_partitions=p) for p in (64, 256)]
    with PartitionService(max_queue_requests=512) as service:
        tickets = [
            service.submit(PartitionRequest(
                relation=rng.integers(0, 2**32, 256 + 16 * i, np.uint64)
                .astype(np.uint32),
                config=configs[i % 2],
            ))
            for i in range(128)
        ]
        responses = [ticket.result(timeout=60) for ticket in tickets]
    assert all(r.ok for r in responses)
    assert max(r.batch_size for r in responses) > 1
    assert all(r.output.lane_counts is None for r in responses)
