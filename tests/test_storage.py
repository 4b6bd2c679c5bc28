"""Out-of-core storage engine: store, spill, crash recovery, service.

The load-bearing guarantee is **byte identity**: partitioning a stored
relation chunk-by-chunk through the spill path must produce exactly the
partitions, counts, line layout and traffic accounting of one in-memory
``partition()`` call — under any chunking, any memory budget, any mode,
and across a crash + :meth:`SpillPartitioner.resume`.
"""

from __future__ import annotations

import json
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.verify import outputs_identical
from repro.core.modes import (
    HashKind,
    LayoutMode,
    OutputMode,
    PartitionerConfig,
)
from repro.core.partitioner import FpgaPartitioner, PartitionedOutput
from repro.cpu.partitioner import CpuPartitioner
from repro.errors import ConfigurationError, PartitionOverflowError
from repro.obs.tracing import Tracer
from repro.service.degradation import BackendFault, FaultInjector
from repro.storage import (
    PartitionSpill,
    RelationStore,
    SpillPartitioner,
    StorageError,
)


def random_keys(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**32, size=n, dtype=np.uint64).astype(np.uint32)


def assert_byte_identical(spill: PartitionSpill, mem: PartitionedOutput):
    assert outputs_identical(spill.to_output(), mem)


# ---------------------------------------------------------------------------
# RelationStore
# ---------------------------------------------------------------------------


class TestRelationStore:
    def test_ingest_roundtrip(self, tmp_path):
        keys = random_keys(10_000, seed=1)
        store = RelationStore.ingest(
            keys, tmp_path / "s", chunk_tuples=3_000
        ).seal()
        assert store.num_chunks == 4
        assert store.num_tuples == 10_000
        reopened = RelationStore.open(tmp_path / "s")
        reopened.verify()
        got_keys = np.concatenate(
            [reopened.chunk(i)[0] for i in range(reopened.num_chunks)]
        )
        got_pays = np.concatenate(
            [reopened.chunk(i)[1] for i in range(reopened.num_chunks)]
        )
        assert np.array_equal(got_keys, keys)
        # default payloads are *global* positions (the VRID column)
        assert np.array_equal(got_pays, np.arange(10_000, dtype=np.uint32))

    def test_chunk_offsets_and_iteration(self, tmp_path):
        keys = random_keys(700, seed=2)
        store = RelationStore.ingest(keys, tmp_path / "s", chunk_tuples=300)
        offsets = [off for _, off, _, _ in store.iter_chunks()]
        assert offsets == [0, 300, 600]
        assert store.chunk_offset(2) == 600

    def test_create_refuses_existing(self, tmp_path):
        RelationStore.create(tmp_path / "s")
        with pytest.raises(StorageError):
            RelationStore.create(tmp_path / "s")

    def test_open_drops_unreferenced_partial_chunk(self, tmp_path):
        store = RelationStore.create(tmp_path / "s", chunk_tuples=100)
        store.append_chunk(random_keys(100, seed=3))
        # a killed ingest leaves a chunk file the manifest never named
        stray = tmp_path / "s" / "chunk-000001.bin"
        stray.write_bytes(b"torn")
        reopened = RelationStore.open(tmp_path / "s")
        assert reopened.num_chunks == 1
        assert not stray.exists()
        reopened.verify()

    def test_verify_catches_corruption(self, tmp_path):
        store = RelationStore.ingest(
            random_keys(500, seed=4), tmp_path / "s", chunk_tuples=250
        )
        target = tmp_path / "s" / store.chunks[1].file
        raw = bytearray(target.read_bytes())
        raw[17] ^= 0xFF
        target.write_bytes(bytes(raw))
        with pytest.raises(StorageError, match="CRC-32"):
            RelationStore.open(tmp_path / "s").verify()

    def test_read_only_after_open(self, tmp_path):
        RelationStore.ingest(random_keys(10, seed=5), tmp_path / "s")
        reopened = RelationStore.open(tmp_path / "s")
        with pytest.raises(StorageError, match="read-only"):
            reopened.append_chunk(random_keys(10))

    def test_empty_chunk_rejected(self, tmp_path):
        store = RelationStore.create(tmp_path / "s")
        with pytest.raises(ConfigurationError):
            store.append_chunk(np.empty(0, dtype=np.uint32))

    def test_ingest_sketch_recorded(self, tmp_path):
        keys = np.arange(5_000, dtype=np.uint32)
        RelationStore.ingest(keys, tmp_path / "s", chunk_tuples=1_000)
        reopened = RelationStore.open(tmp_path / "s")
        assert reopened.sketch is not None
        estimate = reopened.sketch.cardinality()
        assert abs(estimate - 5_000) / 5_000 < 0.15


# ---------------------------------------------------------------------------
# SpillPartitioner: byte identity
# ---------------------------------------------------------------------------


MODES = [
    (OutputMode.HIST, LayoutMode.RID),
    (OutputMode.HIST, LayoutMode.VRID),
    (OutputMode.PAD, LayoutMode.RID),
]


class TestSpillByteIdentity:
    @pytest.mark.parametrize("output_mode,layout_mode", MODES)
    def test_identical_to_in_memory(self, tmp_path, output_mode, layout_mode):
        keys = random_keys(30_000, seed=7)
        cfg = PartitionerConfig(
            num_partitions=32,
            output_mode=output_mode,
            layout_mode=layout_mode,
        )
        mem = FpgaPartitioner(cfg).partition(keys)
        store = RelationStore.ingest(
            keys, tmp_path / "s", chunk_tuples=4_321
        ).seal()
        spill = SpillPartitioner(cfg, max_bytes_in_memory=64_000).run(
            store, tmp_path / "run"
        )
        assert_byte_identical(spill, mem)
        spill.verify()

    def test_cpu_backend_matches_cpu_in_memory(self, tmp_path):
        keys = random_keys(12_000, seed=8)
        cfg = PartitionerConfig(num_partitions=16)
        mem = CpuPartitioner.matching(cfg, threads=1).partition(
            keys, np.arange(12_000, dtype=np.uint32)
        )
        store = RelationStore.ingest(keys, tmp_path / "s", chunk_tuples=2_500)
        spill = SpillPartitioner(
            cfg, backend="cpu", max_bytes_in_memory=30_000
        ).run(store, tmp_path / "run")
        for p in range(16):
            assert np.array_equal(
                np.asarray(spill.partition(p)[0]),
                np.asarray(mem.partition(p)[0]),
            )

    def test_tiny_budget_forces_flush_per_chunk(self, tmp_path):
        keys = random_keys(5_000, seed=9)
        cfg = PartitionerConfig(num_partitions=8)
        mem = FpgaPartitioner(cfg).partition(keys)
        store = RelationStore.ingest(keys, tmp_path / "s", chunk_tuples=500)
        tracer = Tracer()
        spill = SpillPartitioner(
            cfg, max_bytes_in_memory=1, tracer=tracer
        ).run(store, tmp_path / "run")
        assert_byte_identical(spill, mem)
        flushes = [s for s in tracer.export() if s.name == "spill_flush"]
        assert len(flushes) == store.num_chunks

    def test_spill_spans_emitted_with_bytes(self, tmp_path):
        keys = random_keys(3_000, seed=10)
        store = RelationStore.ingest(keys, tmp_path / "s", chunk_tuples=1_000)
        tracer = Tracer()
        SpillPartitioner(
            PartitionerConfig(num_partitions=8),
            max_bytes_in_memory=10_000,
            tracer=tracer,
        ).run(store, tmp_path / "run")
        spans = tracer.export()
        names = {s.name for s in spans}
        assert {"spill", "spill_chunk", "spill_flush", "spill_merge"} <= names
        chunk_bytes = sum(
            s.attributes["bytes"] for s in spans if s.name == "spill_chunk"
        )
        assert chunk_bytes == 3_000 * 8

    @given(
        n=st.integers(min_value=50, max_value=4_000),
        chunk_tuples=st.integers(min_value=13, max_value=1_500),
        partition_bits=st.sampled_from([1, 3, 4, 6]),
        budget=st.sampled_from([1, 10_000, 1 << 30]),
        hash_kind=st.sampled_from(list(HashKind)),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_streamed_equals_in_memory(
        self, tmp_path_factory, n, chunk_tuples, partition_bits, budget,
        hash_kind, seed,
    ):
        tmp_path = tmp_path_factory.mktemp("prop")
        keys = random_keys(n, seed=seed)
        cfg = PartitionerConfig(
            num_partitions=1 << partition_bits, hash_kind=hash_kind
        )
        mem = FpgaPartitioner(cfg).partition(keys)
        store = RelationStore.ingest(
            keys, tmp_path / "s", chunk_tuples=chunk_tuples
        )
        spill = SpillPartitioner(cfg, max_bytes_in_memory=budget).run(
            store, tmp_path / "run"
        )
        assert_byte_identical(spill, mem)


# ---------------------------------------------------------------------------
# Crash recovery
# ---------------------------------------------------------------------------


class TestCrashRecovery:
    def _setup(self, tmp_path, n=20_000, chunk_tuples=2_000):
        keys = random_keys(n, seed=21)
        cfg = PartitionerConfig(num_partitions=16)
        store = RelationStore.ingest(
            keys, tmp_path / "s", chunk_tuples=chunk_tuples
        ).seal()
        mem = FpgaPartitioner(cfg).partition(keys)
        return keys, cfg, store, mem

    @pytest.mark.parametrize("kill_at", [1, 2, 5, 9])
    def test_kill_and_resume_byte_identical(self, tmp_path, kill_at):
        _, cfg, store, mem = self._setup(tmp_path)
        injector = FaultInjector()
        injector.fail_at(kill_at)
        spiller = SpillPartitioner(
            cfg, max_bytes_in_memory=50_000, fault_injector=injector
        )
        with pytest.raises(BackendFault):
            spiller.run(store, tmp_path / "run")
        # mid-run state is visibly incomplete and refuses to open
        with pytest.raises(StorageError, match="running"):
            PartitionSpill.open(tmp_path / "run")
        tracer = Tracer()
        spill = SpillPartitioner(
            cfg, max_bytes_in_memory=50_000, tracer=tracer
        ).resume(tmp_path / "run")
        assert_byte_identical(spill, mem)
        spill.verify()
        assert "resume" in {s.name for s in tracer.export()}

    def test_kill_in_torn_write_window(self, tmp_path):
        """A crash *between* run write and manifest commit — at every
        flush — leaves a run file the manifest does not name; resume
        must unlink it."""
        _, cfg, store, mem = self._setup(tmp_path)

        def spiller(injector=None):
            return SpillPartitioner(
                cfg, max_bytes_in_memory=1, fault_injector=injector
            )

        for flush in range(store.num_chunks):
            run_dir = tmp_path / f"run-{flush}"
            injector = FaultInjector()
            # with a flush per chunk, checks alternate chunk, commit,
            # chunk, commit...; the commit check sits exactly in the
            # torn window (after write_run, before commit)
            injector.fail_at(2 * flush + 2)
            with pytest.raises(BackendFault):
                spiller(injector).run(store, run_dir)
            stray = run_dir / "runs" / f"run-{flush:06d}.bin"
            torn = stray.read_bytes()
            assert len(list(stray.parent.iterdir())) == flush + 1
            # kill the resume before it redoes a chunk: only the
            # rollback has run
            again = FaultInjector()
            again.fail_at(1)
            with pytest.raises(BackendFault):
                spiller(again).resume(run_dir)
            assert not stray.exists()
            assert len(list(stray.parent.iterdir())) == flush
            spill = spiller().resume(run_dir)
            assert_byte_identical(spill, mem)
            spill.verify()
            assert stray.read_bytes() == torn  # redone, the same run

    def test_resume_refuses_missing_or_short_committed_run(self, tmp_path):
        _, cfg, store, _ = self._setup(tmp_path)
        for victim, damage in (("a", "unlink"), ("b", "truncate")):
            run_dir = tmp_path / victim
            injector = FaultInjector()
            injector.fail_at(7)  # two flushes committed, third chunk next
            with pytest.raises(BackendFault):
                SpillPartitioner(
                    cfg, max_bytes_in_memory=1, fault_injector=injector
                ).run(store, run_dir)
            committed = run_dir / "runs" / "run-000001.bin"
            if damage == "unlink":
                committed.unlink()
            else:
                committed.write_bytes(committed.read_bytes()[:-4])
            with pytest.raises(StorageError, match="run-000001.bin"):
                SpillPartitioner(cfg, max_bytes_in_memory=1).resume(run_dir)

    def test_v1_manifest_refused(self, tmp_path):
        _, cfg, store, _ = self._setup(tmp_path, n=2_000, chunk_tuples=900)
        spiller = SpillPartitioner(cfg)
        spiller.run(store, tmp_path / "run")
        manifest_path = tmp_path / "run" / "SPILL_MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["version"] == 2
        manifest["version"] = 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="version 1"):
            PartitionSpill.open(tmp_path / "run")
        with pytest.raises(StorageError, match="version 1"):
            spiller.resume(tmp_path / "run")

    def test_double_kill_then_resume(self, tmp_path):
        _, cfg, store, mem = self._setup(tmp_path)
        first = FaultInjector()
        first.fail_at(3)
        with pytest.raises(BackendFault):
            SpillPartitioner(
                cfg, max_bytes_in_memory=40_000, fault_injector=first
            ).run(store, tmp_path / "run")
        second = FaultInjector()
        second.fail_at(2)
        with pytest.raises(BackendFault):
            SpillPartitioner(
                cfg, max_bytes_in_memory=40_000, fault_injector=second
            ).resume(tmp_path / "run")
        spill = SpillPartitioner(cfg, max_bytes_in_memory=40_000).resume(
            tmp_path / "run"
        )
        assert_byte_identical(spill, mem)

    def test_resume_of_complete_run_is_idempotent(self, tmp_path):
        _, cfg, store, mem = self._setup(tmp_path, n=4_000, chunk_tuples=900)
        spiller = SpillPartitioner(cfg, max_bytes_in_memory=10_000)
        spiller.run(store, tmp_path / "run")
        spill = spiller.resume(tmp_path / "run")
        assert_byte_identical(spill, mem)

    def test_resume_rejects_mismatched_config(self, tmp_path):
        _, cfg, store, _ = self._setup(tmp_path, n=4_000, chunk_tuples=900)
        injector = FaultInjector()
        injector.fail_at(2)
        with pytest.raises(BackendFault):
            SpillPartitioner(
                cfg, max_bytes_in_memory=1, fault_injector=injector
            ).run(store, tmp_path / "run")
        other = PartitionerConfig(num_partitions=64)
        with pytest.raises(ConfigurationError, match="different"):
            SpillPartitioner(other).resume(tmp_path / "run")

    def test_run_refuses_existing_run_dir(self, tmp_path):
        _, cfg, store, _ = self._setup(tmp_path, n=2_000, chunk_tuples=900)
        spiller = SpillPartitioner(cfg)
        spiller.run(store, tmp_path / "run")
        with pytest.raises(StorageError, match="resume"):
            spiller.run(store, tmp_path / "run")

    def test_spill_verify_catches_corruption(self, tmp_path):
        _, cfg, store, _ = self._setup(tmp_path, n=4_000, chunk_tuples=900)
        spill = SpillPartitioner(cfg, max_bytes_in_memory=10_000).run(
            store, tmp_path / "run"
        )
        victim = spill.runs_dir / spill.runs[1].file
        good = victim.read_bytes()
        header_bytes = 8 * cfg.num_partitions

        flipped = bytearray(good)
        flipped[header_bytes + 17] ^= 0xFF  # one key byte
        victim.write_bytes(bytes(flipped))
        with pytest.raises(StorageError, match="CRC-32"):
            spill.verify()

        victim.write_bytes(good[:-4])  # truncated
        with pytest.raises(StorageError, match="bytes"):
            spill.verify()
        with pytest.raises(StorageError, match="bytes"):
            PartitionSpill.open(spill.path).partition(0)

        header = np.frombuffer(good, dtype="<i8", count=16).copy()
        donor = int(np.flatnonzero(header)[0])
        header[donor] -= 1  # same file size, one tuple moved
        header[(donor + 1) % 16] += 1
        victim.write_bytes(header.tobytes() + good[header_bytes:])
        with pytest.raises(StorageError, match="header"):
            spill.verify()
        # a reader never serves bytes laid out by a header that lies
        with pytest.raises(StorageError, match="header"):
            PartitionSpill.open(spill.path).partition(0)

        victim.write_bytes(good)
        spill.verify()


class TestFaultInjectorFailAt:
    def test_fails_exactly_nth_call(self):
        injector = FaultInjector()
        injector.fail_at(3)
        injector.check()
        injector.check()
        with pytest.raises(BackendFault, match="fail_at"):
            injector.check()
        injector.check()  # disarmed after firing
        assert injector.injected == 1

    def test_rejects_non_positive(self):
        with pytest.raises(Exception):
            FaultInjector().fail_at(0)


# ---------------------------------------------------------------------------
# PAD overflow on the spill path
# ---------------------------------------------------------------------------


class TestSpillOverflow:
    def _skewed(self, tmp_path):
        # one dominant key forces a PAD overflow at realistic padding
        keys = np.zeros(8_000, dtype=np.uint32)
        keys[:1_000] = random_keys(1_000, seed=31)
        cfg = PartitionerConfig(
            num_partitions=16, output_mode=OutputMode.PAD, pad_tuples=64
        )
        store = RelationStore.ingest(
            keys, tmp_path / "s", chunk_tuples=1_000, sketch=False
        )
        return keys, cfg, store

    def test_overflow_raises_globally(self, tmp_path):
        keys, cfg, store = self._skewed(tmp_path)
        # every chunk fits its per-chunk capacity; only the *global*
        # merge-time check can see the overflow
        with pytest.raises(PartitionOverflowError):
            SpillPartitioner(cfg, max_bytes_in_memory=4_000).run(
                store, tmp_path / "run"
            )

    def test_overflow_hist_policy_matches_in_memory(self, tmp_path):
        keys, cfg, store = self._skewed(tmp_path)
        mem = FpgaPartitioner(cfg).partition(keys, on_overflow="hist")
        spill = SpillPartitioner(cfg, max_bytes_in_memory=4_000).run(
            store, tmp_path / "run", on_overflow="hist"
        )
        assert_byte_identical(spill, mem)
        assert spill.config.output_mode is OutputMode.HIST
        assert spill.requested_config.output_mode is OutputMode.PAD

    def test_cpu_policy_rejected(self, tmp_path):
        _, cfg, store = self._skewed(tmp_path)
        with pytest.raises(ConfigurationError, match="software"):
            SpillPartitioner(cfg).run(
                store, tmp_path / "run", on_overflow="cpu"
            )


# ---------------------------------------------------------------------------
# Skew warning from the ingest sketch
# ---------------------------------------------------------------------------


class TestSketchIntegration:
    def test_skew_warning_on_heavy_hitter(self, tmp_path):
        keys = np.zeros(10_000, dtype=np.uint32)  # one key owns it all
        store = RelationStore.ingest(keys, tmp_path / "s", chunk_tuples=2_500)
        with pytest.warns(UserWarning, match="skew"):
            SpillPartitioner(
                PartitionerConfig(num_partitions=16)
            ).run(store, tmp_path / "run")

    def test_uniform_input_does_not_warn(self, tmp_path, recwarn):
        keys = random_keys(10_000, seed=41)
        store = RelationStore.ingest(keys, tmp_path / "s", chunk_tuples=2_500)
        SpillPartitioner(PartitionerConfig(num_partitions=16)).run(
            store, tmp_path / "run"
        )
        assert not [
            w for w in recwarn if "skew" in str(w.message)
        ]


# ---------------------------------------------------------------------------
# Manifest round-trips
# ---------------------------------------------------------------------------


def test_config_dict_roundtrip():
    cfg = PartitionerConfig(
        num_partitions=512,
        output_mode=OutputMode.PAD,
        layout_mode=LayoutMode.VRID,
        hash_kind=HashKind.RADIX,
        pad_tuples=77,
    )
    assert PartitionerConfig.from_dict(cfg.to_dict()) == cfg
    assert PartitionerConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_completed_run_leaves_no_intermediate_files(tmp_path):
    keys = random_keys(5_000, seed=51)
    store = RelationStore.ingest(keys, tmp_path / "s", chunk_tuples=1_000)
    tracer = Tracer()
    spill = SpillPartitioner(
        PartitionerConfig(num_partitions=8),
        max_bytes_in_memory=10_000,
        tracer=tracer,
    ).run(store, tmp_path / "run")
    names = {p.name for p in spill.path.iterdir()}
    assert names == {"SPILL_MANIFEST.json", "runs"}
    assert not list(spill.path.rglob("*.tmp"))
    # one file per flush plus the manifest, and the spans say so
    spans = tracer.export()
    flushes = [s for s in spans if s.name == "spill_flush"]
    assert len(flushes) == 3
    files = [p for p in spill.path.rglob("*") if p.is_file()]
    assert len(files) == len(flushes) + 1
    assert [s.attributes["run_file"] for s in flushes] == [
        run.file for run in spill.runs
    ]
    assert all(s.attributes["fsyncs"] == 5 for s in flushes)
    (merge,) = [s for s in spans if s.name == "spill_merge"]
    assert merge.attributes["runs"] == len(flushes)


def test_spill_crc_matches_manifest(tmp_path):
    keys = random_keys(3_000, seed=52)
    store = RelationStore.ingest(keys, tmp_path / "s", chunk_tuples=1_000)
    spill = SpillPartitioner(
        PartitionerConfig(num_partitions=4), max_bytes_in_memory=10_000
    ).run(store, tmp_path / "run")
    manifest = json.loads((spill.path / "SPILL_MANIFEST.json").read_text())
    assert len(manifest["runs"]) == 2
    assert sum(run["tuples"] for run in manifest["runs"]) == 3_000
    for run in manifest["runs"]:
        raw = (spill.path / "runs" / run["file"]).read_bytes()
        assert len(raw) == 8 * 4 + 8 * run["tuples"]
        assert zlib.crc32(raw) == run["crc32"]


def test_single_flush_and_zero_chunk_runs_round_trip(tmp_path):
    cfg = PartitionerConfig(num_partitions=8)
    keys = random_keys(2_000, seed=53)
    store = RelationStore.ingest(keys, tmp_path / "s", chunk_tuples=700)
    spill = SpillPartitioner(cfg).run(store, tmp_path / "run")  # 64 MiB budget
    assert len(spill.runs) == 1
    assert_byte_identical(spill, FpgaPartitioner(cfg).partition(keys))
    spill.verify()

    empty = RelationStore.create(tmp_path / "empty").seal()
    spill = SpillPartitioner(cfg).run(empty, tmp_path / "empty-run")
    assert spill.runs == [] and spill.num_tuples == 0
    reopened = PartitionSpill.open(tmp_path / "empty-run")
    reopened.verify()
    assert [len(part) for part in reopened.partition_keys] == [0] * 8


# ---------------------------------------------------------------------------
# partition_many max_bytes_in_flight (batch-kernel memory cap)
# ---------------------------------------------------------------------------


class TestMaxBytesInFlight:
    def test_outputs_identical_with_cap(self):
        cfg = PartitionerConfig(num_partitions=16)
        relations = [random_keys(500 + 37 * i, seed=i) for i in range(12)]
        unbounded = FpgaPartitioner(cfg).partition_many(relations)
        # cap ≈ two requests' key+payload bytes -> many kernel passes
        capped = FpgaPartitioner(
            cfg, max_bytes_in_flight=2 * 2 * 600 * 4
        ).partition_many(relations)
        assert len(capped) == len(unbounded)
        for a, b in zip(capped, unbounded):
            assert np.array_equal(a.counts, b.counts)
            assert a.bytes_read == b.bytes_read
            for p in range(16):
                assert np.array_equal(
                    np.asarray(a.partition_keys[p]),
                    np.asarray(b.partition_keys[p]),
                )

    def test_cap_smaller_than_one_request_still_progresses(self):
        cfg = PartitionerConfig(num_partitions=8)
        relations = [random_keys(256, seed=i) for i in range(4)]
        outputs = FpgaPartitioner(
            cfg, max_bytes_in_flight=1
        ).partition_many(relations)
        assert len(outputs) == 4
        assert all(o.num_tuples == 256 for o in outputs)

    def test_invalid_cap_rejected(self):
        with pytest.raises(ConfigurationError):
            FpgaPartitioner(max_bytes_in_flight=0)


# ---------------------------------------------------------------------------
# Service + join integration
# ---------------------------------------------------------------------------


class TestServiceSpillRouting:
    def test_over_budget_request_served_via_spill(self, tmp_path):
        from repro.service import PartitionService

        keys = random_keys(60_000, seed=61)
        cfg = PartitionerConfig(num_partitions=32)
        mem = FpgaPartitioner(cfg).partition(keys)
        tracer = Tracer()
        with PartitionService(
            spill_tuples=30_000,
            spill_dir=tmp_path / "svc",
            spill_bytes_in_memory=100_000,
            tracer=tracer,
        ) as service:
            small = service.partition(keys[:512], config=cfg, timeout=60)
            response = service.partition(keys, config=cfg, timeout=120)
        assert small.backend == "fpga"
        assert response.ok and response.backend == "spill"
        assert response.spill is not None
        assert_byte_identical(response.spill, mem)
        assert service.metrics.counters["spilled"] == 1
        names = {s.name for s in tracer.export()}
        assert {"request", "batch", "spill", "spill_merge"} <= names
        # the staging store is dropped once the run owns the data
        assert not list((tmp_path / "svc").glob("store-*"))
        response.spill.cleanup()

    @pytest.mark.filterwarnings("ignore:ingest sketch predicts")
    def test_failed_spill_request_leaves_nothing_behind(self, tmp_path):
        from repro.service import PartitionService

        # 40,000 equal keys overflow any PAD partition; under "raise"
        # the run fails at merge, after store and runs were written
        cfg = PartitionerConfig(num_partitions=16, output_mode=OutputMode.PAD)
        with PartitionService(
            spill_tuples=30_000, spill_dir=tmp_path / "svc"
        ) as service:
            response = service.partition(
                np.zeros(40_000, dtype=np.uint32),
                config=cfg,
                on_overflow="raise",
                timeout=120,
            )
            assert not response.ok
            assert "PartitionOverflowError" in response.error
            assert list((tmp_path / "svc").iterdir()) == []

    def test_spill_disabled_by_default(self):
        from repro.service import PartitionService

        keys = random_keys(5_000, seed=62)
        with PartitionService() as service:
            response = service.partition(keys, timeout=60)
        assert response.backend == "fpga"
        assert response.spill is None


class TestJoinFromSpill:
    def test_hybrid_join_spilled_matches_in_memory(self, tmp_path):
        from repro.join import hybrid_join, hybrid_join_spilled
        from repro.workloads.relations import make_workload

        workload = make_workload("C", scale=4000)
        cfg = PartitionerConfig(num_partitions=32)
        mem = hybrid_join(workload, config=cfg, collect_payloads=True)
        spiller = SpillPartitioner(cfg, max_bytes_in_memory=50_000)
        r_spill = spiller.run(
            RelationStore.ingest(workload.r, tmp_path / "r"),
            tmp_path / "r-run",
        )
        s_spill = spiller.run(
            RelationStore.ingest(workload.s, tmp_path / "s"),
            tmp_path / "s-run",
        )
        joined = hybrid_join_spilled(r_spill, s_spill, collect_payloads=True)
        assert joined.matches == mem.matches
        assert np.array_equal(
            np.sort(joined.r_payloads), np.sort(mem.r_payloads)
        )
        assert joined.timing.partitioner.startswith("spill")

    def test_fanout_mismatch_rejected(self, tmp_path):
        from repro.join import hybrid_join_spilled

        keys = random_keys(2_000, seed=63)
        a = SpillPartitioner(PartitionerConfig(num_partitions=8)).run(
            RelationStore.ingest(keys, tmp_path / "a"), tmp_path / "a-run"
        )
        b = SpillPartitioner(PartitionerConfig(num_partitions=16)).run(
            RelationStore.ingest(keys, tmp_path / "b"), tmp_path / "b-run"
        )
        with pytest.raises(ConfigurationError, match="fan-out"):
            hybrid_join_spilled(a, b)
