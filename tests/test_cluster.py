"""Tests for the sharded partition cluster (repro.cluster).

Four layers:

1. ring properties — bounded key movement on join/leave, disjoint
   replica sets, seed determinism;
2. placement — heavy-hitter replication spreads hot partitions and
   reduces max/mean shard load under Zipf counts;
3. the router's byte-identity invariant — a hypothesis sweep across
   HIST/PAD x RID/VRID, including an injected shard failure and a
   forced spill handoff inside the property;
4. operational behaviour — failover on a killed shard, rejection ->
   handoff, degradation passthrough, Prometheus shard labels.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.verify import outputs_identical
from repro.cluster import (
    ConsistentHashRing,
    PlacementPolicy,
    ShardNode,
    ShardRouter,
)
from repro.cluster.router import _serving_column
from repro.core.modes import LayoutMode, OutputMode, PartitionerConfig
from repro.core.partitioner import FpgaPartitioner
from repro.core.pieces import piece_config
from repro.errors import ConfigurationError, PartitionOverflowError
from repro.workloads.relations import Relation, make_relation


def _relation(n: int, seed: int = 0, distribution: str = "zipf") -> Relation:
    return make_relation(n, distribution, seed=seed)


def _assert_identical(cluster_out, single_out, num_partitions: int):
    assert cluster_out.num_partitions == num_partitions
    assert outputs_identical(cluster_out, single_out)


# ---------------------------------------------------------------------------
# 1. Consistent-hash ring
# ---------------------------------------------------------------------------


class TestRing:
    def test_every_partition_owned(self):
        ring = ConsistentHashRing(["a", "b", "c"], virtual_nodes=64)
        owners = ring.owners(1024)
        assert owners.shape == (1024,)
        assert set(np.unique(owners)) <= {0, 1, 2}
        # with 64 vnodes each shard owns a nontrivial share
        shares = np.bincount(owners, minlength=3) / 1024
        assert shares.min() > 0.05

    def test_deterministic_under_seed(self):
        a = ConsistentHashRing(["x", "y", "z"], seed=7)
        b = ConsistentHashRing(["x", "y", "z"], seed=7)
        c = ConsistentHashRing(["x", "y", "z"], seed=8)
        assert np.array_equal(a.owners(512), b.owners(512))
        assert not np.array_equal(a.owners(512), c.owners(512))

    def test_join_moves_only_to_new_shard(self):
        P = 4096
        ring = ConsistentHashRing(["s0", "s1", "s2"], virtual_nodes=64)
        before = ring.owners(P).copy()
        before_ids = [ring.shard_ids[i] for i in before]
        ring.add_shard("s3")
        after = ring.owners(P)
        after_ids = [ring.shard_ids[i] for i in after]
        moved = [
            (b, a) for b, a in zip(before_ids, after_ids) if b != a
        ]
        # every move lands on the joining shard...
        assert all(a == "s3" for _, a in moved)
        # ...and the moved fraction is near the ideal 1/4 (within 2x)
        assert len(moved) / P <= 2.0 / 4

    def test_leave_moves_only_from_leaving_shard(self):
        P = 4096
        ring = ConsistentHashRing(
            ["s0", "s1", "s2", "s3"], virtual_nodes=64
        )
        before_ids = [ring.shard_ids[i] for i in ring.owners(P)]
        ring.remove_shard("s1")
        after_ids = [ring.shard_ids[i] for i in ring.owners(P)]
        moved = [
            (b, a) for b, a in zip(before_ids, after_ids) if b != a
        ]
        assert all(b == "s1" for b, _ in moved)
        assert len(moved) / P <= 2.0 / 4

    def test_preference_sets_disjoint(self):
        ring = ConsistentHashRing(["a", "b", "c", "d"], virtual_nodes=32)
        for p in range(128):
            pref = ring.preference(p, 128)
            assert len(pref) == len(set(pref)) == 4
            # primary is first
            assert ring.shard_ids[pref[0]] == ring.owner_of(p, 128)

    def test_refuses_degenerate_rings(self):
        with pytest.raises(ConfigurationError):
            ConsistentHashRing([])
        with pytest.raises(ConfigurationError):
            ConsistentHashRing(["a", "a"])
        ring = ConsistentHashRing(["only"])
        with pytest.raises(ConfigurationError):
            ring.remove_shard("only")


# ---------------------------------------------------------------------------
# 2. Placement
# ---------------------------------------------------------------------------


class TestPlacement:
    def test_hot_partitions_spread(self):
        ring = ConsistentHashRing(["a", "b", "c", "d"], virtual_nodes=64)
        P = 64
        counts = np.ones(P, dtype=np.int64)
        counts[:4] = 10_000  # four heavy partitions
        plain = np.bincount(
            ring.owners(P), weights=counts.astype(np.float64), minlength=4
        )
        policy = PlacementPolicy(replicas=3)
        plan = policy.place(counts, ring)
        placed = np.bincount(
            plan.owner, weights=counts.astype(np.float64), minlength=4
        )
        assert placed.max() <= plain.max()
        assert plan.replicated_partitions >= 0

    def test_zipf_imbalance_reduced(self):
        ring = ConsistentHashRing(
            [f"s{i}" for i in range(4)], virtual_nodes=64
        )
        rel = _relation(200_000, seed=3)
        cfg = PartitionerConfig(num_partitions=64)
        from repro import kernels

        _, counts, _ = kernels.hash_histogram(
            np.ascontiguousarray(rel.keys, dtype=np.uint32),
            64,
            cfg.uses_hash,
        )
        counts = counts.astype(np.int64)
        plain = np.bincount(
            ring.owners(64), weights=counts.astype(np.float64), minlength=4
        )
        plan = PlacementPolicy(replicas=3).place(counts, ring)
        placed = np.bincount(
            plan.owner, weights=counts.astype(np.float64), minlength=4
        )
        assert placed.max() / placed.mean() <= plain.max() / plain.mean()

    def test_clustered_zipf_keys_feed_sketch(self):
        """Regression: the sketch sample must not alias with run-length-
        clustered input.

        The old strided sampler (``keys[::stride]``) drew only stream
        positions congruent to 0 mod stride; with hot-key runs laid out
        off that grid it never saw the dominant key at all.  A seeded
        uniform sample sees it in proportion to its true share.
        """
        from repro.cluster.placement import _SKETCH_SAMPLE

        rng = np.random.default_rng(11)
        stride = 16  # what a strided sampler uses at this input size
        n = _SKETCH_SAMPLE * stride
        # One dominant key (~15/16 of the stream) in long runs, with
        # run-length-clustered Zipf cold keys sitting exactly on the
        # stride grid — the adversarial layout for strided sampling.
        keys = np.full(n, 7, dtype=np.uint32)
        cold = np.sort(
            (rng.zipf(1.5, size=n // stride) % 50_000 + 1_000).astype(
                np.uint32
            )
        )
        keys[::stride] = cold
        policy = PlacementPolicy(replicas=2, sketch_capacity=8)
        policy.observe_keys(keys)
        counters = policy.sketch.counters
        assert counters, "sketch saw no keys"
        top = max(counters, key=counters.get)
        assert top == 7
        assert counters[7] / _SKETCH_SAMPLE > 0.5

    def test_sketch_sampling_is_seed_deterministic(self):
        keys = np.random.default_rng(2).integers(
            0, 1 << 20, size=200_000
        ).astype(np.uint32)
        a = PlacementPolicy(sample_seed=42)
        b = PlacementPolicy(sample_seed=42)
        a.observe_keys(keys)
        b.observe_keys(keys)
        assert a.sketch.counters == b.sketch.counters


# ---------------------------------------------------------------------------
# 3. Byte-identity property
# ---------------------------------------------------------------------------


MODES = [
    (OutputMode.HIST, LayoutMode.RID),
    (OutputMode.HIST, LayoutMode.VRID),
    (OutputMode.PAD, LayoutMode.RID),
    (OutputMode.PAD, LayoutMode.VRID),
]


class TestByteIdentity:
    @pytest.mark.parametrize("output_mode,layout_mode", MODES)
    def test_all_modes_identical(self, output_mode, layout_mode):
        cfg = PartitionerConfig(
            num_partitions=32,
            output_mode=output_mode,
            layout_mode=layout_mode,
        )
        rel = _relation(30_000, seed=5)
        single = FpgaPartitioner(cfg).partition(rel, on_overflow="hist")
        with ShardRouter(3, seed=1) as router:
            resp = router.partition(rel, config=cfg, on_overflow="hist")
        assert resp.ok
        assert resp.output.produced_by == "cluster"
        _assert_identical(resp.output, single, 32)

    @settings(max_examples=12, deadline=None)
    @given(
        mode=st.sampled_from(MODES),
        n=st.integers(min_value=64, max_value=8_000),
        seed=st.integers(min_value=0, max_value=2**16),
        distribution=st.sampled_from(["random", "zipf", "linear"]),
        kill=st.booleans(),
        handoff=st.booleans(),
    )
    def test_identity_survives_failure_and_handoff(
        self, mode, n, seed, distribution, kill, handoff
    ):
        output_mode, layout_mode = mode
        cfg = PartitionerConfig(
            num_partitions=16,
            output_mode=output_mode,
            layout_mode=layout_mode,
        )
        rel = make_relation(n, distribution, seed=seed)
        single = FpgaPartitioner(cfg).partition(rel, on_overflow="hist")
        router = ShardRouter(
            3,
            seed=seed % 4,
            handoff_tuples=max(8, n // 6) if handoff else None,
        )
        with router:
            if kill:
                router.kill_shard(router.nodes[seed % 3].shard_id)
            resp = router.partition(rel, config=cfg, on_overflow="hist")
            assert resp.ok, resp.error
            # handoff-served columns are readable until stop()
            _assert_identical(resp.output, single, 16)
        if handoff:
            assert resp.handoffs >= 1

    def test_explicit_payloads_identical(self):
        cfg = PartitionerConfig(num_partitions=16)
        rng = np.random.default_rng(9)
        keys = rng.integers(0, 2**32, size=5000, dtype=np.uint64).astype(
            np.uint32
        )
        pays = np.arange(5000, dtype=np.uint32) * 3
        single = FpgaPartitioner(cfg).partition(keys, payloads=pays)
        with ShardRouter(2, seed=0) as router:
            resp = router.partition(keys, payloads=pays, config=cfg)
        assert resp.ok
        _assert_identical(resp.output, single, 16)


# ---------------------------------------------------------------------------
# 4. Overflow policies
# ---------------------------------------------------------------------------


def _skewed_relation(n: int = 16_000) -> Relation:
    return Relation(
        keys=np.zeros(n, dtype=np.uint32),
        payloads=np.arange(n, dtype=np.uint32),
        tuple_bytes=8,
        name="all-one-key",
    )


class TestOverflow:
    def test_raise_policy(self):
        cfg = PartitionerConfig(
            num_partitions=32, output_mode=OutputMode.PAD
        )
        with ShardRouter(3, seed=1) as router:
            with pytest.raises(PartitionOverflowError):
                router.partition(
                    _skewed_relation(), config=cfg, on_overflow="raise"
                )

    def test_hist_downgrade_matches_single_node(self):
        cfg = PartitionerConfig(
            num_partitions=32, output_mode=OutputMode.PAD
        )
        rel = _skewed_relation()
        single = FpgaPartitioner(cfg).partition(rel, on_overflow="hist")
        with ShardRouter(3, seed=1) as router:
            resp = router.partition(rel, config=cfg, on_overflow="hist")
        assert resp.ok
        assert resp.output.config.output_mode is OutputMode.HIST
        _assert_identical(resp.output, single, 32)

    def test_cpu_fallback_matches_single_node(self):
        cfg = PartitionerConfig(
            num_partitions=32, output_mode=OutputMode.PAD
        )
        rel = _skewed_relation()
        single = FpgaPartitioner(cfg).partition(rel, on_overflow="cpu")
        with ShardRouter(3, seed=1) as router:
            resp = router.partition(rel, config=cfg, on_overflow="cpu")
        assert resp.ok
        assert resp.degraded
        assert resp.output.fell_back_to_cpu
        _assert_identical(resp.output, single, 32)


# ---------------------------------------------------------------------------
# 5. Failover, handoff, operations
# ---------------------------------------------------------------------------


class TestFailover:
    def test_killed_shard_routes_around(self):
        cfg = PartitionerConfig(num_partitions=32)
        rel = _relation(20_000, seed=2)
        single = FpgaPartitioner(cfg).partition(rel, on_overflow="hist")
        with ShardRouter(3, seed=1) as router:
            victim = router.nodes[1].shard_id
            router.kill_shard(victim)
            resp = router.partition(rel, config=cfg)
            assert resp.ok
            _assert_identical(resp.output, single, 32)
            assert victim not in set(
                s for s in resp.shard_of_partition if s
            )

    def test_kill_between_requests(self):
        cfg = PartitionerConfig(num_partitions=32)
        rel = _relation(20_000, seed=4)
        single = FpgaPartitioner(cfg).partition(rel, on_overflow="hist")
        with ShardRouter(3, seed=2) as router:
            first = router.partition(rel, config=cfg)
            assert first.ok
            router.kill_shard(router.nodes[0].shard_id)
            second = router.partition(rel, config=cfg)
            assert second.ok
            _assert_identical(second.output, single, 32)

    def test_all_shards_dead_fails_cleanly(self):
        cfg = PartitionerConfig(num_partitions=16)
        rel = _relation(1_000, seed=1)
        with ShardRouter(2, seed=0) as router:
            for node in router.nodes:
                router.kill_shard(node.shard_id)
            resp = router.partition(rel, config=cfg)
            assert not resp.ok
            assert resp.error is not None

    def test_rejection_triggers_handoff(self):
        # shard "tiny" rejects every admission (its queue reports full),
        # so its slice comes back REJECTED; the router must hand the
        # slice off to a peer's storage instead of failing the request
        nodes = [ShardNode("tiny"), ShardNode("big-0"), ShardNode("big-1")]
        cfg = PartitionerConfig(num_partitions=32)
        rel = _relation(20_000, seed=6)
        single = FpgaPartitioner(cfg).partition(rel, on_overflow="hist")
        with ShardRouter(nodes, seed=1) as router:
            tiny = router.node("tiny")
            tiny.service.queue.offer = lambda *a, **kw: False
            resp = router.partition(rel, config=cfg)
            assert resp.ok
            assert resp.handoffs >= 1
            assert "handoff" in resp.backends
            _assert_identical(resp.output, single, 32)
            assert router.node("tiny").stats.rejections >= 1

    def test_handoff_threshold_spills_to_peer(self):
        cfg = PartitionerConfig(num_partitions=32)
        rel = _relation(20_000, seed=7)
        single = FpgaPartitioner(cfg).partition(rel, on_overflow="hist")
        with ShardRouter(3, seed=1, handoff_tuples=64) as router:
            resp = router.partition(rel, config=cfg)
            assert resp.ok
            assert resp.handoffs >= 1
            _assert_identical(resp.output, single, 32)
            snap = router.snapshot()
            total_in = sum(
                s["shard"]["handoffs_in"]
                for s in snap["shards"].values()
            )
            assert total_in == resp.handoffs

    def test_failed_handoff_leaves_nothing_on_the_peer(self, tmp_path):
        import types

        from repro.cluster.handoff import SpillHandoff

        def node(name):
            return types.SimpleNamespace(
                shard_id=name,
                storage_root=tmp_path / name,
                stats=types.SimpleNamespace(handoffs_in=0, handoffs_out=0),
            )

        donor, peer = node("donor"), node("peer")
        peer.storage_root.mkdir()
        # not a piece config on purpose: equal keys overflow PAD at the
        # merge, after the staging store and the runs were written
        cfg = PartitionerConfig(num_partitions=16, output_mode=OutputMode.PAD)
        keys = np.zeros(40_000, dtype=np.uint32)
        with pytest.raises(PartitionOverflowError):
            SpillHandoff().execute(donor, peer, keys, keys, cfg)
        assert list(peer.storage_root.iterdir()) == []
        assert peer.stats.handoffs_in == 0

    def test_stop_removes_self_created_storage(self, tmp_path):
        # regression: every default-rooted router/node used to leave a
        # /tmp/repro-cluster-* or /tmp/repro-shard-* directory behind
        import glob
        import os
        import tempfile

        def leftovers():
            pattern = os.path.join(tempfile.gettempdir(), "repro-*-*")
            return set(glob.glob(pattern))

        before = leftovers()
        cfg = PartitionerConfig(num_partitions=32)
        rel = _relation(20_000, seed=7)
        with ShardRouter(3, seed=1, handoff_tuples=64) as router:
            resp = router.partition(rel, config=cfg)
            assert resp.handoffs >= 1
            assert leftovers() - before  # handoff runs live there
        assert leftovers() == before
        node = ShardNode("solo").start()
        assert node.storage_root.is_dir()
        node.stop()
        assert leftovers() == before
        # a caller-supplied root is the caller's to remove
        with ShardRouter(2, storage_root=tmp_path / "mine") as router:
            assert router.partition(rel, config=cfg).ok
        assert (tmp_path / "mine").is_dir()

    def test_degradation_passthrough(self):
        from repro.service import DegradationPolicy, FaultInjector

        cfg = PartitionerConfig(num_partitions=16)
        rel = _relation(10_000, seed=8)
        single = FpgaPartitioner(cfg).partition(rel, on_overflow="hist")
        nodes = [
            ShardNode(
                f"s{i}",
                service_kwargs={
                    "policy": DegradationPolicy(
                        fault_injector=FaultInjector(
                            fail_rate=1.0, seed=i
                        )
                    )
                },
            )
            for i in range(2)
        ]
        with ShardRouter(nodes, seed=0) as router:
            resp = router.partition(rel, config=cfg)
        assert resp.ok
        # every shard fell back to CPU; output must still be identical
        assert resp.degraded
        assert resp.degrade_reasons
        _assert_identical(resp.output, single, 16)


class TestObservability:
    def test_prometheus_shard_labels(self):
        cfg = PartitionerConfig(num_partitions=16)
        with ShardRouter(2, seed=3) as router:
            router.partition(_relation(5_000, seed=1), config=cfg)
            page = router.prometheus()
        assert 'shard="shard-0"' in page
        assert 'shard="shard-1"' in page
        assert "repro_cluster_requests_total 1" in page
        assert "repro_cluster_completed_total 1" in page

    def test_snapshot_shape(self):
        with ShardRouter(2, seed=3) as router:
            router.partition(
                _relation(5_000, seed=1),
                config=PartitionerConfig(num_partitions=16),
            )
            snap = router.snapshot()
        assert snap["router"]["requests"] == 1
        assert snap["ring"]["shards"] == ["shard-0", "shard-1"]
        for shard in snap["shards"].values():
            assert shard["shard"]["alive"] in (True, False)

    def test_cluster_spans_emitted(self):
        from repro.obs import Tracer

        tracer = Tracer()
        cfg = PartitionerConfig(num_partitions=16)
        with ShardRouter(2, seed=0, tracer=tracer) as router:
            router.partition(_relation(4_000, seed=2), config=cfg)
        names = {span.name for span in tracer.export()}
        assert "cluster.partition" in names
        assert "cluster.route" in names
        assert "cluster.assemble" in names


class TestClusterColumn:
    def test_dispatch_and_overrides(self):
        col = _serving_column(
            [None, {1: np.array([5, 6], dtype=np.uint32)}]
        )
        assert len(col) == 2
        assert col[0].shape == (0,)
        assert np.array_equal(col[1], [5, 6])
        col[1] = np.array([9], dtype=np.uint32)
        assert np.array_equal(col[1], [9])
        assert np.array_equal(col[-1], [9])
        with pytest.raises(IndexError):
            col[2]


class TestShardConfig:
    def test_clone_is_hist_rid(self):
        cfg = PartitionerConfig(
            num_partitions=128,
            output_mode=OutputMode.PAD,
            layout_mode=LayoutMode.VRID,
        )
        clone = piece_config(cfg)
        assert clone.output_mode is OutputMode.HIST
        assert clone.layout_mode is LayoutMode.RID
        assert clone.num_partitions == cfg.num_partitions
        assert clone.uses_hash == cfg.uses_hash
