"""Tests for the Section 6 operator extension (repro.ops)."""

import numpy as np
import pytest

from repro.core.modes import HashKind, PartitionerConfig
from repro.errors import ConfigurationError
from repro.ops import partitioned_groupby
from repro.workloads.relations import make_relation
from tests.conftest import reference_groupby


class TestGroupBy:
    @pytest.fixture
    def data(self, rng):
        keys = rng.integers(0, 50, size=2000, dtype=np.uint64).astype(
            np.uint32
        )
        values = rng.integers(1, 100, size=2000, dtype=np.uint64).astype(
            np.uint32
        )
        return keys, values

    @pytest.mark.parametrize(
        "aggregate", ["sum", "count", "min", "max", "mean"]
    )
    def test_matches_reference(self, data, aggregate):
        keys, values = data
        result = partitioned_groupby(
            keys, values, aggregate=aggregate, num_partitions=16
        )
        expected = reference_groupby(keys, values, aggregate)
        assert result.num_groups == len(expected)
        for k, v in result.as_dict().items():
            assert v == pytest.approx(expected[k])

    def test_keys_sorted(self, data):
        keys, values = data
        result = partitioned_groupby(keys, values, num_partitions=16)
        assert np.all(np.diff(result.keys.astype(np.int64)) > 0)

    def test_count_defaults_values(self, data):
        keys, _ = data
        result = partitioned_groupby(
            keys, aggregate="count", num_partitions=16
        )
        assert int(result.values.sum()) == keys.shape[0]

    def test_relation_input(self):
        rel = make_relation(1000, "random", seed=1)
        result = partitioned_groupby(rel, aggregate="count",
                                     num_partitions=16)
        assert int(result.values.sum()) == 1000

    def test_custom_partitioner(self, data):
        keys, values = data
        result = partitioned_groupby(
            keys,
            values,
            config=PartitionerConfig(
                num_partitions=64, hash_kind=HashKind.RADIX
            ),
        )
        assert result.num_partitions_used == 64
        expected = reference_groupby(keys, values, "sum")
        assert result.as_dict() == expected

    def test_unknown_aggregate(self, data):
        keys, values = data
        with pytest.raises(ConfigurationError):
            partitioned_groupby(keys, values, aggregate="median")

    def test_mismatched_values(self, data):
        keys, _ = data
        with pytest.raises(ConfigurationError):
            partitioned_groupby(keys, np.zeros(3, dtype=np.uint32))

    def test_sum_preserved_globally(self, data):
        keys, values = data
        result = partitioned_groupby(keys, values, num_partitions=32)
        assert int(result.values.sum()) == int(values.sum(dtype=np.int64))

