"""Shared fixtures for the test suite."""

from __future__ import annotations

import collections

import numpy as np
import pytest

from repro import PartitionerConfig, kernels
from repro.core.modes import HashKind, LayoutMode, OutputMode

needs_native = pytest.mark.skipif(
    not kernels.native_available(), reason="native kernels unavailable"
)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_keys(rng):
    """A few hundred random uint32 keys."""
    return rng.integers(0, 2**32, size=400, dtype=np.uint64).astype(np.uint32)


@pytest.fixture
def small_payloads(small_keys):
    return np.arange(small_keys.shape[0], dtype=np.uint32)


@pytest.fixture
def pad_config():
    """A small PAD/RID configuration suitable for cycle simulation."""
    return PartitionerConfig(
        num_partitions=16,
        output_mode=OutputMode.PAD,
        layout_mode=LayoutMode.RID,
        hash_kind=HashKind.MURMUR,
        pad_tuples=128,
    )


@pytest.fixture
def hist_config():
    return PartitionerConfig(
        num_partitions=16,
        output_mode=OutputMode.HIST,
        layout_mode=LayoutMode.RID,
        hash_kind=HashKind.MURMUR,
    )


@pytest.fixture
def native_calls(monkeypatch):
    """Count every call into the native library, per symbol family."""
    calls = collections.Counter()

    def counted(family, fn):
        def call(*args):
            calls[family] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(kernels, "_lib", {
        family: (
            {dtype: counted(family, fn) for dtype, fn in entry.items()}
            if isinstance(entry, dict) else counted(family, entry)
        )
        for family, entry in kernels._lib.items()
    })
    with kernels.using_backend("native"):
        yield calls


def assert_same_partitions(left_keys, right_keys):
    """Partition contents must agree as multisets."""
    assert len(left_keys) == len(right_keys)
    for p, (a, b) in enumerate(zip(left_keys, right_keys)):
        assert sorted(map(int, a)) == sorted(map(int, b)), f"partition {p}"


def reference_groupby(keys, values, aggregate):
    """Dict-of-lists group-by: the oracle for every partitioned one."""
    out = {}
    for k, v in zip(map(int, keys), map(int, values)):
        out.setdefault(k, []).append(v)
    if aggregate == "sum":
        return {k: sum(v) for k, v in out.items()}
    if aggregate == "count":
        return {k: len(v) for k, v in out.items()}
    if aggregate == "min":
        return {k: min(v) for k, v in out.items()}
    if aggregate == "max":
        return {k: max(v) for k, v in out.items()}
    if aggregate == "mean":
        return {k: sum(v) / len(v) for k, v in out.items()}
    raise AssertionError(aggregate)


def assert_matches_reference_groupby(
    group_keys, group_values, keys, values, aggregate
):
    """Sorted distinct keys, each with the reference aggregate: exact
    for sum/count/min/max, ``approx`` for mean (float division order)."""
    expected = reference_groupby(keys, values, aggregate)
    assert list(map(int, group_keys)) == sorted(expected)
    got = dict(zip(map(int, group_keys), group_values.tolist()))
    if aggregate == "mean":
        assert got == pytest.approx(expected)
    else:
        assert got == expected
