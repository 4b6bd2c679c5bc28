"""Native kernels: byte-identity with NumPy, dispatch, zero-copy plane.

The contract of :mod:`repro.kernels` is that the compiled backend is a
pure speedup — for every primitive and every partitioner mode, the
bytes that come out are exactly the bytes the NumPy fallback produces.
These tests pin that contract:

1. primitive-level property tests (hypothesis): ``hash_histogram``,
   ``stable_scatter``, ``swwc_scatter``, ``partition_batch``, the
   bucket join, ``join_aggregate`` and ``sort_groups`` agree between
   backends for arbitrary inputs, fan-outs and partition-index dtypes;
2. partitioner-level property tests: ``FpgaPartitioner`` output is
   byte-identical across backends for HIST/PAD x RID/VRID x hash kind,
   and ``partition_many`` equals per-request ``partition()`` under
   every overflow policy;
3. dispatch behaviour: the env switch, forced-native failure mode, the
   per-call dtype fallback (eligible inputs never reach the twin), and
   the fan-out / lane rules both backends enforce;
4. zero-copy assertions: partition views share memory with the single
   backing column all the way through the service resolve path.

The native-vs-numpy tests skip cleanly when no C compiler is available
(the numpy backend is then the only backend, and trivially agrees with
itself).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.analysis.verify import outputs_identical
from repro.core.modes import (
    HashKind,
    LayoutMode,
    OutputMode,
    PartitionerConfig,
)
from repro.core.partitioner import FpgaPartitioner, PartitionSlices
from repro.errors import ConfigurationError, PartitionOverflowError
from repro.exec.engine import ExecutionEngine
from repro.kernels import numpy_impl, parts_dtype

NATIVE = kernels.native_available()
needs_native = pytest.mark.skipif(
    not NATIVE, reason="native kernels unavailable (no C compiler?)"
)

key_arrays = st.lists(
    st.integers(min_value=0, max_value=2**32 - 1), min_size=0, max_size=200
).map(lambda xs: np.array(xs, dtype=np.uint32))


def _both_backends(fn):
    """Run ``fn()`` under each backend, return the two results."""
    with kernels.using_backend("native"):
        native = fn()
    with kernels.using_backend("numpy"):
        fallback = fn()
    return native, fallback


# ---------------------------------------------------------------------------
# 1. Primitive-level byte identity


@needs_native
@given(
    keys=key_arrays,
    num_partitions=st.sampled_from([2, 256, 1024, 1 << 17]),
    use_hash=st.booleans(),
    lanes=st.sampled_from([None, 1, 8]),
    offset=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=60, deadline=None)
def test_hash_histogram_native_equals_numpy(
    keys, num_partitions, use_hash, lanes, offset
):
    def run():
        parts = np.empty(keys.shape[0], dtype=parts_dtype(num_partitions))
        return kernels.hash_histogram(
            keys,
            num_partitions,
            use_hash,
            lanes=lanes,
            global_offset=offset,
            parts_out=parts,
        )

    native, fallback = _both_backends(run)
    assert np.array_equal(native[0], fallback[0])  # partition indices
    assert np.array_equal(native[1], fallback[1])  # histogram
    if lanes is None:
        assert native[2] is None and fallback[2] is None
    else:
        assert np.array_equal(native[2], fallback[2])  # lane histogram
    assert int(native[1].sum()) == keys.shape[0]


@needs_native
@given(
    keys=key_arrays,
    num_partitions=st.sampled_from([2, 256, 1024, 1 << 17]),
    use_hash=st.booleans(),
    buffer_tuples=st.sampled_from([1, 3, 16]),
    threads=st.sampled_from([1, 2, 5]),
)
@settings(max_examples=60, deadline=None)
def test_scatters_native_equals_numpy(
    keys, num_partitions, use_hash, buffer_tuples, threads
):
    """stable_scatter and swwc_scatter: same bytes on both backends,
    and byte-identical to each other (buffering must only change the
    write schedule, never the destination slots) — including the
    multi-threaded SWWC flush, whose per-thread partition ownership
    must not perturb a single byte."""
    n = keys.shape[0]
    payloads = np.arange(n, dtype=np.uint32)
    parts = np.empty(n, dtype=parts_dtype(num_partitions))
    _, hist, _ = kernels.hash_histogram(
        keys, num_partitions, use_hash, parts_out=parts
    )
    dest_base = np.zeros(num_partitions, dtype=np.int64)
    np.cumsum(hist[:-1], out=dest_base[1:])

    def run(primitive, extra, **kwargs):
        out_keys = np.empty(n, dtype=np.uint32)
        out_payloads = np.empty(n, dtype=np.uint32)
        primitive(
            keys, payloads, parts, dest_base, num_partitions,
            *extra, out_keys, out_payloads, **kwargs,
        )
        return out_keys, out_payloads

    plain_native, plain_numpy = _both_backends(
        lambda: run(kernels.stable_scatter, ())
    )
    swwc_native, swwc_numpy = _both_backends(
        lambda: run(kernels.swwc_scatter, (buffer_tuples,))
    )
    swwc_mt_native, swwc_mt_numpy = _both_backends(
        lambda: run(kernels.swwc_scatter, (buffer_tuples,), threads=threads)
    )
    reference = plain_numpy
    for label, got in [
        ("scatter/native", plain_native),
        ("swwc/native", swwc_native),
        ("swwc/numpy", swwc_numpy),
        (f"swwc-mt{threads}/native", swwc_mt_native),
        (f"swwc-mt{threads}/numpy", swwc_mt_numpy),
    ]:
        assert np.array_equal(got[0], reference[0]), label
        assert np.array_equal(got[1], reference[1]), label
    # the scatter is a permutation: nothing lost, nothing invented
    assert np.array_equal(np.sort(reference[0]), np.sort(keys))


@st.composite
def _grouped_scatter_cases(draw):
    """A partition-index column of any library dtype (P from 2 to 2^13,
    ``uint8`` only where it fits) and a map onto 1–5 groups, some of
    which may receive no partition."""
    dtype = draw(st.sampled_from([np.uint8, np.uint16, np.int64]))
    max_bits = 8 if dtype is np.uint8 else 13
    num_partitions = 1 << draw(st.integers(1, max_bits))
    num_groups = draw(st.integers(1, 5))
    groups = np.array(
        draw(st.lists(
            st.integers(0, num_groups - 1),
            min_size=num_partitions, max_size=num_partitions,
        )),
        dtype=np.int64,
    )
    keys = draw(key_arrays)
    parts = (keys & np.uint32(num_partitions - 1)).astype(dtype)
    return keys, parts, groups, num_groups


@needs_native
@given(case=_grouped_scatter_cases())
@settings(max_examples=60, deadline=None)
def test_grouped_scatter_native_equals_numpy_equals_mapped_parts(case):
    """``stable_scatter(..., groups=m)`` writes the bytes of a plain
    stable scatter over the per-tuple column ``m[parts]`` — on both
    backends, for every index dtype, unmapped groups and empty
    morsels included."""
    keys, parts, groups, num_groups = case
    n = keys.shape[0]
    payloads = np.arange(n, dtype=np.uint32)
    mapped = groups[parts]
    dest_base = np.zeros(num_groups, dtype=np.int64)
    np.cumsum(
        np.bincount(mapped, minlength=num_groups)[:-1], out=dest_base[1:]
    )

    def run(index, **kwargs):
        out = (np.empty(n, dtype=np.uint32), np.empty(n, dtype=np.uint32))
        kernels.stable_scatter(
            keys, payloads, index, dest_base, num_groups, *out, **kwargs
        )
        return out

    native, fallback = _both_backends(lambda: run(parts, groups=groups))
    with kernels.using_backend("native"):
        reference = run(mapped)
    order = np.argsort(mapped, kind="stable")
    for got in (native, fallback, reference):
        assert np.array_equal(got[0], keys[order])
        assert np.array_equal(got[1], payloads[order])


def test_grouped_scatter_twin_sorts_one_byte_per_tuple(monkeypatch):
    """The NumPy twin of the grouped scatter stable-sorts the per-tuple
    group column; cast to the groups' :func:`parts_dtype` first, that
    is a 1 B/tuple radix sort, not an ``int64`` one."""
    keys = np.random.default_rng(8).integers(0, 2**32, 5_000, np.uint64)
    keys = keys.astype(np.uint32)
    parts, _, _ = kernels.hash_histogram(keys, 256, True)
    groups = (np.arange(256) % 3).astype(np.int64)
    dest_base = np.zeros(3, dtype=np.int64)
    np.cumsum(np.bincount(groups[parts], minlength=3)[:-1], out=dest_base[1:])
    sorted_dtypes = []
    scatter = numpy_impl.scatter
    monkeypatch.setattr(
        numpy_impl, "scatter",
        lambda k, p, index, *rest: sorted_dtypes.append(index.dtype)
        or scatter(k, p, index, *rest),
    )
    out = (np.empty(5_000, np.uint32), np.empty(5_000, np.uint32))
    with kernels.using_backend("numpy"):
        kernels.stable_scatter(
            keys, keys, parts, dest_base, 3, *out, groups=groups
        )
    assert sorted_dtypes == [np.dtype(np.uint8)]
    order = np.argsort(groups[parts], kind="stable")
    assert np.array_equal(out[0], keys[order])


@pytest.mark.parametrize("groups", [[0, 2, 1, 0], [0, -1, 1, 0]])
def test_grouped_scatter_rejects_groups_outside_dest_base(groups):
    """A group without a ``dest_base`` slot would send the C cursor
    outside its array: refused before either backend runs."""
    keys = np.arange(8, dtype=np.uint32)
    parts = (keys % 4).astype(np.uint8)
    out = (np.empty(8, dtype=np.uint32), np.empty(8, dtype=np.uint32))
    with pytest.raises(ConfigurationError):
        kernels.stable_scatter(
            keys, keys, parts, np.array([0, 4]), 2, *out,
            groups=np.array(groups),
        )


@needs_native
@given(
    build_keys=st.lists(
        st.integers(min_value=0, max_value=50), min_size=1, max_size=200
    ).map(lambda xs: np.array(xs, dtype=np.uint32)),
    probe_keys=st.lists(
        st.integers(min_value=0, max_value=50), min_size=0, max_size=300
    ).map(lambda xs: np.array(xs, dtype=np.uint32)),
    num_buckets=st.sampled_from([1, 2, 16, 256]),
)
@settings(max_examples=40, deadline=None)
def test_bucket_join_native_equals_numpy(build_keys, probe_keys, num_buckets):
    # Tiny key range on purpose: duplicates and bucket collisions are
    # the interesting cases for chain construction and emission order.
    (heads_n, nxt_n), (heads_f, nxt_f) = _both_backends(
        lambda: kernels.bucket_build(build_keys, num_buckets)
    )
    assert np.array_equal(heads_n, heads_f)
    assert np.array_equal(nxt_n, nxt_f)

    def probe():
        heads, nxt = kernels.bucket_build(build_keys, num_buckets)
        return kernels.bucket_probe(
            build_keys, heads, nxt, num_buckets, probe_keys
        )

    (p_n, b_n, hops_n), (p_f, b_f, hops_f) = _both_backends(probe)
    # probe-major emission order and hop count are backend-invariant
    assert np.array_equal(p_n, p_f)
    assert np.array_equal(b_n, b_f)
    assert hops_n == hops_f
    # every emitted pair really matches; the full pair set is exactly
    # the cross product of equal keys
    assert np.array_equal(build_keys[b_n], probe_keys[p_n])
    expected = sum(
        int((build_keys == key).sum()) for key in probe_keys.tolist()
    )
    assert p_n.shape[0] == expected


AGGREGATES = ("sum", "count", "min", "max", "mean")

#: one partition: (build keys, probe keys), each possibly empty; a tiny
#: key space so duplicate build keys and partitions without matches
#: are common
_partition_pairs = st.lists(
    st.tuples(
        st.lists(st.integers(0, 12), max_size=25),
        st.lists(st.integers(0, 12), max_size=40),
    ),
    min_size=1,
    max_size=6,
)


def _columns(parts_keys, seed):
    """Concatenated keys, random uint32 values and boundary prefix sums
    of per-partition key lists."""
    keys = np.array([k for part in parts_keys for k in part], dtype=np.uint32)
    values = np.random.default_rng(seed).integers(
        0, 2**32, size=keys.shape[0], dtype=np.uint64
    ).astype(np.uint32)
    bounds = np.zeros(len(parts_keys) + 1, dtype=np.int64)
    np.cumsum([len(part) for part in parts_keys], out=bounds[1:])
    return keys, values, bounds


def _reference_join_aggregate(r, s, p0, p1, aggregate, value_side):
    """Dict-free scalar oracle: per partition, one row per matched
    build tuple in build order."""
    (r_keys, r_values, r_bounds), (s_keys, s_values, s_bounds) = r, s
    rows = []
    for p in range(p0, p1):
        probe = range(s_bounds[p], s_bounds[p + 1])
        for i in range(r_bounds[p], r_bounds[p + 1]):
            hits = [j for j in probe if s_keys[j] == r_keys[i]]
            if not hits:
                continue
            if value_side == "s":
                values = [int(s_values[j]) for j in hits]
            else:
                values = [int(r_values[i])] * len(hits)
            value = {
                "sum": sum(values), "mean": sum(values), "count": len(hits),
                "min": min(values), "max": max(values),
            }[aggregate]
            rows.append((int(r_keys[i]), value, len(hits)))
    return rows


@needs_native
@given(
    r_parts=_partition_pairs,
    seed=st.integers(0, 2**16),
    aggregate=st.sampled_from(AGGREGATES),
    value_side=st.sampled_from(["r", "s"]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_join_aggregate_native_equals_numpy(
    r_parts, seed, aggregate, value_side, data
):
    """Native kernel ≡ twin ≡ a scalar oracle over a random partition
    range, with duplicate build keys, empty partitions and partitions
    without matches."""
    num_partitions = len(r_parts)
    r = _columns([build for build, _ in r_parts], seed)
    s = _columns([probe for _, probe in r_parts], seed + 1)
    p0 = data.draw(st.integers(0, num_partitions))
    p1 = data.draw(st.integers(p0, num_partitions))
    capacity = int(r[2][p1] - r[2][p0])

    def run():
        out = (
            np.empty(capacity, dtype=np.uint32),
            np.empty(capacity, dtype=np.int64),
            np.empty(capacity, dtype=np.int64),
        )
        rows, matches = kernels.join_aggregate(
            *r, *s, p0, p1, aggregate, value_side, *out
        )
        return rows, matches, [column[:rows] for column in out]

    (rows, matches, got), (rows_f, matches_f, want) = _both_backends(run)
    assert (rows, matches) == (rows_f, matches_f)
    for ours, reference in zip(got, want):
        assert ours.dtype == reference.dtype
        assert np.array_equal(ours, reference)
    expected = _reference_join_aggregate(r, s, p0, p1, aggregate, value_side)
    assert list(zip(*(column.tolist() for column in got))) == expected
    assert matches == sum(count for _, _, count in expected)


@needs_native
@given(
    keys=st.lists(st.integers(0, 2**32 - 1), max_size=300),
    duplicates=st.integers(1, 40),
    aggregate=st.sampled_from(AGGREGATES),
    with_counts=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_sort_groups_native_equals_numpy(
    keys, duplicates, aggregate, with_counts, seed
):
    """In-place radix sort + fold ≡ stable argsort + reduceat ≡ a dict
    oracle, for keys spanning every radix digit and keys that repeat."""
    rng = np.random.default_rng(seed)
    keys = np.array(keys, dtype=np.uint32) // np.uint32(duplicates)
    values = rng.integers(-(2**40), 2**40, size=keys.shape[0])
    counts = rng.integers(1, 9, size=keys.shape[0]) if with_counts else None

    def run():
        columns = [keys.copy(), values.copy()]
        columns.append(None if counts is None else counts.copy())
        groups = kernels.sort_groups(*columns[:2], aggregate, columns[2])
        return [None if c is None else c[:groups] for c in columns]

    native, fallback = _both_backends(run)
    for ours, reference in zip(native, fallback):
        if reference is None:
            assert ours is None
            continue
        assert ours.dtype == reference.dtype
        assert np.array_equal(ours, reference)
    fold = {"min": min, "max": max}.get(aggregate, sum)
    expected = {}
    for key, value in zip(keys.tolist(), values.tolist()):
        expected.setdefault(key, []).append(value)
    assert native[0].tolist() == sorted(expected)
    assert native[1].tolist() == [fold(expected[k]) for k in sorted(expected)]
    if with_counts:
        totals = {}
        for key, count in zip(keys.tolist(), counts.tolist()):
            totals[key] = totals.get(key, 0) + count
        assert native[2].tolist() == [totals[k] for k in sorted(totals)]


@needs_native
def test_swwc_mt_flush_large_input_byte_identical():
    """A bulk-sized MT flush (multiple full buffers per partition and a
    partial drain each) matches the serial flush and the plain scatter
    for every thread count, including thread counts above the fan-out."""
    rng = np.random.default_rng(21)
    n, num_partitions, buffer_tuples = 300_000, 96, 8
    keys = rng.integers(0, 2**32, size=n, dtype=np.uint64).astype(np.uint32)
    payloads = rng.integers(0, 2**31, size=n, dtype=np.uint64).astype(
        np.uint32
    )
    # a scatter takes any positive fan-out, but hash_histogram only
    # powers of two: index the 96 partitions by key mod 96
    parts = (keys % num_partitions).astype(parts_dtype(num_partitions))
    hist = np.bincount(parts, minlength=num_partitions)
    with kernels.using_backend("native"):
        dest_base = np.zeros(num_partitions, dtype=np.int64)
        np.cumsum(hist[:-1], out=dest_base[1:])
        ref_keys = np.empty(n, dtype=np.uint32)
        ref_payloads = np.empty(n, dtype=np.uint32)
        kernels.stable_scatter(
            keys, payloads, parts, dest_base, num_partitions,
            ref_keys, ref_payloads,
        )
        for threads in (1, 2, 4, 96, 200):
            out_keys = np.empty(n, dtype=np.uint32)
            out_payloads = np.empty(n, dtype=np.uint32)
            kernels.swwc_scatter(
                keys, payloads, parts, dest_base, num_partitions,
                buffer_tuples, out_keys, out_payloads, threads=threads,
            )
            assert np.array_equal(out_keys, ref_keys), threads
            assert np.array_equal(out_payloads, ref_payloads), threads


@needs_native
def test_swwc_partition_threads_match_engine_arrangement():
    """swwc_partition with the MT native flush produces the exact bytes
    of the numpy backend at the same thread count (the per-thread chunk
    arrangement is part of the contract, so thread counts must agree)."""
    from repro.cpu.swwc_buffers import swwc_partition

    rng = np.random.default_rng(22)
    keys = rng.integers(0, 2**32, size=120_000, dtype=np.uint64).astype(
        np.uint32
    )
    payloads = np.arange(keys.shape[0], dtype=np.uint32)
    for threads in (2, 4):
        with kernels.using_backend("native"):
            nat = swwc_partition(
                keys, payloads, 64, use_hash=True, threads=threads
            )
        with kernels.using_backend("numpy"):
            ref = swwc_partition(
                keys, payloads, 64, use_hash=True, threads=threads
            )
        assert np.array_equal(nat[2], ref[2])
        for a, b in zip(nat[0], ref[0]):
            assert np.array_equal(a, b)
        for a, b in zip(nat[1], ref[1]):
            assert np.array_equal(a, b)


@needs_native
def test_scatter_does_not_mutate_dest_base():
    keys = np.arange(64, dtype=np.uint32)
    payloads = keys.copy()
    parts = (keys % 4).astype(np.uint8)
    dest_base = np.array([0, 16, 32, 48], dtype=np.int64)
    snapshot = dest_base.copy()
    out = np.empty(64, dtype=np.uint32)
    for backend in ("native", "numpy"):
        with kernels.using_backend(backend):
            kernels.stable_scatter(
                keys, payloads, parts, dest_base, 4, out, out.copy()
            )
            assert np.array_equal(dest_base, snapshot), backend


#: request sizes a batch mixes: empty, one tuple, around the lane and
#: prefetch-distance boundaries, and a few lines' worth
batch_sizes = st.lists(
    st.one_of(
        st.sampled_from([0, 1, 7, 8, 9, 23, 24, 25]),
        st.integers(min_value=0, max_value=300),
    ),
    min_size=1,
    max_size=6,
)


def _batch_columns(sizes, seed):
    rng = np.random.default_rng(seed)
    return [
        (
            rng.integers(0, 2**32, size=n, dtype=np.uint64).astype(np.uint32),
            rng.integers(0, 2**31, size=n, dtype=np.uint64).astype(np.uint32),
        )
        for n in sizes
    ]


@needs_native
@given(
    sizes=batch_sizes,
    num_partitions=st.sampled_from([2, 64, 1024, 8192, 1 << 17]),
    use_hash=st.booleans(),
    lanes=st.sampled_from([1, 2, 8]),
)
@settings(max_examples=60, deadline=None)
def test_partition_batch_native_equals_numpy_equals_solo(
    sizes, num_partitions, use_hash, lanes
):
    """The fused batch kernel, its NumPy twin, and one
    ``hash_histogram`` + ``stable_scatter`` per request all write the
    same bytes and count the same tuples and lines; whole runs return
    no lane rows, and the inputs are left untouched."""
    columns = _batch_columns(sizes, seed=sum(sizes) + len(sizes))
    before = [(k.copy(), p.copy()) for k, p in columns]
    native, fallback = _both_backends(
        lambda: kernels.partition_batch(
            columns, num_partitions, use_hash, lanes
        )
    )
    for got, want in zip(native, fallback):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    out_keys, out_payloads, counts, lines, lane_rows = native
    assert counts.shape == lines.shape == (len(sizes), num_partitions)
    assert lane_rows.shape == (0, num_partitions, lanes)
    low = 0
    for (keys, payloads), row_counts, row_lines in zip(columns, counts, lines):
        n = keys.shape[0]
        parts, hist, lane_hist = kernels.hash_histogram(
            keys, num_partitions, use_hash, lanes=lanes
        )
        assert np.array_equal(row_counts, hist)
        assert np.array_equal(row_lines, (-(-lane_hist // lanes)).sum(axis=1))
        base = np.zeros(num_partitions, dtype=np.int64)
        np.cumsum(hist[:-1], out=base[1:])
        solo_keys = np.empty(n, dtype=np.uint32)
        solo_payloads = np.empty(n, dtype=np.uint32)
        kernels.stable_scatter(
            keys, payloads, parts, base, num_partitions,
            solo_keys, solo_payloads,
        )
        assert np.array_equal(out_keys[low:low + n], solo_keys)
        assert np.array_equal(out_payloads[low:low + n], solo_payloads)
        low += n
    assert low == out_keys.shape[0] == out_payloads.shape[0]
    for (keys, payloads), (keys_before, payloads_before) in zip(
        columns, before
    ):
        assert np.array_equal(keys, keys_before)
        assert np.array_equal(payloads, payloads_before)


@needs_native
@given(
    sizes=batch_sizes,
    generated=st.lists(st.booleans(), min_size=6, max_size=6),
    num_partitions=st.sampled_from([2, 64, 8192]),
    lanes=st.sampled_from([1, 8]),
)
@settings(max_examples=60, deadline=None)
def test_partition_batch_generated_ids_equal_explicit_arange(
    sizes, generated, num_partitions, lanes
):
    """A ``None`` payload column is the request's record ids, written
    by the kernel: the same bytes as passing ``np.arange`` explicitly,
    on both backends, mixed with explicit columns and empty requests."""
    explicit = _batch_columns(sizes, seed=len(sizes) + sum(sizes))
    columns = [
        (keys, None) if gen else (keys, payloads)
        for (keys, payloads), gen in zip(explicit, generated)
    ]
    materialised = [
        (keys, np.arange(keys.shape[0], dtype=np.uint32))
        if payloads is None else (keys, payloads)
        for keys, payloads in columns
    ]
    native, fallback = _both_backends(
        lambda: kernels.partition_batch(
            columns, num_partitions, True, lanes
        )
    )
    with kernels.using_backend("native"):
        want = kernels.partition_batch(
            materialised, num_partitions, True, lanes
        )
    for got_native, got_numpy, expected in zip(native, fallback, want):
        assert np.array_equal(got_native, expected)
        assert np.array_equal(got_numpy, expected)


class TestPartitionBatchDispatch:
    @needs_native
    def test_non_contiguous_and_uint64_columns_take_the_twin(
        self, monkeypatch
    ):
        """One ineligible column anywhere in the batch routes the whole
        call to NumPy — never a crash, never a hidden copy into C."""
        calls = []
        twin = numpy_impl.partition_batch
        monkeypatch.setattr(
            numpy_impl,
            "partition_batch",
            lambda *args: calls.append(1) or twin(*args),
        )
        plain = _batch_columns([40, 9], seed=5)
        strided = np.arange(80, dtype=np.uint32)[::2]
        assert not strided.flags.c_contiguous
        wide = np.arange(40, dtype=np.uint64)
        payloads = np.arange(40, dtype=np.uint32)
        with kernels.using_backend("native"):
            kernels.partition_batch(plain, 16, True, 8)
            assert calls == []
            for bad in (
                (strided, payloads),
                (payloads, strided),
                (wide, payloads),
                (payloads, wide),
            ):
                calls.clear()
                got = kernels.partition_batch(plain + [bad], 16, True, 8)
                assert calls == [1]
                with kernels.using_backend("numpy"):
                    want = kernels.partition_batch(
                        plain + [bad], 16, True, 8
                    )
                for a, b in zip(got, want):
                    assert np.array_equal(a, b)

    def test_rejects_malformed_batches(self):
        keys = np.arange(8, dtype=np.uint32)
        with pytest.raises(ConfigurationError):
            kernels.partition_batch([(keys, keys[:4])], 16, True, 8)
        with pytest.raises(ConfigurationError):
            kernels.partition_batch([(keys.reshape(2, 4), None)], 16, True, 8)
        with pytest.raises(ConfigurationError):
            kernels.partition_batch([(keys, keys)], 12, True, 8)
        with pytest.raises(ConfigurationError):
            kernels.partition_batch([(keys, keys)], 16, True, 3)

    def test_empty_batch(self):
        out_keys, out_payloads, counts, lines, lane_rows = (
            kernels.partition_batch([], 16, True, 8)
        )
        assert out_keys.shape == out_payloads.shape == (0,)
        assert counts.shape == lines.shape == (0, 16)
        assert lane_rows.shape == (0, 16, 8)


# ---------------------------------------------------------------------------
# 2. Partitioner-level byte identity across every mode


@needs_native
@given(
    keys=key_arrays.filter(lambda a: a.size >= 1),
    num_partitions=st.sampled_from([2, 16, 64]),
    output_mode=st.sampled_from(list(OutputMode)),
    layout_mode=st.sampled_from(list(LayoutMode)),
    hash_kind=st.sampled_from(list(HashKind)),
)
@settings(max_examples=40, deadline=None)
def test_partitioner_byte_identical_across_backends(
    keys, num_partitions, output_mode, layout_mode, hash_kind
):
    config = PartitionerConfig(
        num_partitions=num_partitions,
        output_mode=output_mode,
        layout_mode=layout_mode,
        hash_kind=hash_kind,
        pad_tuples=len(keys) + 64,
    )
    payloads = np.arange(keys.shape[0], dtype=np.uint32)

    def run():
        return FpgaPartitioner(config).partition(keys, payloads)

    native, fallback = _both_backends(run)
    assert np.array_equal(native.counts, fallback.counts)
    assert np.array_equal(
        native.lines_per_partition, fallback.lines_per_partition
    )
    assert np.array_equal(native.base_lines, fallback.base_lines)
    assert native.dummy_slots == fallback.dummy_slots
    for a, b in zip(native.partition_keys, fallback.partition_keys):
        assert np.array_equal(a, b)
    for a, b in zip(native.partition_payloads, fallback.partition_payloads):
        assert np.array_equal(a, b)


@needs_native
@given(
    sizes=st.lists(
        st.integers(min_value=1, max_value=300), min_size=1, max_size=6
    ),
    num_partitions=st.sampled_from([4, 64]),
)
@settings(max_examples=25, deadline=None)
def test_partition_many_byte_identical_across_backends(sizes, num_partitions):
    rng = np.random.default_rng(sum(sizes) + len(sizes))
    relations = [
        rng.integers(0, 2**32, size=s, dtype=np.uint64).astype(np.uint32)
        for s in sizes
    ]
    config = PartitionerConfig(num_partitions=num_partitions)

    def run():
        return FpgaPartitioner(config).partition_many(relations)

    native, fallback = _both_backends(run)
    assert len(native) == len(fallback) == len(relations)
    for left, right in zip(native, fallback):
        assert np.array_equal(left.counts, right.counts)
        for a, b in zip(left.partition_keys, right.partition_keys):
            assert np.array_equal(a, b)
        for a, b in zip(left.partition_payloads, right.partition_payloads):
            assert np.array_equal(a, b)


def _assert_same_output(ours, reference):
    assert outputs_identical(ours, reference)
    assert ours.fell_back_to_cpu == reference.fell_back_to_cpu


@given(
    sizes=st.lists(
        st.one_of(
            st.sampled_from([1, 7, 8, 9, 25]),
            st.integers(min_value=1, max_value=300),
        ),
        min_size=1,
        max_size=5,
    ),
    num_partitions=st.sampled_from([2, 16, 256]),
    output_mode=st.sampled_from(list(OutputMode)),
    layout_mode=st.sampled_from(list(LayoutMode)),
    hash_kind=st.sampled_from(list(HashKind)),
    on_overflow=st.sampled_from(["raise", "hist", "cpu"]),
    skewed=st.integers(min_value=-1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_partition_many_equals_solo_partition(
    sizes, num_partitions, output_mode, layout_mode, hash_kind,
    on_overflow, skewed,
):
    """Every output of ``partition_many`` — fused kernel and NumPy
    twin — is the output of ``partition()`` on that request alone, in
    all four modes and under every overflow policy.  Request ``skewed``
    (when in range) holds one key only, so in PAD mode it overflows:
    it alone falls back (``hist`` / ``cpu``), or it raises exactly
    where the solo call does."""
    config = PartitionerConfig(
        num_partitions=num_partitions,
        output_mode=output_mode,
        layout_mode=layout_mode,
        hash_kind=hash_kind,
    )
    columns = _batch_columns(sizes, seed=sum(sizes) * 7 + len(sizes))
    if 0 <= skewed < len(columns):
        columns[skewed][0][:] = 0xC0FFEE
    relations = [keys for keys, _ in columns]
    payloads = [pays for _, pays in columns]
    partitioner = FpgaPartitioner(config)
    solo, overflowed = [], False
    for keys, pays in columns:
        try:
            solo.append(
                partitioner.partition(keys, pays, on_overflow=on_overflow)
            )
        except PartitionOverflowError:
            overflowed = True
    backends = ("native", "numpy") if NATIVE else ("numpy",)
    for backend in backends:
        with kernels.using_backend(backend):
            if overflowed:
                assert on_overflow == "raise"
                with pytest.raises(PartitionOverflowError):
                    partitioner.partition_many(
                        relations, payloads, on_overflow=on_overflow
                    )
                continue
            outputs = partitioner.partition_many(
                relations, payloads, on_overflow=on_overflow
            )
        assert len(outputs) == len(solo)
        for ours, reference in zip(outputs, solo):
            _assert_same_output(ours, reference)


def test_partition_many_one_overflowing_request_falls_back_alone():
    """The paper's fan-out, PAD mode, a batch whose middle request is
    one hot key: that request alone is relabelled HIST (or rerun on the
    CPU partitioner); its neighbours keep their PAD layout."""
    rng = np.random.default_rng(99)
    config = PartitionerConfig(
        num_partitions=8192, output_mode=OutputMode.PAD
    )
    relations = [
        rng.integers(0, 2**32, size=20_000, dtype=np.uint64).astype(np.uint32)
        for _ in range(3)
    ]
    relations[1][:] = 42
    partitioner = FpgaPartitioner(config)
    hist = partitioner.partition_many(relations, on_overflow="hist")
    assert [o.config.output_mode for o in hist] == [
        OutputMode.PAD, OutputMode.HIST, OutputMode.PAD
    ]
    cpu = partitioner.partition_many(relations, on_overflow="cpu")
    assert [o.fell_back_to_cpu for o in cpu] == [False, True, False]
    for outputs, policy in ((hist, "hist"), (cpu, "cpu")):
        for ours, keys in zip(outputs, relations):
            _assert_same_output(
                ours, partitioner.partition(keys, on_overflow=policy)
            )
    with pytest.raises(PartitionOverflowError):
        partitioner.partition_many(relations, on_overflow="raise")


# ---------------------------------------------------------------------------
# 3. Dispatch behaviour


class TestDispatch:
    def test_backend_name_is_valid(self):
        assert kernels.backend_name() in ("native", "numpy")

    def test_set_backend_rejects_unknown(self):
        with pytest.raises(kernels.KernelBuildError):
            kernels.set_backend("cuda")

    def test_using_backend_restores(self):
        before = kernels.backend_name()
        with kernels.using_backend("numpy"):
            assert kernels.backend_name() == "numpy"
        assert kernels.backend_name() == before

    @needs_native
    def test_uint64_keys_fall_back_per_call(self):
        """16 B tuples (uint64 keys) are outside the native dtype set;
        the dispatch layer must route them to NumPy, not crash."""
        keys = np.arange(100, dtype=np.uint64)
        with kernels.using_backend("native"):
            parts, hist, _ = kernels.hash_histogram(
                keys, 16, True, parts_out=np.empty(100, dtype=np.uint8)
            )
        with kernels.using_backend("numpy"):
            ref_parts, ref_hist, _ = kernels.hash_histogram(
                keys, 16, True, parts_out=np.empty(100, dtype=np.uint8)
            )
        assert np.array_equal(parts, ref_parts)
        assert np.array_equal(hist, ref_hist)

    @needs_native
    def test_non_contiguous_keys_fall_back_per_call(self):
        base = np.arange(200, dtype=np.uint32)
        strided = base[::2]
        assert not strided.flags.c_contiguous or strided.base is not None
        with kernels.using_backend("native"):
            parts, hist, _ = kernels.hash_histogram(strided[::1], 8, True)
        with kernels.using_backend("numpy"):
            ref = kernels.hash_histogram(np.ascontiguousarray(strided), 8, True)
        assert np.array_equal(hist, ref[1])

    @needs_native
    def test_native_abi_and_library_cache(self):
        from repro.kernels.build import library_path

        path = library_path()
        assert path.exists()
        # rebuilding is a no-op (content-addressed cache hit)
        assert kernels.build_native() == path


@st.composite
def _run_pieces(draw):
    """Partition-ordered pieces (some empty) over 1–64 partitions."""
    num_partitions = draw(st.sampled_from([1, 2, 16, 64]))
    rows = draw(st.lists(
        st.lists(
            st.integers(0, 9), min_size=num_partitions,
            max_size=num_partitions,
        ),
        min_size=0, max_size=6,
    ))
    counts = np.array(rows, dtype=np.int64).reshape(-1, num_partitions)
    keys = np.arange(int(counts.sum()), dtype=np.uint32) * np.uint32(7)
    return counts, keys


@needs_native
@given(case=_run_pieces())
@settings(max_examples=60, deadline=None)
def test_copy_runs_native_equals_numpy_equals_partition_major(case):
    """Primitive 9 writes each piece's runs where a stable scatter of
    the concatenated pieces by partition would put them."""
    counts, keys = case
    n = keys.shape[0]
    payloads = keys ^ np.uint32(0xABCD)
    sizes = counts.sum(axis=1)
    cuts = np.cumsum(sizes)[:-1] if sizes.size else []
    columns = list(zip(np.split(keys, cuts), np.split(payloads, cuts)))
    columns = columns[:counts.shape[0]]
    bounds = np.zeros(counts.shape[1] + 1, dtype=np.int64)
    np.cumsum(counts.sum(axis=0), out=bounds[1:])
    dest = np.cumsum(counts, axis=0) - counts + bounds[:-1]

    def run():
        out = (np.zeros(n, np.uint32), np.zeros(n, np.uint32))
        kernels.copy_runs(columns, counts, dest, *out)
        return out

    native, fallback = _both_backends(run)
    parts = np.concatenate(
        [np.repeat(np.arange(counts.shape[1]), row) for row in counts]
        or [np.empty(0, np.int64)]
    )
    order = np.argsort(parts, kind="stable")
    for got in (native, fallback):
        assert np.array_equal(got[0], keys[order])
        assert np.array_equal(got[1], payloads[order])


def test_copy_runs_rejects_runs_outside_their_columns():
    keys = np.arange(10, dtype=np.uint32)
    out = (np.empty(10, np.uint32), np.empty(10, np.uint32))
    counts = np.array([[6, 5]], dtype=np.int64)
    with pytest.raises(ConfigurationError):
        kernels.copy_runs([(keys, keys)], counts, np.zeros_like(counts), *out)
    with pytest.raises(ConfigurationError):
        kernels.copy_runs(
            [(keys, keys[:9])], np.array([[5, 5]]), np.zeros((1, 2)), *out
        )
    for dest in ([[0, 6]], [[-1, 5]]):
        with pytest.raises(ConfigurationError):
            kernels.copy_runs(
                [(keys, keys)], np.array([[5, 5]]), np.array(dest), *out
            )


#: the NumPy twin behind each primitive
_TWINS = {
    "hash_histogram": "hash_histogram",
    "stable_scatter": "scatter",
    "swwc_scatter": "swwc_scatter",
    "partition_batch": "partition_batch",
    "bucket_build": "bucket_build",
    "bucket_probe": "bucket_probe",
    "join_aggregate": "join_aggregate",
    "sort_groups": "sort_groups",
    "copy_runs": "copy_runs",
}
_PARTITIONING = ("hash_histogram", "stable_scatter", "swwc_scatter")

#: a fan-out per partition-index dtype — the one parts_dtype picks for
#: the library's three; int32 is none of them (an ineligible column)
_FANOUT = {np.uint8: 16, np.uint16: 1024, np.int64: 1 << 17, np.int32: 16}


def _dispatch_keys(defect=None):
    keys = np.random.default_rng(31).integers(
        0, 2**32, size=300, dtype=np.uint64
    ).astype(np.uint32)
    if defect == "strided keys":
        return np.repeat(keys, 2)[::2]
    if defect == "uint64 keys":
        return keys.astype(np.uint64)
    return keys


def _run_primitive(name, keys, index_dtype):
    """Call primitive ``name`` on ``keys`` (partition indices of
    ``index_dtype`` where it takes them); return its outputs."""
    n = keys.shape[0]
    fanout = _FANOUT[index_dtype]
    payloads = np.arange(n, dtype=np.uint32)
    if name == "hash_histogram":
        return kernels.hash_histogram(
            keys, fanout, True, lanes=4, global_offset=3,
            parts_out=np.empty(n, dtype=index_dtype),
        )
    if name == "partition_batch":
        return kernels.partition_batch(
            [(keys, payloads), (keys[:5], payloads[:5])], fanout, True, 4,
            [3, None],
        )
    if name == "copy_runs":
        # any column is partition-ordered for some run lengths: two
        # pieces, each cut into 16 runs of uneven length
        counts = np.stack([
            np.bincount(np.arange(m) * 16 // m, minlength=16)
            for m in (100, n - 100)
        ])
        bounds = np.zeros(17, dtype=np.int64)
        np.cumsum(counts.sum(axis=0), out=bounds[1:])
        out = (np.empty(n, dtype=np.uint32), np.empty(n, dtype=np.uint32))
        kernels.copy_runs(
            [(keys[:100], payloads[:100]), (keys[100:], payloads[100:])],
            counts, np.cumsum(counts, axis=0) - counts + bounds[:-1], *out,
        )
        return out
    if name == "bucket_build":
        return kernels.bucket_build(keys, 64)
    if name == "bucket_probe":
        heads, nxt = kernels.bucket_build(keys, 64)
        return kernels.bucket_probe(keys, heads, nxt, 64, keys[::-1].copy())
    if name == "join_aggregate":
        # three build partitions (the middle one empty) probed by the
        # reversed keys plus a repeat of the first 50
        probe = np.concatenate([keys[::-1], keys[:50]])
        out = (
            np.empty(n, dtype=np.uint32),
            np.empty(n, dtype=np.int64),
            np.empty(n, dtype=np.int64),
        )
        rows, matches = kernels.join_aggregate(
            keys, payloads, np.array([0, 100, 100, n], dtype=np.int64),
            probe, np.arange(probe.shape[0], dtype=np.uint32),
            np.array([0, 150, 150, probe.shape[0]], dtype=np.int64),
            0, 3, "mean", "s", *out,
        )
        return (rows, matches) + tuple(column[:rows] for column in out)
    if name == "sort_groups":
        # it sorts in place: a private copy of the keys, strided if they are
        own_keys = keys.copy() if keys.flags.c_contiguous else np.repeat(keys, 2)[::2]
        columns = (own_keys, np.arange(n, dtype=np.int64), np.ones(n, np.int64))
        groups = kernels.sort_groups(columns[0], columns[1], "min", columns[2])
        return tuple(column[:groups] for column in columns)
    parts = (keys % fanout).astype(index_dtype)
    dest_base = np.zeros(fanout, dtype=np.int64)
    np.cumsum(np.bincount(parts, minlength=fanout)[:-1], out=dest_base[1:])
    out = (np.empty(n, dtype=np.uint32), np.empty(n, dtype=np.uint32))
    if name == "stable_scatter":
        kernels.stable_scatter(keys, payloads, parts, dest_base, fanout, *out)
    else:
        kernels.swwc_scatter(
            keys, payloads, parts, dest_base, fanout, 8, *out, threads=2
        )
    return out


@needs_native
@pytest.mark.parametrize(
    "name, defect, index_dtype",
    [
        (name, None, dtype)
        for name in _PARTITIONING + ("partition_batch",)
        for dtype in (np.uint8, np.uint16, np.int64)
    ]
    + [
        (name, None, np.uint8)
        for name in (
            "bucket_build", "bucket_probe", "join_aggregate", "sort_groups",
            "copy_runs",
        )
    ]
    + [
        (name, defect, np.uint8)
        for name in _TWINS
        for defect in ("strided keys", "uint64 keys")
    ]
    + [(name, "int32 parts", np.int32) for name in _PARTITIONING],
)
def test_eligible_inputs_never_reach_the_twin(
    monkeypatch, name, defect, index_dtype
):
    """Contiguous ``uint32`` columns with any of the library's
    partition-index dtypes run in C (zero twin calls); one ineligible
    input takes the twin exactly once — and either way the bytes are
    the twin's."""
    keys = _dispatch_keys(defect)
    with kernels.using_backend("numpy"):
        want = _run_primitive(name, keys, index_dtype)
    calls = []
    twin = getattr(numpy_impl, _TWINS[name])
    monkeypatch.setattr(
        numpy_impl,
        _TWINS[name],
        lambda *args: calls.append(1) or twin(*args),
    )
    with kernels.using_backend("native"):
        got = _run_primitive(name, keys, index_dtype)
    assert len(calls) == (0 if defect is None else 1)
    assert len(got) == len(want)
    for ours, reference in zip(got, want):
        if isinstance(reference, np.ndarray):
            assert ours.dtype == reference.dtype
            assert np.array_equal(ours, reference)
        else:
            assert ours == reference


def _call_with_rules(entry, fanout, lanes):
    keys = np.arange(16, dtype=np.uint32)
    payloads = keys.copy()
    if entry == "hash_histogram":
        kernels.hash_histogram(keys, fanout, False, lanes=lanes)
    elif entry == "partition_batch":
        kernels.partition_batch(
            [(keys, payloads)], fanout, False, 8 if lanes is None else lanes
        )
    elif entry == "begin_partition":
        with ExecutionEngine(kind="serial") as engine:
            engine.begin_partition(
                keys, payloads, fanout, False, lanes=lanes
            ).close()
    else:
        from repro.cpu.swwc_buffers import swwc_partition

        swwc_partition(keys, payloads, fanout)


@pytest.mark.parametrize(
    "backend", [pytest.param("native", marks=needs_native), "numpy"]
)
@pytest.mark.parametrize(
    "entry, fanout, lanes",
    [
        (entry, fanout, lanes)
        for entry in (
            "hash_histogram", "partition_batch", "begin_partition",
            "swwc_partition",
        )
        for fanout, lanes in [(p, None) for p in (0, 1, 3, 6, 12)]
        + [(16, 0), (16, 3)]
        if entry != "swwc_partition" or lanes is None  # it takes no lanes
    ],
)
def test_fanout_and_lane_rules_hold_on_both_backends(
    backend, entry, fanout, lanes
):
    """A fan-out that is not a power of two ≥ 2, or a lane count that
    is not a positive power of two, is a ``ConfigurationError`` on both
    backends — never a silently masked histogram or an empty lane
    matrix from C."""
    with kernels.using_backend(backend):
        with pytest.raises(ConfigurationError):
            _call_with_rules(entry, fanout, lanes)


# ---------------------------------------------------------------------------
# 4. Zero-copy data plane


class TestZeroCopy:
    def _output(self, n=10_000, num_partitions=64):
        rng = np.random.default_rng(11)
        keys = rng.integers(0, 2**32, size=n, dtype=np.uint64).astype(
            np.uint32
        )
        config = PartitionerConfig(num_partitions=num_partitions)
        return FpgaPartitioner(config).partition(keys)

    def test_partition_views_share_one_column(self):
        """Every per-partition array is a view into the single sorted
        column — no per-partition copies anywhere in the output."""
        output = self._output()
        assert isinstance(output.partition_keys, PartitionSlices)
        column = output.partition_keys._column
        for p in range(output.num_partitions):
            view = output.partition_keys[p]
            if view.size:
                assert np.shares_memory(view, column)
                assert view.base is not None

    def test_payload_views_share_one_column(self):
        output = self._output()
        column = output.partition_payloads._column
        for p in range(output.num_partitions):
            view = output.partition_payloads[p]
            if view.size:
                assert np.shares_memory(view, column)

    def test_service_resolve_path_is_zero_copy(self):
        """The buffers a service client receives are views over the
        partitioner's backing column — resolve adds no copies."""
        from repro.service.service import (
            PartitionRequest,
            PartitionService,
            RequestStatus,
        )

        rng = np.random.default_rng(12)
        keys = rng.integers(0, 2**32, size=20_000, dtype=np.uint64).astype(
            np.uint32
        )
        config = PartitionerConfig(num_partitions=32)
        with PartitionService() as service:
            ticket = service.submit(
                PartitionRequest(relation=keys, config=config)
            )
            response = ticket.result(timeout=30)
        assert response.status is RequestStatus.OK
        output = response.output
        assert isinstance(output.partition_keys, PartitionSlices)
        column = output.partition_keys._column
        nonempty = [
            output.partition_keys[p]
            for p in range(output.num_partitions)
            if output.partition_keys[p].size
        ]
        assert nonempty, "test relation must fill at least one partition"
        for view in nonempty:
            assert np.shares_memory(view, column)

    @needs_native
    def test_thread_engine_scatter_is_zero_copy(self):
        """The thread backend scatters straight into the output arrays
        the partitioner hands out — the views alias those buffers."""
        rng = np.random.default_rng(13)
        keys = rng.integers(0, 2**32, size=200_000, dtype=np.uint64).astype(
            np.uint32
        )
        config = PartitionerConfig(num_partitions=64)
        with kernels.using_backend("native"):
            with ExecutionEngine(workers=2, kind="thread") as engine:
                output = FpgaPartitioner(config, engine=engine).partition(keys)
        column = output.partition_keys._column
        assert column.dtype == np.uint32
        assert sum(
            output.partition_keys[p].size
            for p in range(output.num_partitions)
        ) == int(output.counts.sum())
        for p in range(output.num_partitions):
            view = output.partition_keys[p]
            if view.size:
                assert np.shares_memory(view, column)
