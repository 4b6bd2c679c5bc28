"""Tests for the workload generators (Sections 3.2 and 5, Table 4)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workloads.distributions import (
    KeyDistribution,
    generate_keys,
    grid_keys,
    linear_keys,
    random_keys,
    reverse_grid_keys,
    zipf_keys,
)
from repro.workloads.relations import (
    WORKLOAD_SPECS,
    Relation,
    make_relation,
    make_workload,
)


class TestLinear:
    def test_unique_range(self):
        keys = linear_keys(1000)
        assert keys[0] == 1 and keys[-1] == 1000
        assert np.unique(keys).size == 1000

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            linear_keys(0)


class TestRandom:
    def test_deterministic_per_seed(self):
        assert np.array_equal(random_keys(100, seed=7), random_keys(100, seed=7))
        assert not np.array_equal(
            random_keys(100, seed=7), random_keys(100, seed=8)
        )

    def test_full_range(self):
        keys = random_keys(100000, seed=0)
        assert int(keys.max()) > 2**31  # uses the full 32-bit range


class TestGridFamily:
    def test_grid_bytes_in_1_to_128(self):
        keys = grid_keys(10000)
        for shift in range(0, 32, 8):
            bytes_ = (keys >> np.uint32(shift)) & np.uint32(0xFF)
            assert bytes_.min() >= 1
            assert bytes_.max() <= 128

    def test_grid_lsb_increments_first(self):
        keys = grid_keys(5)
        lsb = keys & np.uint32(0xFF)
        assert list(lsb) == [1, 2, 3, 4, 5]

    def test_reverse_grid_msb_increments_first(self):
        keys = reverse_grid_keys(5)
        msb = keys >> np.uint32(24)
        assert list(msb) == [1, 2, 3, 4, 5]
        # the other bytes stay at their minimum
        assert list(keys & np.uint32(0xFF)) == [1, 1, 1, 1, 1]

    def test_grid_keys_unique(self):
        keys = grid_keys(200000)
        assert np.unique(keys).size == 200000

    def test_grid_wraps_at_128(self):
        keys = grid_keys(130)
        assert int(keys[127] & np.uint32(0xFF)) == 128
        assert int(keys[128] & np.uint32(0xFF)) == 1  # wrapped
        assert int((keys[128] >> np.uint32(8)) & np.uint32(0xFF)) == 2

    def test_reverse_grid_is_radix_adversarial(self):
        """The low key bits of reverse-grid keys barely move — the
        reason Figure 3a's radix curves collapse."""
        keys = reverse_grid_keys(10000)
        low_bits = keys & np.uint32(0x1FFF)  # 13 radix bits
        assert np.unique(low_bits).size < 100


class TestZipf:
    def test_factor_zero_roughly_uniform(self):
        keys = zipf_keys(50000, zipf_factor=0.0, key_space=100, seed=1)
        counts = np.bincount(keys, minlength=101)[1:]
        assert counts.max() < 2 * counts.mean()

    def test_higher_factor_more_skew(self):
        def top_share(factor):
            keys = zipf_keys(50000, zipf_factor=factor, key_space=1000, seed=1)
            counts = np.bincount(keys)
            return counts.max() / 50000

        assert top_share(0.5) < top_share(1.0) < top_share(1.75)

    def test_keys_within_key_space(self):
        keys = zipf_keys(1000, 1.0, key_space=50, seed=0)
        assert keys.min() >= 1 and keys.max() <= 50

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            zipf_keys(10, -1.0)
        with pytest.raises(ConfigurationError):
            zipf_keys(10, 1.0, key_space=0)


class TestGenerateKeys:
    @pytest.mark.parametrize(
        "name", ["linear", "random", "grid", "reverse_grid"]
    )
    def test_dispatch_by_string(self, name):
        keys = generate_keys(name, 100)
        assert keys.shape == (100,) and keys.dtype == np.uint32

    def test_dispatch_by_enum(self):
        keys = generate_keys(KeyDistribution.ZIPF, 100, zipf_factor=1.0)
        assert keys.shape == (100,)

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            generate_keys("gaussian", 100)


class TestRelation:
    def test_byte_accounting(self):
        rel = make_relation(1000, tuple_bytes=16)
        assert rel.total_bytes == 16000
        assert rel.key_bytes == 4000

    def test_dtype_enforced(self):
        with pytest.raises(ConfigurationError):
            Relation(
                keys=np.arange(4, dtype=np.int64),
                payloads=np.arange(4, dtype=np.uint32),
            )

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            Relation(
                keys=np.arange(4, dtype=np.uint32),
                payloads=np.arange(3, dtype=np.uint32),
            )

    def test_tuple_width_validated(self):
        with pytest.raises(ConfigurationError):
            make_relation(10, tuple_bytes=12)

    def test_head(self):
        rel = make_relation(100)
        assert len(rel.head(10)) == 10


class TestWorkloads:
    def test_table4_specs(self):
        assert WORKLOAD_SPECS["A"].r_tuples == 128 * 10**6
        assert WORKLOAD_SPECS["B"].r_tuples == 16 * 2**20
        assert WORKLOAD_SPECS["B"].s_tuples == 256 * 2**20
        assert WORKLOAD_SPECS["D"].distribution is KeyDistribution.GRID
        assert (
            WORKLOAD_SPECS["E"].distribution is KeyDistribution.REVERSE_GRID
        )

    def test_scaling(self):
        wl = make_workload("A", scale=1000)
        assert len(wl.r) == 128 * 10**6 // 1000

    def test_workload_b_asymmetric(self):
        wl = make_workload("B", scale=2**10)
        assert len(wl.s) == 16 * len(wl.r)

    def test_random_workload_s_keys_drawn_from_r(self):
        wl = make_workload("C", scale=100000)
        assert set(map(int, wl.s.keys)).issubset(set(map(int, wl.r.keys)))

    def test_skewed_s(self):
        wl = make_workload("A", scale=100000, skew_s_zipf=1.0)
        counts = np.bincount(wl.s.keys)
        assert counts.max() > 10 * counts[counts > 0].mean()
        # all S keys have R partners
        assert wl.s.keys.max() <= len(wl.r)

    def test_skew_requires_linear(self):
        with pytest.raises(ConfigurationError):
            make_workload("C", scale=100000, skew_s_zipf=1.0)

    def test_unknown_workload(self):
        with pytest.raises(ConfigurationError):
            make_workload("Z")

    def test_invalid_scale(self):
        with pytest.raises(ConfigurationError):
            make_workload("A", scale=0)

    def test_total_tuples(self):
        wl = make_workload("A", scale=10**6)
        assert wl.total_tuples == len(wl.r) + len(wl.s)


class TestArrivals:
    """Open-loop arrival timestamps (repro.workloads.arrivals)."""

    def test_poisson_shape_and_determinism(self):
        from repro.workloads import poisson_arrivals

        a = poisson_arrivals(5000, rate=100.0, seed=3)
        b = poisson_arrivals(5000, rate=100.0, seed=3)
        c = poisson_arrivals(5000, rate=100.0, seed=4)
        assert a.shape == (5000,) and a.dtype == np.float64
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.all(np.diff(a) >= 0) and a[0] >= 0
        # mean rate within 10% over 5000 events
        assert abs(a[-1] - 50.0) < 5.0

    def test_empty_and_validation(self):
        from repro.workloads import poisson_arrivals

        assert poisson_arrivals(0, 10.0).shape == (0,)
        with pytest.raises(ConfigurationError):
            poisson_arrivals(10, rate=0.0)
