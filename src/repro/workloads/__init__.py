"""Workload and key-distribution generators (Sections 3.2 and 5).

The paper evaluates partitioning and joins on four key distributions
(linear, random, grid, reverse grid) plus Zipf-skewed variants, packaged
into five named workloads A-E (Table 4).
"""

from repro.workloads.distributions import (
    KeyDistribution,
    linear_keys,
    random_keys,
    grid_keys,
    reverse_grid_keys,
    zipf_keys,
    generate_keys,
)
from repro.workloads.arrivals import poisson_arrivals
from repro.workloads.relations import (
    Relation,
    Workload,
    make_relation,
    make_workload,
    WORKLOAD_SPECS,
)

__all__ = [
    "poisson_arrivals",
    "KeyDistribution",
    "linear_keys",
    "random_keys",
    "grid_keys",
    "reverse_grid_keys",
    "zipf_keys",
    "generate_keys",
    "Relation",
    "Workload",
    "make_relation",
    "make_workload",
    "WORKLOAD_SPECS",
]
