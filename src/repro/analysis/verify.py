"""Programmatic verification of partitioning and join outputs.

The reproduction's tests assert a handful of load-bearing invariants;
this module packages them as a library feature so downstream users can
verify *their* runs (custom configs, their own data) the same way:

* a partitioning is a **permutation**: every input tuple appears in
  exactly one partition, nothing invented;
* it is **correct**: every tuple sits in the partition its key's
  partition function selects;
* it is **layout-consistent**: per-partition line counts cover the
  tuples and respect PAD capacities;
* a join result is **sound**: every reported pair shares its key;
* two outputs are **byte-identical** (:func:`outputs_identical`) — the
  one oracle behind the repo's defining invariant that every path
  (engine, spill, cluster, isolation, gateway) reproduces the bytes of
  one offline ``partition()`` call.

Each check returns a :class:`VerificationReport`; ``raise_on_failure``
turns violations into exceptions for pipeline use.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np

from repro.core.hashing import partition_of
from repro.core.modes import OutputMode
from repro.core.partitioner import PartitionedOutput
from repro.errors import ReproError


class VerificationError(ReproError):
    """A verified invariant does not hold."""


@dataclasses.dataclass
class VerificationReport:
    """Outcome of one verification run."""

    checks_run: int
    failures: List[str]

    @property
    def ok(self) -> bool:
        """True when every check held."""
        return not self.failures

    def __bool__(self) -> bool:
        """A report is truthy when every check held, so
        ``assert outputs_identical(a, b)`` shows the failure on a miss."""
        return self.ok

    def raise_on_failure(self) -> "VerificationReport":
        """Raise :class:`VerificationError` when any check failed."""
        if self.failures:
            raise VerificationError(
                "; ".join(self.failures[:5])
                + (f" (+{len(self.failures) - 5} more)"
                   if len(self.failures) > 5 else "")
            )
        return self


def verify_partitioning(
    output: PartitionedOutput,
    keys: np.ndarray,
    payloads: Optional[np.ndarray] = None,
) -> VerificationReport:
    """Check a partitioning against its input relation.

    Verifies the permutation, correct-partition and layout invariants.
    ``payloads`` defaults to positions (VRID semantics).
    """
    keys = np.ascontiguousarray(keys, dtype=np.uint32)
    if payloads is None:
        payloads = np.arange(keys.shape[0], dtype=np.uint32)
    failures: List[str] = []
    checks = 0

    # permutation: payload multiset matches
    checks += 1
    out_payloads = (
        np.concatenate(output.partition_payloads)
        if output.partition_payloads
        else np.empty(0, dtype=np.uint32)
    )
    if sorted(map(int, out_payloads)) != sorted(map(int, payloads)):
        failures.append(
            f"not a permutation: {out_payloads.shape[0]} tuples out vs "
            f"{payloads.shape[0]} in"
        )

    # correct partition per tuple
    checks += 1
    config = output.config
    for p, p_keys in enumerate(output.partition_keys):
        if p_keys.size == 0:
            continue
        computed = np.asarray(
            partition_of(p_keys, config.num_partitions, config.uses_hash)
        )
        wrong = int((computed != p).sum())
        if wrong:
            failures.append(
                f"partition {p}: {wrong} tuples belong elsewhere"
            )

    # counts/lines consistency
    checks += 1
    per_line = config.tuples_per_line
    for p in range(output.num_partitions):
        count = int(output.counts[p])
        lines = int(output.lines_per_partition[p])
        min_lines = -(-count // per_line)
        if output.produced_by.startswith("fpga") and not (
            min_lines <= lines <= min_lines + config.num_lanes
        ):
            failures.append(
                f"partition {p}: {lines} lines for {count} tuples "
                f"(expected {min_lines}..{min_lines + config.num_lanes})"
            )

    # PAD capacity respected
    if config.output_mode is OutputMode.PAD and output.produced_by.startswith(
        "fpga"
    ):
        checks += 1
        capacity_lines = config.partition_capacity(keys.shape[0]) // per_line
        over = np.nonzero(output.lines_per_partition > capacity_lines)[0]
        if over.size:
            failures.append(
                f"PAD capacity exceeded in partitions {list(over[:5])}"
            )

    return VerificationReport(checks_run=checks, failures=failures)


def outputs_identical(
    ours: PartitionedOutput,
    reference: PartitionedOutput,
    check_accounting: bool = True,
    modulo_isolation: bool = False,
) -> VerificationReport:
    """The byte-identity oracle: is ``ours`` the output ``reference`` is?

    Partition contents (keys and payloads, per partition, in order) and
    counts must match exactly; with ``check_accounting`` so must the
    cache-line layout, traffic, padding and effective config.  Anything
    with the output's attributes is accepted (a
    :class:`~repro.storage.spill.PartitionSpill` handle, say).  The
    report is truthy on identity and otherwise names the first
    differing partition and field.

    ``modulo_isolation`` is for comparing a heavy-hitter-isolated run
    against the static one: the regions carved out of the PAD grid
    start elsewhere by design, so ``base_lines`` may differ in (at
    most) ``ours.isolated_partitions`` partitions.
    """
    failure = _first_difference(
        ours, reference, check_accounting, modulo_isolation
    )
    return VerificationReport(
        checks_run=1, failures=[] if failure is None else [failure]
    )


def _first_difference(
    ours, reference, check_accounting: bool, modulo_isolation: bool
) -> Optional[str]:
    num_partitions = len(reference.counts)
    if len(ours.counts) != num_partitions:
        return f"num_partitions: {len(ours.counts)} vs {num_partitions}"
    layout_fields = ["counts"]
    if check_accounting:
        layout_fields += ["lines_per_partition", "base_lines"]
    for field in layout_fields:
        mine = np.asarray(getattr(ours, field))
        theirs = np.asarray(getattr(reference, field))
        differing = np.nonzero(mine != theirs)[0]
        allowed = (
            ours.isolated_partitions
            if modulo_isolation and field == "base_lines"
            else 0
        )
        if differing.size > allowed:
            p = int(differing[0])
            return f"partition {p}: {field} {mine[p]} vs {theirs[p]}"
    for field in ("partition_keys", "partition_payloads"):
        mine, theirs = getattr(ours, field), getattr(reference, field)
        for p in range(num_partitions):
            if not np.array_equal(mine[p], theirs[p]):
                return f"partition {p}: {field} differ"
    if check_accounting:
        for field in ("bytes_read", "bytes_written", "dummy_slots", "config"):
            mine, theirs = getattr(ours, field), getattr(reference, field)
            if mine != theirs:
                return f"{field}: {mine} vs {theirs}"
    return None


def verify_join_pairs(
    r_keys: np.ndarray,
    s_keys: np.ndarray,
    r_match_idx: np.ndarray,
    s_match_idx: np.ndarray,
    expected_matches: Optional[int] = None,
) -> VerificationReport:
    """Check join soundness (and optionally completeness).

    Soundness: every reported (r, s) index pair shares its key.
    Completeness: the pair count equals ``expected_matches`` when given
    (compute it with a reference join for small inputs).
    """
    failures: List[str] = []
    checks = 1
    mismatched = int(
        (r_keys[r_match_idx] != s_keys[s_match_idx]).sum()
    )
    if mismatched:
        failures.append(f"{mismatched} reported pairs do not share a key")
    if expected_matches is not None:
        checks += 1
        if int(r_match_idx.shape[0]) != expected_matches:
            failures.append(
                f"{r_match_idx.shape[0]} pairs reported, "
                f"{expected_matches} expected"
            )
    return VerificationReport(checks_run=checks, failures=failures)
