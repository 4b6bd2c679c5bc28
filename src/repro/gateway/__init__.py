"""Async streaming gateway — the network edge of the partition stack.

The subsystem the ROADMAP's "millions of users" north star was missing:
a dependency-free asyncio TCP front-end that turns in-process
:class:`~repro.service.service.PartitionService` /
:class:`~repro.cluster.router.ShardRouter` calls into long-lived
network streams of *unbounded* relations, with credit-based flow
control, incremental partitioned results, and a final manifest that
makes the stitched client-side output **byte-identical** to one offline
:meth:`~repro.core.partitioner.FpgaPartitioner.partition` call.

* :mod:`~repro.gateway.protocol` — the length-prefixed frame protocol
  (JSON control frames + raw little-endian data frames);
* :mod:`~repro.gateway.chunking` — global accounting + stitching (the
  wire adapter over :mod:`repro.core.pieces`);
* :mod:`~repro.gateway.server` — :class:`GatewayServer`: accept,
  chunk-submit, stream back, drain on SIGTERM;
* :mod:`~repro.gateway.client` — :class:`GatewayClient`: the asyncio
  client library used by tests, benchmarks and the CLI;
* :mod:`~repro.gateway.metrics` — :class:`GatewayMetrics`: Prometheus
  series under the ``repro_gateway`` prefix.

CLI verbs: ``repro gateway serve`` / ``repro gateway bench``.  The
protocol spec and backpressure/drain contracts live in
``docs/GATEWAY.md``.
"""

from repro.gateway.chunking import (
    StreamAccounting,
    global_payloads,
    iter_chunks,
    stitch_output,
)
from repro.gateway.client import GatewayClient, GatewayStream, stream_partition
from repro.gateway.metrics import GATEWAY_COUNTERS, GatewayMetrics
from repro.gateway.protocol import (
    ErrorCode,
    FrameType,
    GatewayDraining,
    GatewayProtocolError,
    GatewayStreamError,
    PROTOCOL_VERSION,
)
from repro.gateway.server import GatewayServer

__all__ = [
    "ErrorCode",
    "FrameType",
    "GATEWAY_COUNTERS",
    "GatewayClient",
    "GatewayDraining",
    "GatewayMetrics",
    "GatewayProtocolError",
    "GatewayServer",
    "GatewayStream",
    "GatewayStreamError",
    "PROTOCOL_VERSION",
    "StreamAccounting",
    "global_payloads",
    "iter_chunks",
    "stitch_output",
    "stream_partition",
]
