"""Gateway observability: the names of its counters, gauges, stages.

:class:`GatewayMetrics` is the stack's one
:class:`~repro.service.metrics.MetricsRegistry` built from the tuples
below and exported under the ``repro_gateway`` prefix (connections,
frames, bytes, backpressure stalls, per-chunk and per-stream latency).
"""

from __future__ import annotations

import time

from repro.service.metrics import MetricsRegistry

#: every counter the gateway increments — exports always carry the full
#: set (zeros included) so dashboards need no existence checks
GATEWAY_COUNTERS = (
    "connections_opened",
    "connections_closed",
    "streams_opened",
    "streams_completed",
    "streams_failed",
    "streams_drained",
    "frames_in",
    "frames_out",
    "bytes_in",
    "bytes_out",
    "chunks_in",
    "chunks_out",
    "tuples_in",
    "backpressure_stalls",
    "credits_granted",
    "errors_sent",
    "protocol_errors",
    "optimizer_plans",
)

#: latency histograms: one per chunk round-trip, one per whole stream
GATEWAY_STAGES = ("chunk", "stream")

#: initial gauges; ``max_stream_window`` is the high-water mark of any
#: single stream's in-flight window — the slow-consumer isolation bound
#: (must stay <= credits)
GATEWAY_GAUGES = {
    "open_connections": 0,
    "open_streams": 0,
    "inflight_chunks": 0,
    "max_stream_window": 0,
}


class GatewayMetrics(MetricsRegistry):
    """The registry one gateway server writes into.

    Written from the event loop and (for executor-side chunk waits)
    worker threads, hence the lock despite the mostly-async callers.
    """

    def __init__(self, clock=time.monotonic) -> None:
        super().__init__(
            GATEWAY_COUNTERS,
            GATEWAY_STAGES,
            GATEWAY_GAUGES,
            "repro_gateway",
            clock,
        )
