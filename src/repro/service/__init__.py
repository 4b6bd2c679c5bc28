"""The partitioning service layer — a request-serving tier.

The library's partitioners are one-shot calls; this package turns them
into a servable system in the shape of an inference server:

* :class:`~repro.service.service.PartitionService` — the façade.
  Accepts :class:`~repro.service.service.PartitionRequest`\\ s (relation
  + config + deadline + priority) from many concurrent clients and
  resolves :class:`~repro.service.service.PartitionTicket`\\ s.
* :class:`~repro.service.queue.AdmissionQueue` — bounded, prioritised,
  with backpressure: a full queue rejects with ``retry_after`` instead
  of growing without bound.
* :class:`~repro.service.scheduler.BatchingScheduler` — coalesces
  compatible small requests into one
  :meth:`~repro.core.partitioner.FpgaPartitioner.partition_many`
  kernel invocation and routes oversized requests through the
  morsel-driven :mod:`repro.exec` engine.
* :mod:`~repro.service.degradation` — fault injection, a token-bucket
  saturation model and a circuit breaker; saturated or faulted FPGA
  work transparently fails over to the CPU (SWWC) backend.
* :class:`~repro.service.metrics.ServiceMetrics` — queue depth,
  admit/reject/timeout/degrade counters, per-stage latency histograms
  and throughput, exportable as JSON or an
  :class:`~repro.bench.reporting.ExperimentTable`.

See ``docs/SERVICE.md`` for the architecture and knob reference.
"""

from repro.service.degradation import (
    BackendFault,
    CircuitBreaker,
    DegradationPolicy,
    FaultInjector,
    TokenBucket,
)
from repro.service.metrics import (
    LatencyHistogram,
    MetricsRegistry,
    ServiceMetrics,
)
from repro.service.queue import AdmissionQueue, QueueFullError
from repro.service.scheduler import Batch, BatchingScheduler, request_signature
from repro.service.service import (
    PartitionRequest,
    PartitionResponse,
    PartitionService,
    PartitionTicket,
    Priority,
    RequestStatus,
    ServiceDrainingError,
)

__all__ = [
    "AdmissionQueue",
    "BackendFault",
    "Batch",
    "BatchingScheduler",
    "CircuitBreaker",
    "DegradationPolicy",
    "FaultInjector",
    "LatencyHistogram",
    "MetricsRegistry",
    "PartitionRequest",
    "PartitionResponse",
    "PartitionService",
    "PartitionTicket",
    "Priority",
    "QueueFullError",
    "RequestStatus",
    "ServiceDrainingError",
    "ServiceMetrics",
    "TokenBucket",
    "request_signature",
]
