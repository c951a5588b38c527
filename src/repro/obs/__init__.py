"""Observability: structured tracing, time-series probes, Perfetto export.

The :mod:`repro.obs` package is the instrumentation layer threaded through
the simulator.  It has three parts:

* a **structured trace bus** (:mod:`repro.obs.trace`): typed events emitted
  through per-site :class:`Probe` objects.  Instrumented components hold a
  probe *or* ``None``; a disabled category resolves to ``None`` so the hot
  path pays one local ``is not None`` check and nothing else — the probes
  "compile out" when tracing is off;
* **sink backends**: :class:`JsonlSink` (one JSON object per line, the
  on-disk interchange format), :class:`RingBufferSink` (bounded in-memory
  buffer for tests and interactive use), and the Chrome-trace-event
  exporter (:mod:`repro.obs.perfetto`) whose output loads directly in
  Perfetto / ``chrome://tracing``;
* **periodic samplers** (:mod:`repro.obs.sampler`): time series of queue
  occupancy, per-thread outstanding requests, instantaneous bank-level
  parallelism, windowed row-hit rate and batch size, plus log-bucketed
  per-thread latency histograms (p50/p95/p99/max) surfaced in
  :class:`~repro.metrics.summary.WorkloadResult`;
* a **metrics registry** (:mod:`repro.obs.metrics`): probe-or-None
  counters/gauges/histograms over the operational layers (pool, cache,
  store, guard, chaos), picklable and order-independently mergeable
  across workers, snapshotting to JSON and Prometheus text exposition
  format (:mod:`repro.obs.export`) — the substrate behind
  ``campaign watch``.

Wiring happens in :class:`~repro.sim.system.System` (accepts a tracer and
a telemetry recorder), :class:`~repro.sim.runner.ExperimentRunner` /
:mod:`repro.sim.pool` (per-job trace files keyed by the job's content
hash), and the CLI (``--trace`` / ``--trace-events`` /
``--sample-interval`` / ``--perfetto``, or the ``REPRO_TRACE`` family of
environment variables).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".config": ("TraceConfig",),
        ".export": ("to_json", "to_prometheus", "write_snapshot"),
        ".metrics": (
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "collect_process_metrics",
            "job_metrics",
            "merge_job_metrics",
            "metrics_enabled",
            "metrics_from_env",
            "reset_metrics",
        ),
        ".perfetto": ("chrome_trace", "write_chrome_trace"),
        ".sampler": ("LatencyHistogram", "Telemetry", "TelemetrySummary"),
        ".trace": (
            "CATEGORIES",
            "JsonlSink",
            "Probe",
            "RingBufferSink",
            "Tracer",
            "read_jsonl",
        ),
    },
)
