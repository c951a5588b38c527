"""Streaming trace-ingestion subsystem: real memory-access streams.

Everything the reproduction runs natively is synthetic (Table-3
calibrated generators in :mod:`repro.workloads`); this package is the
front-end that lets the same schedulers, campaign engine and backends run
on *external* traces:

* :mod:`repro.traces.formats` — streaming parsers for the DRAMSim2
  ``k6`` and ``mase`` trace-line formats, plain or gzip, in O(1) memory;
* :mod:`repro.traces.decoder` — configurable physical-address bit-field
  decoding (``row:rank:bank:channel:column`` layouts with named presets)
  onto the simulator's :class:`~repro.dram.address.AddressMapping`
  coordinates;
* :mod:`repro.traces.source` — :class:`TraceRequestSource`, adapting a
  streamed trace into the :class:`~repro.cpu.trace.Trace` contract the
  cores execute (cycle pacing, read/write split, truncation), so traced
  threads compose freely with synthetic threads in one mix;
* :mod:`repro.traces.library` — a deterministic seeded generator for the
  committed sample traces (an MPKI ladder over four access archetypes)
  and the registry behind ``trace:<name>`` workload entries.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".decoder": (
            "DECODER_PRESETS",
            "AddressDecoder",
            "DecodedAddress",
            "parse_decoder",
        ),
        ".formats": (
            "IngestStats",
            "TraceFormatError",
            "TraceRecord",
            "detect_format",
            "open_trace",
            "parse_k6_line",
            "parse_mase_line",
        ),
        ".library": (
            "SAMPLE_TRACES",
            "SampleTrace",
            "ensure_sample_trace",
            "sample_trace_path",
            "synthesize_trace_lines",
            "trace_dir",
        ),
        ".source": ("TraceFileRef", "TraceRequestSource", "trace_content_sha256"),
    },
)
