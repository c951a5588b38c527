"""Benchmark profiles, synthetic trace generation, and workload mixes."""

from .._lazy import lazy_exports

# Resolved on first access: a campaign spec needs the mixes and profiles,
# not the trace generator (and through it the core model).
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".generator": ("TraceGenerator", "generate_trace"),
        ".mixes": (
            "CASE_STUDY_1",
            "CASE_STUDY_2",
            "CASE_STUDY_3",
            "EIGHT_CORE_MIX",
            "FIG8_SAMPLE_MIXES",
            "SIXTEEN_CORE_MIXES",
            "Workload",
            "random_mixes",
        ),
        ".profiles": ("PROFILES", "BenchmarkProfile", "by_category", "profile"),
    },
)
