"""Trace-driven processor core models."""

from .._lazy import lazy_exports

# Resolved on first access: trace containers do not need the core model.
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".core": ("Core", "CoreSnapshot", "MemoryPort"),
        ".trace": ("Trace", "TraceEntry"),
    },
)
