"""System assembly and experiment running."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".factory": ("SCHEDULER_NAMES", "make_scheduler"),
        ".runner": ("AloneStats", "ExperimentRunner", "default_instructions"),
        ".system": ("DramPort", "System"),
        ".verify": ("BACKENDS", "BackendMismatch", "backend_from_env"),
    },
)
