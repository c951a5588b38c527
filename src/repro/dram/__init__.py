"""DRAM substrate: timing, banks, buses, channels and the memory controller."""

from .._lazy import lazy_exports

# Resolved on first access: ``repro.config`` needs only the address
# mapping and the timing tables, not the memory controller.
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".address": ("AddressMapping", "DramCoordinates"),
        ".bank": ("AccessOutcome", "Bank"),
        ".bus": ("DataBus",),
        ".channel": ("Channel",),
        ".controller": ("MemoryController", "ThreadMemStats"),
        ".request": ("MemoryRequest", "RequestType"),
        ".timing": ("DramTiming", "ddr2_800"),
    },
)
