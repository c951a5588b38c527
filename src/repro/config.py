"""System configuration dataclasses and the paper's baseline presets.

The baseline follows Table 2 of the paper: 4 GHz cores with a 128-entry
instruction window, 3-wide fetch/commit, 32 MSHRs, an FR-FCFS DDR2-800
memory controller with a 128-entry request buffer and 64-entry write
buffer, 8 banks per channel with 2 KB row buffers, and DRAM channels scaled
with the core count (1/2/4 channels for 4/8/16 cores).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .dram.address import AddressMapping
from .dram.timing import DramTiming, ddr2_800
from .envknobs import read_float, read_optional_int

__all__ = [
    "CoreConfig",
    "DramConfig",
    "SystemConfig",
    "baseline_system",
    "default_instructions",
    "default_workload_count",
]

_DEFAULT_INSTRUCTIONS = 300_000


@dataclass(frozen=True)
class CoreConfig:
    """Processor core parameters (paper Table 2)."""

    window_size: int = 128
    width: int = 3  # fetch/exec/commit width, instructions per cycle
    mshrs: int = 32  # maximum outstanding L2 misses (reads) per core

    def __post_init__(self) -> None:
        if self.window_size < 1 or self.width < 1 or self.mshrs < 1:
            raise ValueError("core parameters must be positive")


@dataclass(frozen=True)
class DramConfig:
    """Memory controller and DRAM device parameters."""

    timing: DramTiming = field(default_factory=ddr2_800)
    num_channels: int = 1
    num_banks: int = 8
    row_bytes: int = 2048
    request_buffer_size: int = 128
    write_buffer_size: int = 64
    # Write drain watermarks: when buffered writes exceed ``high`` the
    # controller prioritizes writes until occupancy drops below ``low``.
    write_drain_high: int = 48
    write_drain_low: int = 16

    def __post_init__(self) -> None:
        if self.num_channels < 1 or self.num_banks < 1:
            raise ValueError("need at least one channel and one bank")
        if not (0 <= self.write_drain_low <= self.write_drain_high):
            raise ValueError("invalid write drain watermarks")

    def mapping(self) -> AddressMapping:
        return AddressMapping(
            num_channels=self.num_channels,
            num_banks=self.num_banks,
            row_bytes=self.row_bytes,
        )


@dataclass(frozen=True)
class SystemConfig:
    """A full CMP memory-system configuration."""

    num_cores: int = 4
    core: CoreConfig = field(default_factory=CoreConfig)
    dram: DramConfig = field(default_factory=DramConfig)

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ValueError("need at least one core")

    def scaled_channels(self) -> "SystemConfig":
        """Scale DRAM channels with the core count as in the paper
        (1 channel per 4 cores, minimum 1)."""
        channels = max(1, self.num_cores // 4)
        return replace(self, dram=replace(self.dram, num_channels=channels))


def baseline_system(num_cores: int = 4) -> SystemConfig:
    """The paper's baseline CMP for a given core count.

    DRAM bandwidth (channel count) scales with cores: 1, 2, 4 channels for
    4, 8, 16 cores.
    """
    return SystemConfig(num_cores=num_cores).scaled_channels()


def default_instructions() -> int:
    """Per-thread instruction-slice length, honouring ``REPRO_SCALE``."""
    scale = read_float("REPRO_SCALE", 1.0)
    return max(10_000, int(_DEFAULT_INSTRUCTIONS * scale))


def default_workload_count(num_cores: int) -> int:
    """Number of random mixes per system size (paper: 100 / 16 / 12)."""
    env = read_optional_int("REPRO_WORKLOADS", floor=1)
    if env is not None:
        return env
    return {4: 12, 8: 6, 16: 4}.get(num_cores, 8)
