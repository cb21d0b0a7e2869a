"""System configuration.

One dataclass per subsystem, mirroring the paper's Tables 6 (memory
system) and 7 (processor).  Sizes are scaled down relative to the
paper's Simics/GEMS testbed so that full experiments run in seconds of
wall-clock time under the pure-Python simulator, but every *structural*
parameter of the paper (write-buffer depth, CET/MET entry widths,
priority-queue size, timestamp width, link bandwidths) is represented.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.common.errors import ConfigError
from repro.common.types import BLOCK_SIZE
from repro.consistency.models import ConsistencyModel


class ProtocolKind(enum.Enum):
    """Coherence protocol families evaluated in the paper."""

    DIRECTORY = "directory"  # MOSI directory, 2D-torus interconnect
    SNOOPING = "snooping"  # MOSI snooping, ordered bcast tree + torus data


@dataclass(frozen=True)
class CacheConfig:
    """A single cache level.

    Paper (Table 6): L1 128 KB 4-way 64 B lines; we default to a scaled
    L1 that keeps the same associativity and line size.
    """

    size_bytes: int = 16 * 1024
    associativity: int = 4
    hit_latency: int = 3
    ports: int = 2  # accesses accepted per cycle (shared with replay)

    def validate(self) -> None:
        if self.size_bytes % (BLOCK_SIZE * self.associativity) != 0:
            raise ConfigError(
                "cache size must be a multiple of BLOCK_SIZE * associativity"
            )
        if self.hit_latency < 1 or self.ports < 1:
            raise ConfigError("cache latency and ports must be >= 1")

    def num_sets(self) -> int:
        return self.size_bytes // (BLOCK_SIZE * self.associativity)


@dataclass(frozen=True)
class MemoryConfig:
    """Main memory timing and protection."""

    latency: int = 80  # cycles from controller to DRAM and back
    ecc_enabled: bool = True  # paper requires ECC on caches and DRAM


@dataclass(frozen=True)
class NetworkConfig:
    """Interconnect parameters (paper Table 6).

    ``link_bandwidth_gbps`` of 2.5 with a 2 GHz clock gives 1.25
    bytes/cycle of link throughput; Figure 8 sweeps 1-3 GB/s.
    """

    link_bandwidth_gbps: float = 2.5
    cpu_freq_ghz: float = 2.0
    link_latency: int = 4  # per-hop propagation latency, cycles
    switch_latency: int = 1
    data_message_bytes: int = 72  # 64 B block + 8 B header
    control_message_bytes: int = 8
    inform_epoch_bytes: int = 16  # addr + type + 2 timestamps + 2 hashes

    @property
    def bytes_per_cycle(self) -> float:
        """Per-link throughput in bytes per processor cycle."""
        return self.link_bandwidth_gbps / self.cpu_freq_ghz

    def serialization_cycles(self, size_bytes: int) -> int:
        """Cycles a message of ``size_bytes`` occupies one link."""
        return max(1, round(size_bytes / self.bytes_per_cycle))


@dataclass(frozen=True)
class ProcessorConfig:
    """Core parameters (paper Table 7, scaled widths kept)."""

    fetch_width: int = 4
    rob_size: int = 64
    lsq_size: int = 32
    write_buffer_size: int = 8  # paper: 8-entry write buffer


@dataclass(frozen=True)
class DVMCConfig:
    """Checker configuration (paper Sections 4.1-4.3).

    The three enables correspond to the paper's SN / SN+DVCC / SN+DVUO /
    DVMC configurations in Figure 5.
    """

    enable_uniprocessor: bool = True
    enable_reordering: bool = True
    enable_coherence: bool = True

    verification_stage_latency: int = 1
    verification_width: int = 4  # ops replayed per cycle
    verification_cache_entries: int = 64  # VC: small (32-256 B in paper)

    priority_queue_entries: int = 256  # Inform-Epoch sorting queue
    #: Paper: ~1 injected membar per 100k cycles on full-length runs;
    #: scaled to our shorter simulations so detection latency stays
    #: well inside the SafetyNet recovery window.
    membar_injection_interval: int = 5_000
    scrub_fifo_entries: int = 128
    timestamp_bits: int = 16

    @property
    def any_enabled(self) -> bool:
        return (
            self.enable_uniprocessor
            or self.enable_reordering
            or self.enable_coherence
        )

    @classmethod
    def disabled(cls) -> "DVMCConfig":
        """No checkers (the paper's unprotected/SN-only configurations)."""
        return cls(
            enable_uniprocessor=False,
            enable_reordering=False,
            enable_coherence=False,
        )

    @classmethod
    def coherence_only(cls) -> "DVMCConfig":
        """SN+DVCC configuration of Figure 5."""
        return cls(enable_uniprocessor=False, enable_reordering=False)

    @classmethod
    def uniprocessor_only(cls) -> "DVMCConfig":
        """SN+DVUO configuration of Figure 5."""
        return cls(enable_coherence=False, enable_reordering=False)


@dataclass(frozen=True)
class SafetyNetConfig:
    """Backward-error-recovery parameters.

    A checkpoint is taken every ``checkpoint_interval`` cycles and up to
    ``max_checkpoints`` are kept live, giving a recovery window of about
    ``checkpoint_interval * max_checkpoints`` cycles (paper: ~100k).
    """

    enabled: bool = True
    checkpoint_interval: int = 12_500
    max_checkpoints: int = 8

    @property
    def recovery_window(self) -> int:
        return self.checkpoint_interval * self.max_checkpoints

    @classmethod
    def disabled(cls) -> "SafetyNetConfig":
        return cls(enabled=False)


@dataclass(frozen=True)
class SystemConfig:
    """Full machine description consumed by the SystemBuilder."""

    num_nodes: int = 8
    protocol: ProtocolKind = ProtocolKind.DIRECTORY
    model: ConsistencyModel = ConsistencyModel.TSO

    l1: CacheConfig = field(default_factory=CacheConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    processor: ProcessorConfig = field(default_factory=ProcessorConfig)
    dvmc: DVMCConfig = field(default_factory=DVMCConfig)
    safetynet: SafetyNetConfig = field(default_factory=SafetyNetConfig)

    seed: int = 1

    def validate(self) -> None:
        """Raise :class:`ConfigError` on inconsistent parameters."""
        if self.num_nodes < 1:
            raise ConfigError("need at least one node")
        self.l1.validate()
        if self.dvmc.enable_uniprocessor and self.dvmc.verification_cache_entries < 1:
            raise ConfigError("verification cache must have entries")
        if self.dvmc.any_enabled and not self.safetynet.enabled:
            # DVMC detects; SafetyNet recovers.  Detection without
            # recovery is allowed but unusual, so it is not an error.
            pass

    # Convenience constructors used throughout benchmarks ---------------
    def with_model(self, model: ConsistencyModel) -> "SystemConfig":
        return replace(self, model=model)

    def with_protocol(self, protocol: ProtocolKind) -> "SystemConfig":
        return replace(self, protocol=protocol)

    def with_dvmc(self, dvmc: DVMCConfig) -> "SystemConfig":
        return replace(self, dvmc=dvmc)

    def with_nodes(self, num_nodes: int) -> "SystemConfig":
        return replace(self, num_nodes=num_nodes)

    def with_seed(self, seed: int) -> "SystemConfig":
        return replace(self, seed=seed)

    def with_link_bandwidth(self, gbps: float) -> "SystemConfig":
        return replace(self, network=replace(self.network, link_bandwidth_gbps=gbps))

    @classmethod
    def unprotected(
        cls,
        model: ConsistencyModel = ConsistencyModel.TSO,
        protocol: ProtocolKind = ProtocolKind.DIRECTORY,
        **kwargs,
    ) -> "SystemConfig":
        """Baseline with no DVMC and no BER (the paper's "Base")."""
        return cls(
            model=model,
            protocol=protocol,
            dvmc=DVMCConfig.disabled(),
            safetynet=SafetyNetConfig.disabled(),
            **kwargs,
        )

    @classmethod
    def protected(
        cls,
        model: ConsistencyModel = ConsistencyModel.TSO,
        protocol: ProtocolKind = ProtocolKind.DIRECTORY,
        **kwargs,
    ) -> "SystemConfig":
        """Full DVMC + SafetyNet (the paper's "DVMC" bars)."""
        return cls(model=model, protocol=protocol, **kwargs)
