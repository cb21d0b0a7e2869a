"""Shared test fixtures and helpers."""


import pytest

from repro.config import DVMCConfig, ProtocolKind, SafetyNetConfig, SystemConfig
from repro.consistency.models import ConsistencyModel
from repro.system.builder import System, build_system


def idle_program():
    """A program that issues nothing (controller-level tests drive the
    memory system directly)."""
    return
    yield  # pragma: no cover - makes this a generator


def bare_system(
    protocol: ProtocolKind = ProtocolKind.DIRECTORY,
    num_nodes: int = 4,
    model: ConsistencyModel = ConsistencyModel.TSO,
    dvmc: bool = False,
    safetynet: bool = False,
    **config_kwargs,
) -> System:
    """A wired system with idle cores, for driving controllers directly."""
    config = SystemConfig(
        num_nodes=num_nodes,
        protocol=protocol,
        model=model,
        dvmc=DVMCConfig() if dvmc else DVMCConfig.disabled(),
        safetynet=SafetyNetConfig() if safetynet else SafetyNetConfig.disabled(),
        **config_kwargs,
    )
    return build_system(config, programs=[idle_program() for _ in range(num_nodes)])


def run_system(system: System, cycles: int = 50_000) -> None:
    """Advance a bare system long enough for transactions to settle."""
    system.scheduler.run(until=system.scheduler.now + cycles)


def _await(system: System, cycles: int, issue) -> list:
    """Call ``issue(done)`` and run until ``done`` fires.

    ``done`` halts the kernel, so the run stops at the end of the
    completion cycle (late lane included), or after ``cycles``.
    Returns the values ``done`` received.
    """
    results = []

    def done(value):
        results.append(value)
        system.scheduler.halt()

    issue(done)
    system.scheduler.run(until=system.scheduler.now + cycles)
    return results


def sync_load(system: System, node: int, addr: int, cycles: int = 50_000) -> int:
    """Issue a load at ``node`` and run until it completes."""
    results = _await(
        system, cycles, lambda done: system.cache_controllers[node].load(addr, done)
    )
    assert results, f"load of 0x{addr:x} at node {node} never completed"
    return results[0]


def sync_store(
    system: System, node: int, addr: int, value: int, cycles: int = 50_000
) -> int:
    """Issue a store at ``node`` and run until it performs."""
    results = _await(
        system,
        cycles,
        lambda done: system.cache_controllers[node].store(addr, value, done),
    )
    assert results, f"store to 0x{addr:x} at node {node} never performed"
    return results[0]


def sync_atomic(
    system: System, node: int, addr: int, value: int, cycles: int = 50_000
) -> int:
    results = _await(
        system,
        cycles,
        lambda done: system.cache_controllers[node].atomic(addr, value, done),
    )
    assert results
    return results[0]


def unexpected_count(system: System) -> int:
    """Total 'unexpected message' counters (must be 0 fault-free)."""
    return sum(
        v
        for k, v in system.stats.as_dict().items()
        if "unexpected" in str(k)
    )


@pytest.fixture(params=[ProtocolKind.DIRECTORY, ProtocolKind.SNOOPING])
def protocol(request):
    """Parametrise a test over both coherence protocols."""
    return request.param
