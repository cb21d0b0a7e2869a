"""Detection-plus-recovery: the end-to-end story of DVMC + SafetyNet."""

from repro.config import SystemConfig
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.system.builder import build_system


def test_memory_image_reconstruction_after_detection():
    """Run, snapshot the architectural image mid-flight, keep running,
    then roll back with SafetyNet: the reconstructed image matches the
    snapshot for every block that existed at snapshot time."""
    config = SystemConfig.protected(num_nodes=4)
    system = build_system(config, workload="jbb", ops=200)
    for core in system.cores:
        core.start()
    system.scheduler.run(until=4_000)
    snapshot_cycle = system.scheduler.now
    snapshot = system.memory_image()
    result = system.run(max_cycles=5_000_000)
    assert result.completed
    current = system.memory_image()
    rolled_back = system.safetynet.reconstruct_memory_image(
        current, error_cycle=snapshot_cycle
    )
    # The recovery point is the checkpoint covering snapshot_cycle, so
    # blocks written between that checkpoint and the snapshot may
    # legally differ; blocks untouched in that window must match.
    point = system.safetynet.recovery_point_for(snapshot_cycle)
    dirty_since_point = set()
    for ckpt in system.safetynet._checkpoints:
        if ckpt.index >= point.index:
            dirty_since_point |= set(ckpt.undo)
    mismatches = [
        hex(block)
        for block, data in snapshot.items()
        if block not in dirty_since_point and rolled_back.get(block) != data
    ]
    assert not mismatches, mismatches


def test_detection_before_checkpoint_expiry():
    """The paper's validity criterion: when DVMC flags an injected
    error, the checkpoint preceding the injection must still be live."""
    config = SystemConfig.protected(num_nodes=4)
    system = build_system(config, workload="oltp", ops=200)
    injector = FaultInjector(system, seed=21)
    inject_cycle = 5_000
    injector.arm(FaultPlan(FaultKind.WB_VALUE_FLIP, inject_cycle))

    outcome = {}

    def on_violation(report):
        if "cycle" not in outcome:
            outcome["cycle"] = report.cycle
            outcome["recoverable"] = system.safetynet.can_recover(
                inject_cycle, at=report.cycle
            )

    system.dvmc.violations.on_report = on_violation
    system.run(max_cycles=2_000_000, allow_incomplete=True)
    assert "cycle" in outcome, "fault was never detected"
    assert outcome["recoverable"]
    latency = outcome["cycle"] - inject_cycle
    assert latency < config.safetynet.recovery_window


def test_unprotected_system_misses_the_error():
    """Ablation: the same fault on an unprotected system is silent —
    demonstrating that DVMC is what provides detection."""
    config = SystemConfig.unprotected(num_nodes=4)
    system = build_system(config, workload="oltp", ops=150)
    injector = FaultInjector(system, seed=21)
    injector.arm(FaultPlan(FaultKind.LSQ_WRONG_VALUE, 3_000))
    result = system.run(max_cycles=2_000_000, allow_incomplete=True)
    assert injector.records[0].landed
    assert result.violations == []  # nothing watches; the error is silent
