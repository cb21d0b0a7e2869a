"""Observability must never change results, and covers every layer.

Every machine times its run phases and keeps an ``obs_snapshot()`` view
of each layer; ``snapshot_system`` exports them beside the machine's
counters, and taking it, mid-run or after, changes nothing: an observed
machine yields the same violations, stats counters and cycle count as
one nobody looked at.  The flight recorder (``spans=True``) is the only
observability option a machine has:
``tests/integration/test_spans_identity.py`` holds it to bit identity
with ``run_payload`` below.  The environment switches that used to
turn observability on for a whole process are retired and must stay
inert.
"""

import pytest

from repro.config import ProtocolKind, SystemConfig
from repro.faults.injector import FaultInjector, FaultKind, FaultPlan
from repro.obs.export import format_phase_table, snapshot_system, to_prometheus
from repro.parallel import RunSpec
from repro.system.builder import PHASES, build_system

SPEC = RunSpec(SystemConfig.protected().with_seed(3), "oltp", 80)


def payload_of(system, result):
    """The deterministic payload of a finished run."""
    reports = [
        (r.checker, r.cycle, r.node, r.kind, r.detail) for r in result.violations
    ]
    return (
        result.cycles,
        result.completed,
        reports,
        system.scheduler.events_processed,
        system.stats.counters(),
    )


def run_payload(spec, **kwargs):
    """(system, deterministic payload) of one run of ``spec``."""
    system = build_system(spec.config, workload=spec.workload, ops=spec.ops, **kwargs)
    return system, payload_of(system, system.run())


def two_leg_payload(spec, observe, fault=None):
    """Payload of ``spec`` run to cycle 300 and then to the end, with
    ``observe(system)`` called after each leg and ``fault`` injected
    at cycle 200."""
    system = build_system(spec.config, workload=spec.workload, ops=spec.ops)
    if fault is not None:
        FaultInjector(system, seed=1).arm(FaultPlan(fault, 200))
    system.run(max_cycles=300, allow_incomplete=True)
    observe(system)
    result = system.run(allow_incomplete=True)
    observe(system)
    return payload_of(system, result)


def export(snapshots):
    """An observer that does what ``run --obs-dir`` does with a
    machine, keeping each snapshot."""

    def observe(system):
        snapshot = snapshot_system(system)
        to_prometheus(snapshot)
        format_phase_table(snapshot)
        snapshots.append(snapshot)

    return observe


class TestObsIdentity:
    def test_metrics_bit_identical_when_observed(self):
        snapshots = []
        base = two_leg_payload(SPEC, lambda system: None)
        payload = two_leg_payload(SPEC, export(snapshots))
        # Full deterministic payload: cycles, completion, violations,
        # events and every stats counter.
        assert base == payload
        # The first snapshot saw the machine mid-run.
        assert snapshots[0]["layers"]["scheduler"]["now"] == 300 < base[0]
        assert snapshots[0]["layers"]["scheduler"]["pending"] > 0

    @pytest.mark.parametrize("protocol", list(ProtocolKind), ids=lambda p: p.name)
    def test_violation_reports_identical_when_observed(self, protocol):
        config = SystemConfig.protected(protocol=protocol, num_nodes=2)
        spec = RunSpec(config.with_seed(5), "oltp", 60)
        snapshots = []
        fault = FaultKind.LSQ_WRONG_VALUE
        base = two_leg_payload(spec, lambda system: None, fault)
        payload = two_leg_payload(spec, export(snapshots), fault)
        assert base == payload
        reports = payload[2]
        assert reports
        assert snapshots[1]["layers"]["dvmc"]["violations"] == len(reports)

    def test_snapshot_layers_cover_every_subsystem(self):
        system, _ = run_payload(SPEC)
        snapshot = snapshot_system(system)
        assert set(snapshot) == {"counters", "phases", "layers"}
        assert snapshot["counters"] == system.stats.counters()
        layers = snapshot["layers"]
        scheduler = layers["scheduler"]
        assert set(scheduler) == {"events_processed", "pending", "now"}
        assert scheduler["events_processed"] == system.scheduler.events_processed
        assert scheduler["events_processed"] > 0
        assert layers["networks"]["data"]["messages_sent"] > 0
        assert layers["caches"]["l1.0"]["accesses"] > 0
        assert layers["dvmc"]["violations"] == len(system.violations)
        cc = layers["dvmc"]["cc"]
        assert cc["informs_processed"] == sum(
            value
            for key, value in snapshot["counters"].items()
            if key.startswith("dvcc.") and key.endswith(".informs_processed")
        )
        assert snapshot["phases"] == system.phase_s
        assert set(snapshot["phases"]) == set(PHASES)

    def test_snooping_snapshot_covers_the_address_network(self):
        config = SystemConfig.protected(protocol=ProtocolKind.SNOOPING)
        system, _ = run_payload(RunSpec(config.with_seed(3), "oltp", 40))
        snapshot = snapshot_system(system)
        assert snapshot["counters"] == system.stats.counters()
        assert snapshot["counters"]["net.addr.link.root-0"] > 0
        assert snapshot["layers"]["networks"]["addr"]["messages_sent"] > 0
        scheduler = snapshot["layers"]["scheduler"]
        assert scheduler["events_processed"] == system.scheduler.events_processed


#: The four ways a process could turn observability on before
#: ``build_system`` took it by argument.  ``{tmp}`` is the test's
#: temporary directory.
RETIRED_SWITCHES = {
    "obs": {"REPRO_OBS": "1"},
    "op-tail": {
        "REPRO_OBS_TRACE": "{tmp}/tail.jsonl",
        "REPRO_OBS_TRACE_CAP": "16",
        "REPRO_OBS_TRACE_SAMPLE": "2",
    },
    "spans": {
        "REPRO_OBS_SPANS": "1",
        "REPRO_OBS_SPANS_SAMPLE": "1",
        "REPRO_OBS_SPANS_CAP": "16",
    },
    "spans-chrome": {
        "REPRO_OBS_SPANS": "1",
        "REPRO_OBS_SPANS_OUT": "{tmp}/trace.json",
    },
}


@pytest.mark.parametrize("name", sorted(RETIRED_SWITCHES))
def test_retired_switches_are_inert(name, monkeypatch, tmp_path):
    spec = RunSpec(SystemConfig.protected().with_nodes(2).with_seed(3), "oltp", 40)
    _, base = run_payload(spec)
    for var, value in RETIRED_SWITCHES[name].items():
        monkeypatch.setenv(var, value.format(tmp=tmp_path))
    system, payload = run_payload(spec)
    assert system.spans is None
    assert not (tmp_path / "tail.jsonl").exists()
    assert not (tmp_path / "trace.json").exists()
    assert payload == base
