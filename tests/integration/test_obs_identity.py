"""Observability must never change results: obs on == obs off, bit for bit.

The acceptance property of the observability plane: a machine built
with ``obs=True`` yields the same violations, the same stats counters,
and the same cycle count as one built without it.  These tier-1 tests
check it directly; the ledger's exact ``layer.obs.calls`` count gate
keeps the unobserved path's cost fixed.  The environment switches that
used to turn observability on for a whole process are retired and must
stay inert.
"""

import pytest

from repro.config import ProtocolKind, SystemConfig
from repro.obs import NULL_TIMER
from repro.obs.export import snapshot_system
from repro.parallel import RunSpec
from repro.system.builder import build_system

SPEC = RunSpec(SystemConfig.protected().with_seed(3), "oltp", 80)


def run_payload(spec, **kwargs):
    """(system, deterministic payload) of one run of ``spec``."""
    system = build_system(spec.config, workload=spec.workload, ops=spec.ops, **kwargs)
    result = system.run()
    reports = [
        (r.checker, r.cycle, r.node, r.kind, r.detail) for r in result.violations
    ]
    payload = (
        result.cycles,
        result.completed,
        reports,
        system.scheduler.events_processed,
        system.stats.counters(),
    )
    return system, payload


class TestObsIdentity:
    def test_metrics_bit_identical_with_obs_on(self):
        plain, base = run_payload(SPEC)
        observed, payload = run_payload(SPEC, obs=True)
        # Full deterministic payload: cycles, completion, violations,
        # events and every stats counter.
        assert base == payload
        assert plain.obs_phases is NULL_TIMER
        assert observed.obs_phases is not NULL_TIMER

    def test_violation_reports_identical(self):
        spec = RunSpec(SystemConfig.protected().with_seed(5), "oltp", 80)
        _, base = run_payload(spec)
        system, payload = run_payload(spec, obs=True)
        assert base == payload
        assert system.obs_phases is not NULL_TIMER

    def test_snapshot_layers_cover_every_subsystem(self):
        system, _ = run_payload(SPEC, obs=True)
        snapshot = snapshot_system(system)
        assert set(snapshot) == {"counters", "phases", "layers"}
        assert snapshot["counters"] == system.stats.counters()
        layers = snapshot["layers"]
        assert layers["scheduler"]["events_processed"] > 0
        assert layers["scheduler"]["buckets_drained"] > 0
        # Occupancy is counted after each drain: same-cycle posts and
        # the late lane run in the bucket, so every event is in it.
        assert (
            layers["scheduler"]["bucket_events"]
            == layers["scheduler"]["events_processed"]
        )
        assert layers["networks"]["data"]["messages_sent"] > 0
        assert layers["caches"]["l1.0"]["accesses"] > 0
        assert layers["dvmc"]["violations"] == len(system.violations)
        assert layers["dvmc"]["cc"]["met_probes"] >= 0
        phases = snapshot["phases"]["exclusive"]
        assert set(phases) == {"simulate", "verify", "drain", "serialize"}

    def test_snooping_snapshot_covers_the_address_network(self):
        config = SystemConfig.protected(protocol=ProtocolKind.SNOOPING)
        system, _ = run_payload(RunSpec(config.with_seed(3), "oltp", 40), obs=True)
        snapshot = snapshot_system(system)
        assert snapshot["counters"] == system.stats.counters()
        assert snapshot["counters"]["net.addr.link.root-0"] > 0
        assert snapshot["layers"]["networks"]["addr"]["messages_sent"] > 0
        scheduler = snapshot["layers"]["scheduler"]
        assert scheduler["bucket_events"] == scheduler["events_processed"]


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
    assert system.obs_phases is NULL_TIMER
    assert system.spans is None
    assert not (tmp_path / "tail.jsonl").exists()
    assert not (tmp_path / "trace.json").exists()
    assert payload == base
