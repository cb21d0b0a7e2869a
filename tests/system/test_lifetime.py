"""Machine lifetime: a dropped machine frees itself, finished or not.

Nothing inside a machine refers to its System, no part refers to
itself, and the System cuts the few links a running machine needs in
both directions when it is freed.  Reference counting therefore
reclaims every part the moment the last reference to the System goes,
and the cycle collector finds nothing.  Each check pauses the
collector, so a machine that only a collection could free shows up as
a live weak reference, and its garbage as a non-zero ``gc.collect()``.
"""

import contextlib
import gc
import sys
import weakref
from unittest import mock

import pytest

import repro.faults.campaign as campaign
import repro.fuzz as fuzz
from repro.common.errors import ConfigError
from repro.config import ProtocolKind, SystemConfig
from repro.consistency.models import ConsistencyModel
from repro.faults.injector import FaultKind
from repro.fuzz import FuzzCase
from repro.system import builder
from repro.system.builder import build_system


@contextlib.contextmanager
def watch_builds(module):
    """Weak references to every System that ``module.build_system``
    builds inside the block."""
    refs = []

    def build_and_watch(*args, **kwargs):
        system = build_system(*args, **kwargs)
        refs.append(weakref.ref(system))
        return system

    with mock.patch.object(module, "build_system", build_and_watch):
        yield refs


def assert_freed_on_drop(run):
    """``run()`` builds, runs and drops machines with the collector
    paused, returning weak references to their parts; every part must
    already be gone, leaving nothing for a collection."""
    gc.collect()
    gc.disable()
    try:
        refs = run()
        assert refs
        assert [ref() for ref in refs] == [None] * len(refs)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("options", [{}, {"spans": True}], ids=["plain", "spans"])
@pytest.mark.parametrize("model", list(ConsistencyModel), ids=lambda m: m.name)
@pytest.mark.parametrize("protected", [False, True], ids=["unprotected", "protected"])
@pytest.mark.parametrize("protocol", list(ProtocolKind), ids=lambda p: p.name)
def test_finished_machine_is_freed_on_drop(protocol, protected, model, options):
    factory = SystemConfig.protected if protected else SystemConfig.unprotected
    config = factory(model=model, protocol=protocol, num_nodes=4)

    def run():
        system = build_system(config, workload="oltp", ops=40, **options)
        system.run_cycles(200)
        system.run()
        return [weakref.ref(system), weakref.ref(system.cores[0])]

    assert_freed_on_drop(run)


@pytest.mark.parametrize("model", list(ConsistencyModel), ids=lambda m: m.name)
@pytest.mark.parametrize("protocol", list(ProtocolKind), ids=lambda p: p.name)
def test_machine_stopped_mid_run_is_freed_on_drop(protocol, model):
    # A run cut short leaves ops in flight, queued at the caches,
    # parked on the cores' wait sets and armed on the wake hub, each
    # with a callback into its core.
    config = SystemConfig.protected(model=model, protocol=protocol, num_nodes=4)

    def run():
        system = build_system(config, workload="oltp", ops=60)
        result = system.run(max_cycles=1000, allow_incomplete=True)
        assert not result.completed
        return [weakref.ref(system), weakref.ref(system.cores[0])]

    assert_freed_on_drop(run)


def _run_in_a_cycle(config):
    system = build_system(config, workload="oltp", ops=40)
    run = system.run
    system.run = lambda *args, **kwargs: run(*args, **kwargs)
    system.run()
    return [weakref.ref(system), weakref.ref(system.cores[0])]


def test_machine_in_a_cycle_is_freed_by_one_collection():
    # A caller that stores a closure over ``system.run`` on the machine
    # (a timing wrapper, say) keeps it in a cycle, so the collector
    # runs the System's teardown.  One collection must then free every
    # part, not move them to an older generation to wait for the next.
    gc.collect()
    gc.disable()
    try:
        refs = _run_in_a_cycle(SystemConfig.protected(num_nodes=2))
        assert refs[0]() is not None
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "case",
    [
        FuzzCase(model="TSO", seed=1, litmus="st0.1,ld1;st1.9,ld0", name="SB"),
        FuzzCase(model="PSO", seed=7, nodes=3, ops=30),
        FuzzCase(
            model="SC",
            seed=85538,
            nodes=3,
            ops=33,
            fault="msg-misroute",
            fault_cycle=311,
        ),
    ],
    ids=["litmus", "random", "fault"],
)
def test_fuzz_case_machine_is_freed_on_drop(case):
    def run():
        with watch_builds(fuzz) as refs:
            fuzz.run_case(case)
        return refs

    assert_freed_on_drop(run)


@pytest.mark.parametrize("kind", list(FaultKind), ids=lambda k: k.value)
@pytest.mark.parametrize("protocol", list(ProtocolKind), ids=lambda p: p.name)
def test_fault_trial_machine_is_freed_on_drop(protocol, kind):
    # The trial's injector (its finalizer, queued retries and network
    # hooks) and violation callback live inside the machine, so none
    # may refer to its System, whether the fault lands or not.  A
    # dropped or misrouted message hangs the machine, leaving ops in
    # flight, queued at the caches and parked on the cores' wait sets.
    def run():
        with watch_builds(campaign) as refs:
            campaign.run_trial(
                SystemConfig.protected(num_nodes=2, protocol=protocol),
                "oltp",
                40,
                kind,
                inject_cycle=300,
                seed=1,
            )
        return refs

    assert_freed_on_drop(run)


def _fail_at_cores(*args, **kwargs):
    raise RuntimeError("core construction failed")


@pytest.mark.parametrize(
    "config, patch, error",
    [
        # ``config.validate()`` raises before any attribute exists.
        (SystemConfig(num_nodes=0), None, ConfigError),
        # Networks, controllers and checkers exist; cores do not.
        (SystemConfig.protected(num_nodes=2), "Core", RuntimeError),
    ],
    ids=["invalid-config", "mid-build"],
)
def test_half_built_machine_is_freed_quietly(monkeypatch, config, patch, error):
    # An exception raised while the System is freed is only printed by
    # the interpreter; catch it here so the test fails on it.
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    if patch is not None:
        monkeypatch.setattr(builder, patch, _fail_at_cores)
    with pytest.raises(error):
        build_system(config)
    gc.collect()
    assert unraisable == []
