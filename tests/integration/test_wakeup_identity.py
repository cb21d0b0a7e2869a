"""Wakeup-vs-poll kernel identity: same machine, fewer events.

The wake-on-change kernel (``repro.common.waitsets``) replaces the
fixed-period retry polls of blocked operations with parked waiters and
explicit notifies.  ``PollingHub`` (``tests/common/test_waitsets.py``)
is the poll regime it replaced, kept as a reference: every system here
is built twice, once on ``WakeHub`` and once on the reference through
a monkeypatched ``builder.WakeHub``.  The two must simulate the
*identical machine*: same violations, same final memory image, same
cycle count, and the same value for every stats counter.  Only the
raw event count may differ — eliding a spin poll removes a simulator
event, never an architectural one — so the comparison zeroes
``events_processed`` (and drops the obs snapshot) before asserting
``RunMetrics`` equality.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.system.builder as builder
from repro.common.waitsets import WakeHub
from repro.config import ProtocolKind, SystemConfig
from repro.consistency.models import ConsistencyModel
from repro.dvmc.reordering import AllowableReorderingChecker
from repro.parallel import RunSpec, execute_run_spec
from repro.system.builder import build_system
from repro.workloads import WORKLOAD_NAMES
from tests.common.test_events import _HeapScheduler
from tests.common.test_waitsets import PollingHub

MODELS = [
    ConsistencyModel.SC,
    ConsistencyModel.TSO,
    ConsistencyModel.PSO,
    ConsistencyModel.RMO,
]

#: Largest share of the polling reference's events the wake plane may
#: process on the oltp matrix below.  It processes about 0.55 of them.
WAKE_EVENT_SHARE = 0.65


def stripped(metrics):
    """RunMetrics minus the fields wake mode is allowed to change."""
    return dataclasses.replace(metrics, events_processed=0)


def use_hub(monkeypatch, poll: bool):
    """Build every later system on the polling reference or the wake hub."""
    monkeypatch.setattr(builder, "WakeHub", PollingHub if poll else WakeHub)


def run_mode(spec, monkeypatch, poll: bool):
    use_hub(monkeypatch, poll)
    return execute_run_spec(spec)


def matrix_spec(protocol, model):
    return RunSpec(
        SystemConfig.protected(
            protocol=protocol, model=model, num_nodes=4
        ).with_seed(7),
        "oltp",
        40,
    )


class TestWakeupIdentity:
    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    @pytest.mark.parametrize("model", MODELS)
    def test_modes_identical_across_protocol_and_model(
        self, protocol, model, monkeypatch
    ):
        spec = matrix_spec(protocol, model)
        wake = run_mode(spec, monkeypatch, poll=False)
        poll = run_mode(spec, monkeypatch, poll=True)
        assert stripped(wake) == stripped(poll)
        assert wake.counters == poll.counters
        assert wake.completed and poll.completed
        assert wake.events_processed <= poll.events_processed

    def test_wake_plane_elides_spin_polls(self, monkeypatch):
        # The point of the wake plane, by exact count: summed over the
        # oltp matrix, it processes at most WAKE_EVENT_SHARE of the
        # events the polling reference needs for the same machine.
        wake_events = poll_events = 0
        for protocol in ProtocolKind:
            for model in MODELS:
                spec = matrix_spec(protocol, model)
                wake_events += run_mode(
                    spec, monkeypatch, poll=False
                ).events_processed
                poll_events += run_mode(
                    spec, monkeypatch, poll=True
                ).events_processed
        assert wake_events <= WAKE_EVENT_SHARE * poll_events

    @settings(
        max_examples=6,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        workload=st.sampled_from(sorted(WORKLOAD_NAMES)),
        model=st.sampled_from(MODELS),
        protocol=st.sampled_from(list(ProtocolKind)),
        seed=st.integers(min_value=0, max_value=2**16),
        ops=st.integers(min_value=10, max_value=60),
    )
    def test_randomized_workloads_identical(
        self, workload, model, protocol, seed, ops, monkeypatch
    ):
        spec = RunSpec(
            SystemConfig.protected(
                protocol=protocol, model=model, num_nodes=2
            ).with_seed(seed),
            workload,
            ops,
        )
        wake = run_mode(spec, monkeypatch, poll=False)
        poll = run_mode(spec, monkeypatch, poll=True)
        assert stripped(wake) == stripped(poll)

    def test_memory_images_identical(self, monkeypatch):
        config = SystemConfig.protected(num_nodes=4).with_seed(11)

        def image(poll):
            use_hub(monkeypatch, poll)
            system = build_system(config, workload="barnes", ops=60)
            result = system.run()
            return result.cycles, system.memory_image()

        wake_cycles, wake_image = image(poll=False)
        poll_cycles, poll_image = image(poll=True)
        assert wake_cycles == poll_cycles
        assert wake_image == poll_image

    def test_identity_holds_on_heap_reference_kernel(self, monkeypatch):
        # The identity rests on the kernel contract (late lanes, halt at
        # the end of a cycle), not on the kernel's own code.
        monkeypatch.setattr(builder, "Scheduler", _HeapScheduler)
        spec = RunSpec(
            SystemConfig.protected(num_nodes=2).with_seed(3), "oltp", 40
        )
        wake = run_mode(spec, monkeypatch, poll=False)
        poll = run_mode(spec, monkeypatch, poll=True)
        assert stripped(wake) == stripped(poll)
        assert wake.completed and poll.completed

    def test_eager_check_mode_identical(self, monkeypatch):
        # Wakeup plane composes with per-event checking: AR checkers
        # left without a streaming log check every event as it comes.
        monkeypatch.setattr(
            AllowableReorderingChecker, "attach_log", lambda self: None
        )
        spec = RunSpec(
            SystemConfig.protected(num_nodes=2).with_seed(9), "jbb", 40
        )
        wake = run_mode(spec, monkeypatch, poll=False)
        poll = run_mode(spec, monkeypatch, poll=True)
        assert stripped(wake) == stripped(poll)
