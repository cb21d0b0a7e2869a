"""Wakeup-vs-poll kernel identity: same machine, fewer events.

The wake-on-change kernel (``repro.common.waitsets``) replaces the
fixed-period retry polls of blocked operations with parked waiters and
explicit notifies.  ``REPRO_POLL=1`` restores the poll regime.  The
two modes must simulate the *identical machine*: same violations, same
final memory image, same cycle count, and the same value for every
stats counter.  Only the raw event count may differ — eliding a spin
poll removes a simulator event, never an architectural one — so the
comparison zeroes ``events_processed`` (and drops the obs snapshot)
before asserting ``RunMetrics`` equality.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.system.builder as builder
from repro.config import ProtocolKind, SystemConfig
from repro.consistency.models import ConsistencyModel
from repro.parallel import RunSpec, execute_run_spec
from repro.system.builder import build_system
from repro.workloads import WORKLOAD_NAMES
from tests.common.test_events import _HeapScheduler

MODELS = [
    ConsistencyModel.SC,
    ConsistencyModel.TSO,
    ConsistencyModel.PSO,
    ConsistencyModel.RMO,
]


def stripped(metrics):
    """RunMetrics minus the fields wake mode is allowed to change."""
    return dataclasses.replace(metrics, events_processed=0, obs=None)


def run_mode(spec, monkeypatch, poll: bool):
    if poll:
        monkeypatch.setenv("REPRO_POLL", "1")
    else:
        monkeypatch.delenv("REPRO_POLL", raising=False)
    return execute_run_spec(spec)


class TestWakeupIdentity:
    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    @pytest.mark.parametrize("model", MODELS)
    def test_modes_identical_across_protocol_and_model(
        self, protocol, model, monkeypatch
    ):
        spec = RunSpec(
            SystemConfig.protected(
                protocol=protocol, model=model, num_nodes=4
            ).with_seed(7),
            "oltp",
            40,
        )
        wake = run_mode(spec, monkeypatch, poll=False)
        poll = run_mode(spec, monkeypatch, poll=True)
        assert stripped(wake) == stripped(poll)
        assert wake.counters == poll.counters
        assert wake.completed and poll.completed
        # The point of the change: wake mode elides spin polls.
        assert wake.events_processed <= poll.events_processed

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
            if poll:
                monkeypatch.setenv("REPRO_POLL", "1")
            else:
                monkeypatch.delenv("REPRO_POLL", raising=False)
            system = build_system(config, workload="barnes", ops=60)
            result = system.run()
            return result.cycles, system.memory_image()

        wake_cycles, wake_image = image(poll=False)
        poll_cycles, poll_image = image(poll=True)
        assert wake_cycles == poll_cycles
        assert wake_image == poll_image

    def test_identity_holds_on_heap_reference_kernel(self, monkeypatch):
        # The identity rests on the kernel contract (late lanes, halt at
        # a cycle boundary), not on calendar-queue internals.
        monkeypatch.setattr(builder, "Scheduler", _HeapScheduler)
        spec = RunSpec(
            SystemConfig.protected(num_nodes=2).with_seed(3), "oltp", 40
        )
        wake = run_mode(spec, monkeypatch, poll=False)
        poll = run_mode(spec, monkeypatch, poll=True)
        assert stripped(wake) == stripped(poll)
        assert wake.completed and poll.completed

    def test_eager_check_mode_identical(self, monkeypatch):
        # Wakeup plane composes with the per-event checking plane.
        monkeypatch.setenv("REPRO_EAGER_CHECK", "1")
        spec = RunSpec(
            SystemConfig.protected(num_nodes=2).with_seed(9), "jbb", 40
        )
        wake = run_mode(spec, monkeypatch, poll=False)
        poll = run_mode(spec, monkeypatch, poll=True)
        assert stripped(wake) == stripped(poll)
