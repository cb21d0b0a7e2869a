"""System construction and top-level run loop."""

import inspect
import itertools

import pytest

from repro.coherence.snooping import (
    SnoopingCacheController,
    SnoopingMemoryController,
)
from repro.common.errors import ConfigError, DeadlockError
from repro.config import DVMCConfig, ProtocolKind, SafetyNetConfig, SystemConfig
from repro.consistency.models import ConsistencyModel
from repro.interconnect.broadcast import BroadcastTreeNetwork
from repro.obs.spans import SpanRecorder
from repro.processor.operations import Load, Store
from repro.system import builder
from repro.system.builder import PHASES, build_system

from tests.conftest import bare_system, idle_program


class TestConstruction:
    def test_directory_wiring(self):
        system = bare_system(ProtocolKind.DIRECTORY, num_nodes=4)
        assert len(system.cores) == 4
        assert len(system.cache_controllers) == 4
        assert len(system.memory_controllers) == 4
        assert system.address_network is None
        assert system.data_network is not None

    def test_snooping_wiring(self):
        system = bare_system(ProtocolKind.SNOOPING, num_nodes=4)
        assert system.address_network is not None
        assert system.cache_controllers[0].logical_time is system.logical_time

    @pytest.mark.parametrize("protected", [False, True], ids=["unprotected", "protected"])
    def test_snoop_tick_counts_every_ordered_request(self, protected):
        """Snooping logical time counts the ordered requests a node has
        seen, and every node sees every request: after a run, each
        node's count is the address network's message count."""
        factory = SystemConfig.protected if protected else SystemConfig.unprotected
        config = factory(protocol=ProtocolKind.SNOOPING, num_nodes=4)
        system = build_system(config, workload="oltp", ops=100)
        system.run()
        sent = system.address_network.messages_sent
        assert sent > 0
        assert [system.logical_time.now(n) for n in range(4)] == [sent] * 4

    def test_snoop_bus_shows_each_request_to_every_cache_and_its_home(
        self, monkeypatch
    ):
        """Each ordered request is the one message its sender built: in
        the cycle the broadcast tree delivers it, it reaches every
        cache once, in node order, and only its home memory controller,
        right after the home node's cache."""
        sent, deliveries = [], []
        real_send = BroadcastTreeNetwork.send

        def send(net, msg):
            sent.append(msg)
            real_send(net, msg)

        monkeypatch.setattr(BroadcastTreeNetwork, "send", send)
        for cls, who in (
            (SnoopingCacheController, "cache"),
            (SnoopingMemoryController, "memory"),
        ):

            def handle_snoop(ctrl, msg, real=cls.handle_snoop, who=who):
                deliveries.append((msg, who, ctrl.node, ctrl.scheduler.now))
                real(ctrl, msg)

            monkeypatch.setattr(cls, "handle_snoop", handle_snoop)
        config = SystemConfig.protected(protocol=ProtocolKind.SNOOPING, num_nodes=4)
        system = build_system(config, workload="oltp", ops=60)
        system.run()
        assert len(sent) == system.address_network.order_count > 0
        assert len(deliveries) == 5 * len(sent)
        for msg in sent:
            got = [d for d in deliveries if d[0] is msg]
            home = system.home_of(msg.addr)
            expected = [("cache", n) for n in range(4)]
            expected.insert(home + 1, ("memory", home))
            assert [(who, node) for _, who, node, _ in got] == expected
            assert len({cycle for *_, cycle in got}) == 1

    @pytest.mark.parametrize(
        "dvmc, safetynet",
        [
            (DVMCConfig.disabled(), SafetyNetConfig.disabled()),
            (DVMCConfig(), SafetyNetConfig()),
            (DVMCConfig.disabled(), SafetyNetConfig()),
            (DVMCConfig.coherence_only(), SafetyNetConfig.disabled()),
        ],
        ids=["unprotected", "protected", "sn-only", "cc-only"],
    )
    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    def test_controllers_hold_their_observers(self, protocol, dvmc, safetynet):
        """Each controller calls the one observer of each event it
        raises: the CC checker, SafetyNet, and its own core, whose link
        the machine cuts when it is freed."""
        config = SystemConfig(
            num_nodes=2, protocol=protocol, dvmc=dvmc, safetynet=safetynet
        )
        system = build_system(config, programs=[idle_program(), idle_program()])
        checker = system.dvmc.coherence_checker
        assert (checker is not None) == dvmc.enable_coherence
        assert (system.safetynet is not None) == safetynet.enabled
        for n, (cache_ctrl, mem_ctrl) in enumerate(
            zip(system.cache_controllers, system.memory_controllers)
        ):
            assert cache_ctrl.checker is checker
            assert mem_ctrl.checker is checker
            assert cache_ctrl.safetynet is system.safetynet
            assert cache_ctrl.core is system.cores[n]
        system._unlink()
        assert [c.core for c in system.cache_controllers] == [None, None]

    def test_checkers_follow_config(self):
        system = bare_system(dvmc=True)
        assert len(system.dvmc.uo_checkers) == 4
        assert len(system.dvmc.ar_checkers) == 4
        assert system.dvmc.coherence_checker is not None

    def test_unprotected_has_no_checkers(self):
        system = bare_system(dvmc=False)
        assert not system.dvmc.enabled

    def test_partial_checker_configs(self):
        config = SystemConfig(num_nodes=2, dvmc=DVMCConfig.coherence_only())
        system = build_system(config, programs=[idle_program(), idle_program()])
        assert system.dvmc.coherence_checker is not None
        assert not system.dvmc.uo_checkers

    def test_home_interleaving_covers_all_nodes(self):
        system = bare_system(num_nodes=4)
        homes = {system.home_of(block * 64) for block in range(16)}
        assert homes == {0, 1, 2, 3}

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SystemConfig(num_nodes=0).validate()

    def test_spans_is_the_only_option(self):
        options = [
            p.name
            for p in inspect.signature(build_system).parameters.values()
            if p.kind is p.KEYWORD_ONLY
        ]
        assert options == ["spans"]
        with pytest.raises(TypeError):
            build_system(SystemConfig.protected(num_nodes=2), obs=True)

    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    def test_spans_wire_one_recorder_everywhere(self, protocol):
        config = SystemConfig.protected(protocol=protocol, num_nodes=2)

        def record_sites(spans):
            system = build_system(
                config, programs=[idle_program(), idle_program()], spans=spans
            )
            sites = [
                system.data_network,
                *system.cache_controllers,
                *system.memory_controllers,
                system.dvmc.coherence_checker,
                system.safetynet,
                *system.cores,
                *system.dvmc.uo_checkers,
                *system.dvmc.ar_checkers,
            ]
            if system.address_network is not None:
                sites.append(system.address_network)
            return system, sites

        plain, sites = record_sites(False)
        assert plain.spans is None
        assert all(site.spans is None for site in sites)
        recorded, sites = record_sites(True)
        assert isinstance(recorded.spans, SpanRecorder)
        assert all(site.spans is recorded.spans for site in sites)
        tracks = set(recorded.spans.track_names())
        assert {"core.0", "core.1", "cache.0", "cache.1", "safetynet"} <= tracks


class TestRunLoop:
    def test_completes_and_reports(self):
        def prog():
            yield Store(0x2_0000, 1)

        config = SystemConfig.unprotected(num_nodes=1)
        system = build_system(config, programs=[prog()])
        result = system.run()
        assert result.completed
        assert result.cycles > 0

    def test_every_run_adds_to_its_four_phases(self, monkeypatch):
        # A fake clock reading n**2 on its n-th call: the five reads of
        # the first run give 0, 1, 4, 9, 16; the second's 25 ... 81.
        reads = itertools.count()
        monkeypatch.setattr(builder, "perf_counter", lambda: next(reads) ** 2)
        system = build_system(SystemConfig.protected(num_nodes=2), ops=20)
        assert system.phase_s == dict.fromkeys(PHASES, 0.0)
        system.run()
        assert system.phase_s == dict(zip(PHASES, (1, 3, 5, 7)))
        system.run()
        assert system.phase_s == dict(zip(PHASES, (12, 16, 20, 24)))

    def test_deadlock_raises_without_allow_incomplete(self):
        def stuck():
            while True:
                yield Load(0x2_0000) == 0xFFFF and None  # spins forever

        def spin_forever():
            while (yield Load(0x2_0000)) != 0xFFFF:
                pass

        config = SystemConfig.unprotected(num_nodes=1)
        system = build_system(config, programs=[spin_forever()])
        with pytest.raises(DeadlockError):
            system.run(max_cycles=20_000)

    def test_deadlocked_run_still_adds_its_phases(self, monkeypatch):
        # The deadline is checked after the last phase: a run that
        # raises has verified, drained and been timed like any other.
        reads = itertools.count()
        monkeypatch.setattr(builder, "perf_counter", lambda: next(reads) ** 2)

        def spin_forever():
            while (yield Load(0x2_0000)) != 0xFFFF:
                pass

        config = SystemConfig.unprotected(num_nodes=1)
        system = build_system(config, programs=[spin_forever()])
        scheduler, drained = system.scheduler, []
        system.finalizers.append(lambda: drained.append(scheduler.now))
        with pytest.raises(DeadlockError):
            system.run(max_cycles=20_000)
        assert drained == [20_000]
        assert system.phase_s == dict(zip(PHASES, (1, 3, 5, 7)))

    def test_deadline_already_passed_keeps_time(self):
        """``run(max_cycles=N)`` on a machine already past cycle N runs
        nothing and leaves the clock where it was."""

        def spin_forever():
            while (yield Load(0x2_0000)) != 0xFFFF:
                pass

        config = SystemConfig.unprotected(num_nodes=1)
        system = build_system(config, programs=[spin_forever()])
        system.run(max_cycles=20_000, allow_incomplete=True)
        events = system.scheduler.events_processed
        result = system.run(max_cycles=5_000, allow_incomplete=True)
        assert result.cycles == system.scheduler.now == 20_000
        assert system.scheduler.events_processed == events

    def test_allow_incomplete(self):
        def spin_forever():
            while (yield Load(0x2_0000)) != 0xFFFF:
                pass

        config = SystemConfig.unprotected(num_nodes=1)
        system = build_system(config, programs=[spin_forever()])
        result = system.run(max_cycles=20_000, allow_incomplete=True)
        assert not result.completed


class TestConfigHelpers:
    def test_with_helpers_chain(self):
        config = (
            SystemConfig()
            .with_model(ConsistencyModel.RMO)
            .with_protocol(ProtocolKind.SNOOPING)
            .with_nodes(2)
            .with_seed(9)
            .with_link_bandwidth(1.0)
        )
        assert config.model is ConsistencyModel.RMO
        assert config.protocol is ProtocolKind.SNOOPING
        assert config.num_nodes == 2
        assert config.seed == 9
        assert config.network.link_bandwidth_gbps == 1.0

    def test_unprotected_preset(self):
        config = SystemConfig.unprotected()
        assert not config.dvmc.any_enabled
        assert not config.safetynet.enabled

    def test_protected_preset(self):
        config = SystemConfig.protected()
        assert config.dvmc.any_enabled
        assert config.safetynet.enabled

    def test_network_arithmetic(self):
        net = SystemConfig().network
        assert net.bytes_per_cycle == 2.5 / 2.0
        assert net.serialization_cycles(72) == round(72 / 1.25)
