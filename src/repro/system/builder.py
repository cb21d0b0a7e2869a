"""System assembly: config -> fully wired simulated machine.

Builds the interconnect(s), memory controllers, cache controllers,
cores, logical-time base, DVMC checkers and SafetyNet for either
protocol, and wires the observation hooks between them.  This is the
main entry point of the library::

    from repro import SystemConfig, build_system
    system = build_system(SystemConfig.protected(), workload="oltp", ops=500)
    result = system.run()
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.common.errors import ConfigError, DeadlockError
from repro.common.events import Scheduler
from repro.common.logical_time import (
    DirectoryLogicalTime,
    SnoopingLogicalTime,
)
from repro.common.stats import StatsRegistry
from repro.common.types import BLOCK_SIZE, CoherenceState, block_of
from repro.common.waitsets import WakeHub
from repro.config import ProtocolKind, SystemConfig
from repro.coherence.directory import (
    DirectoryCacheController,
    DirectoryMemoryController,
)
from repro.coherence.hooks import SystemHooks
from repro.coherence.messages import Coh, Dvcc, Sn
from repro.coherence.snooping import (
    SnoopingCacheController,
    SnoopingMemoryController,
)
from repro.dvmc.coherence_checker import CoherenceChecker
from repro.dvmc.framework import DVMC
from repro.dvmc.reordering import AllowableReorderingChecker
from repro.dvmc.uniprocessor import UniprocessorOrderingChecker
from repro.interconnect.broadcast import BroadcastTreeNetwork
from repro.interconnect.message import Message
from repro.interconnect.torus import TorusNetwork
from repro.memory.cache import CacheArray
from repro.memory.memory import MainMemory
from repro.obs import NULL_TIMER, PhaseTimer
from repro.obs.spans import SpanRecorder
from repro.processor.core import Core
from repro.recovery.safetynet import SafetyNet
from repro.workloads.suite import make_program

#: Directory logical-clock period (cycles per logical tick).
CLOCK_PERIOD = 10


def _home_map(num_nodes: int) -> Callable[[int], int]:
    """Home node of a block, block-interleaved across ``num_nodes``.

    A plain function of the node count, so the controllers and the CC
    checker that call it hold no reference to their System.
    """

    def home_of(addr: int) -> int:
        return (block_of(addr) // BLOCK_SIZE) % num_nodes

    return home_of


class RunResult:
    """Outcome of a simulation run."""

    def __init__(self, system: "System"):
        self.cycles = system.scheduler.now
        self.stats = system.stats
        self.violations = system.dvmc.violations.reports
        self.completed = all(core.quiescent for core in system.cores)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RunResult(cycles={self.cycles}, completed={self.completed}, "
            f"violations={len(self.violations)})"
        )


class System:
    """A fully wired machine (see :func:`build_system`).

    A component does not outlive its machine.  Nothing inside the
    machine refers to its System and no part refers to itself, so the
    few links a running machine needs in both directions (the event
    queue, the network handler tables, the hook subscriber lists, the
    write buffers' and AR checkers' links back to their cores) form its
    only reference cycles.  The System cuts them when it is freed, and
    reference counting then reclaims every part with it.
    """

    def __init__(self, config: SystemConfig):
        config.validate()
        self.config = config
        self._home_of = _home_map(config.num_nodes)
        self.scheduler = Scheduler()
        #: Shared wakeup hub: one per system so the end-of-cycle retry
        #: agenda interleaves all cores' blocked checks in one global
        #: (cycle, seq) order — the order a fixed-period poll would
        #: check them in.
        self.wake_hub = WakeHub(self.scheduler)
        self.stats = StatsRegistry()
        self.hooks = SystemHooks()
        self.cores: List[Core] = []
        self.cache_controllers: list = []
        self.memory_controllers: list = []
        self.memories: List[MainMemory] = []
        self.dvmc = DVMC()
        self.safetynet: Optional[SafetyNet] = None
        self.data_network: Optional[TorusNetwork] = None
        self.address_network: Optional[BroadcastTreeNetwork] = None
        self.logical_time = None
        #: Callbacks invoked after every :meth:`run` returns, e.g. a
        #: fault injector flushing a still-pending plan as not-landed.
        self.finalizers: List[Callable[[], None]] = []
        #: Phase timer (the null timer unless built with ``obs=True``;
        #: never feeds back into the simulation).
        self.obs_phases = NULL_TIMER
        #: Transaction flight recorder (a SpanRecorder when built with
        #: ``spans=True``; never feeds back into the run).
        self.spans: Optional[SpanRecorder] = None

    def __del__(self) -> None:
        self._unlink()

    def _unlink(self) -> None:
        """Cut the links a running machine needs in both directions.

        Parts are read with ``getattr``, because a System whose
        ``__init__`` or :func:`build_system` raised is freed half built.
        Not ``vars(self)``: inside a collection that would build the
        instance dict, and every part it names would then wait for the
        next full collection.
        """
        scheduler = getattr(self, "scheduler", None)
        if scheduler is not None:
            # A run that halts at quiescence leaves checker sweeps,
            # checkpoint clocks and injected-membar timers queued.
            scheduler.clear()
        hooks = getattr(self, "hooks", None)
        if hooks is not None:
            hooks.clear()
        for name in ("data_network", "address_network"):
            network = getattr(self, name, None)
            if network is not None:
                network.unlink()
        for core in getattr(self, "cores", ()):
            wb = core.wb
            if wb is not None:
                wb._issue = wb._on_perform = None
        dvmc = getattr(self, "dvmc", None)
        if dvmc is not None:
            for ar in dvmc.ar_checkers:
                ar.core = ar.table = None

    # -- address interleaving ------------------------------------------------
    def home_of(self, addr: int) -> int:
        """Home node of a block (block-interleaved across nodes)."""
        return self._home_of(addr)

    # -- running ---------------------------------------------------------------
    def run(
        self,
        max_cycles: int = 50_000_000,
        allow_incomplete: bool = False,
    ) -> RunResult:
        """Run until every core's program finishes and drains.

        Raises :class:`DeadlockError` if the deadline passes with work
        remaining (unless ``allow_incomplete``, used by fault campaigns
        where injected errors may legitimately hang the machine).
        """
        phases = self.obs_phases
        with phases.phase("simulate"):
            for core in self.cores:
                core.start()
            # Event-driven stop: each core reports quiescence exactly
            # once (via ``on_quiescent``); the last report halts the
            # kernel at the current bucket boundary, so the stop cycle
            # does not depend on how blocked checks retry.  The report
            # is wired for this phase only: :meth:`run_cycles`,
            # :meth:`drain_epochs` and :meth:`scrub_memory` advance time
            # unconditionally, and outside a run no core refers to its
            # System.
            for core in self.cores:
                core.on_quiescent = self._core_quiesced
            try:
                if all(core.quiescent for core in self.cores):
                    # Already drained before this run (e.g. a second
                    # ``run`` call): nothing will re-report, so halt
                    # up front.
                    self.scheduler.halt()
                self.scheduler.run(until=max_cycles)
            finally:
                for core in self.cores:
                    core.on_quiescent = None
        with phases.phase("verify"):
            self.dvmc.finalize()
        with phases.phase("drain"):
            for finalize in self.finalizers:
                finalize()
        with phases.phase("serialize"):
            result = RunResult(self)
            if self.spans is not None:
                self.spans.finalize(self.scheduler.now)
        if not result.completed and not allow_incomplete:
            stuck = [c.node for c in self.cores if not c.quiescent]
            raise DeadlockError(
                f"cores {stuck} did not finish by cycle {self.scheduler.now}"
            )
        return result

    def _core_quiesced(self) -> None:
        """A core's program finished and fully drained (reported once
        per core, inside :meth:`run`'s simulate phase).  When every
        core is quiescent, stop the kernel at the current bucket
        boundary."""
        if all(core.quiescent for core in self.cores):
            self.scheduler.halt()

    def run_cycles(self, cycles: int) -> None:
        """Advance the simulation by a bounded number of cycles."""
        for core in self.cores:
            core.start()
        self.scheduler.run(until=self.scheduler.now + cycles)

    # -- inspection ---------------------------------------------------------------
    def memory_image(self) -> Dict[int, List[int]]:
        """Architectural value of every touched block.

        A block's value lives at its owner cache (M/O) if one exists,
        else at its home memory.
        """
        image: Dict[int, List[int]] = {}
        for memory in self.memories:
            for block in memory.touched_blocks():
                image[block] = memory.read_block(block)
        for controller in self.cache_controllers:
            for line in controller.l1.lines():
                if line.state in (CoherenceState.M, CoherenceState.O):
                    image[line.addr] = list(line.data)
        return image

    def drain_epochs(self, settle_cycles: int = 20_000) -> None:
        """Evict every cache line so all epochs close and their
        Inform-Epochs reach the MET (used by fault campaigns to bound
        detection latency for faults that would otherwise be observed
        at the block's next natural epoch end)."""
        for controller in self.cache_controllers:
            for line in list(controller.l1.lines()):
                controller._evict(line)
        self.scheduler.run(until=self.scheduler.now + settle_cycles)
        self.dvmc.finalize()

    def scrub_memory(self, settle_cycles: int = 40_000) -> None:
        """Touch every memory-resident block once (a scrubber pass).

        Long-running servers eventually re-reference every live block;
        our benchmark runs are short, so fault campaigns use an explicit
        scrub to activate latent corruption the way hardware memory
        scrubbers do.  Each touched block opens and closes an epoch,
        driving the data-propagation check at its home MET.  The
        scrubber also reads DRAM directly at each home and cross-checks
        it against the MET's record of what was last stored there,
        catching corruption in blocks whose clean cached copies would
        otherwise mask it.
        """
        if self.dvmc.coherence_checker is not None:
            self.dvmc.coherence_checker.verify_memory()
        blocks = sorted(
            {
                block
                for memory in self.memories
                for block in memory.touched_blocks()
            }
        )
        for i, block in enumerate(blocks):
            controller = self.cache_controllers[i % self.config.num_nodes]
            controller.load(block, lambda _v: None)
        self.scheduler.run(until=self.scheduler.now + settle_cycles)

    @property
    def violations(self):
        return self.dvmc.violations.reports


def build_system(
    config: SystemConfig,
    workload: str = "oltp",
    ops: int = 400,
    programs: Optional[List] = None,
    *,
    obs: bool = False,
    spans: bool = False,
) -> System:
    """Construct a complete machine.

    Args:
        config: machine description.
        workload: name from :data:`repro.workloads.WORKLOAD_NAMES`
            (ignored when ``programs`` is given).
        ops: approximate per-core operation count for the workload.
        programs: optional explicit per-core generator list (length
            ``config.num_nodes``) for custom programs and litmus tests.
        obs: give the machine a phase timer and the kernel and
            checker obs counters.
        spans: give the machine a flight recorder, which records
            every memory operation and the infrastructure spans that
            belong to none.

    Neither option changes the simulated run: an observed or recorded
    machine produces the same cycles, violations and counters.
    """
    system = System(config)
    sched = system.scheduler
    stats = system.stats
    hooks = system.hooks
    home_of = system._home_of
    num = config.num_nodes

    # Observability -------------------------------------------------------
    if obs:
        system.obs_phases = PhaseTimer()
        sched.attach_obs()
    recorder = SpanRecorder() if spans else None
    system.spans = recorder

    # Memories -----------------------------------------------------------
    system.memories = [
        MainMemory(stats, config.memory.ecc_enabled, name=f"mem.{n}")
        for n in range(num)
    ]

    # Networks -----------------------------------------------------------
    system.data_network = TorusNetwork("data", sched, stats, num, config.network)
    if config.protocol is ProtocolKind.SNOOPING:
        system.address_network = BroadcastTreeNetwork(
            "addr", sched, stats, num, config.network
        )

    # Logical time ---------------------------------------------------------
    if config.protocol is ProtocolKind.SNOOPING:
        lt = SnoopingLogicalTime(num)
        hooks.on_snoop_tick(lt.tick)
    else:
        min_latency = config.network.link_latency + config.network.serialization_cycles(
            config.network.control_message_bytes
        )
        period = min(CLOCK_PERIOD, max(1, min_latency - 1))
        skews = [n % max(1, min_latency - 1) for n in range(num)]
        lt = DirectoryLogicalTime(sched, skews, period=period)
        if lt.max_skew_delta >= min_latency:
            raise ConfigError("clock skew exceeds minimum network latency")
    system.logical_time = lt

    # Controllers -----------------------------------------------------------
    for n in range(num):
        l1 = CacheArray(f"l1.{n}", config.l1, stats)
        if config.protocol is ProtocolKind.DIRECTORY:
            cache_ctrl = DirectoryCacheController(
                n, sched, stats, hooks, config, l1, system.data_network,
                home_of,
            )
            mem_ctrl = DirectoryMemoryController(
                n, sched, stats, hooks, config, system.memories[n],
                system.data_network,
            )
        else:
            cache_ctrl = SnoopingCacheController(
                n, sched, stats, hooks, config, l1,
                system.address_network, system.data_network, home_of,
            )
            mem_ctrl = SnoopingMemoryController(
                n, sched, stats, hooks, config, system.memories[n],
                system.data_network, home_of,
            )
        if config.protocol is ProtocolKind.SNOOPING:
            cache_ctrl.logical_time = lt
        system.cache_controllers.append(cache_ctrl)
        system.memory_controllers.append(mem_ctrl)

    # DVMC checkers -----------------------------------------------------------
    violations = system.dvmc.violations
    if config.dvmc.enable_coherence:
        system.dvmc.coherence_checker = CoherenceChecker(
            sched,
            stats,
            config,
            lt,
            home_of,
            system.memories,
            system.data_network.send,
            violations,
        )
        system.dvmc.coherence_checker.attach(hooks)

    # SafetyNet -----------------------------------------------------------
    if config.safetynet.enabled:
        system.safetynet = SafetyNet(
            sched, stats, config, send=system.data_network.send
        )
        system.safetynet.attach(hooks)

    # Node message routing -----------------------------------------------------
    _wire_routers(system)

    # Cores and per-core checkers ------------------------------------------------
    for n in range(num):
        program = (
            programs[n]
            if programs is not None
            else make_program(
                workload, n, num, config.model, config.seed, ops
            )
        )
        core = Core(
            n,
            sched,
            stats,
            config,
            system.cache_controllers[n],
            program,
            wake_hub=system.wake_hub,
        )
        # Wake the core's blocked ordering checks whenever its cache
        # controller completes a transition (install, upgrade,
        # invalidate, writeback, MSHR completion).  Spurious notifies
        # are architecturally safe: a woken check that still fails
        # simply re-parks on its retry grid.
        system.cache_controllers[n].wakes = core._ws_order
        if config.dvmc.enable_uniprocessor:
            uo = UniprocessorOrderingChecker(
                n,
                sched,
                stats,
                config,
                system.cache_controllers[n],
                violations,
                rmo_mode=not config.model.requires_load_order,
            )
            core.uo = uo
            uo.wakes = core._ws_order
            if core.wb is not None:
                core.wb.require_verified = True
            system.dvmc.uo_checkers.append(uo)
        if config.dvmc.enable_reordering:
            ar = AllowableReorderingChecker(
                n, sched, stats, config, (lambda c=core: c.table), violations
            )
            core.ar = ar
            ar.core = core
            # Streaming verification plane: the core appends ints-only
            # records to the checker's log; the checker drains whole
            # segments at membar heartbeats, log-full, and finalize,
            # reporting what per-event checking would have reported.
            ar.attach_log()
            system.dvmc.ar_checkers.append(ar)
        system.cores.append(core)

    cores = system.cores
    hooks.on_invalidation(lambda node, block: cores[node].on_invalidation(block))
    if obs:
        system.dvmc.attach_obs()

    # Flight recorder --------------------------------------------------
    # Attached last, in a fixed order, so track ids are deterministic
    # across runs; every record site is guarded by a ``spans is None``
    # check, keeping the disabled path to one attribute load.
    if recorder is not None:
        system.data_network.attach_spans(recorder)
        if system.address_network is not None:
            system.address_network.attach_spans(recorder)
        for cache_ctrl in system.cache_controllers:
            cache_ctrl.attach_spans(recorder)
        for mem_ctrl in system.memory_controllers:
            mem_ctrl.attach_spans(recorder)
        if system.dvmc.coherence_checker is not None:
            system.dvmc.coherence_checker.attach_spans(recorder)
        if system.safetynet is not None:
            system.safetynet.attach_spans(recorder)
        for core in system.cores:
            core.attach_spans(recorder)
        for uo in system.dvmc.uo_checkers:
            uo.attach_spans(recorder)
        for ar in system.dvmc.ar_checkers:
            ar.attach_spans(recorder)
    return system


def _discard(msg: Message) -> None:
    """Sink for messages modelled only for their network traffic."""


def _wire_routers(system: System) -> None:
    """Register per-node dispatchers on the network(s)."""
    config = system.config
    hooks = system.hooks
    directory = config.protocol is ProtocolKind.DIRECTORY
    checker = system.dvmc.coherence_checker

    for n in range(config.num_nodes):
        cache_ctrl = system.cache_controllers[n]
        mem_ctrl = system.memory_controllers[n]

        # Precomputed kind -> bound-handler table: one identity-hash
        # dict hit per delivery replaces the old class-check plus
        # membership chain.  Sn messages (and Dvcc ones when no checker
        # is attached) are carried for their traffic and then dropped.
        dispatch = {}
        dvcc_sink = checker.handle_message if checker is not None else _discard
        for kind in Dvcc:
            dispatch[kind] = dvcc_sink
        for kind in Sn:
            dispatch[kind] = _discard  # checkpoint coordination sink
        if directory:
            home_kinds = (Coh.GETS, Coh.GETM, Coh.PUTM, Coh.UNBLOCK)
            for kind in Coh:
                dispatch[kind] = (
                    mem_ctrl.handle_message
                    if kind in home_kinds
                    else cache_ctrl.handle_message
                )
        else:
            for kind in Coh:
                dispatch[kind] = (
                    mem_ctrl.handle_data
                    if kind is Coh.PUTM
                    else cache_ctrl.handle_data
                )

        def torus_handler(msg: Message, dispatch=dispatch):
            dispatch[msg.kind](msg)

        system.data_network.register(n, torus_handler)

        if not directory:

            def addr_handler(msg: Message, n=n, cache_ctrl=cache_ctrl, mem_ctrl=mem_ctrl):
                if hooks.sub_snoop_tick:
                    hooks.snoop_tick(n)
                cache_ctrl.handle_snoop(msg)
                mem_ctrl.handle_snoop(msg)

            system.address_network.register(n, addr_handler)
