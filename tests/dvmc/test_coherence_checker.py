"""Cache Coherence checker: CET/MET, epoch rules, scrubbing (4.3)."""


from repro.coherence.messages import Dvcc
from repro.common.crc import hash_block
from repro.common.events import Scheduler
from repro.common.stats import StatsRegistry
from repro.common.types import WORDS_PER_BLOCK, EpochType
from repro.config import DVMCConfig, SystemConfig
from repro.dvmc.coherence_checker import MET_SORT_SLACK, CoherenceChecker
from repro.dvmc.framework import ViolationLog
from repro.interconnect.message import Message
from repro.memory.memory import MainMemory


class ManualClock:
    """Directly settable logical time for unit tests."""

    def __init__(self, num_nodes):
        self.times = [0] * num_nodes

    def now(self, node):
        return self.times[node]

    def set_all(self, value):
        self.times = [value] * len(self.times)


def make_checker(num_nodes=2, **dvmc):
    sched = Scheduler()
    stats = StatsRegistry()
    log = ViolationLog()
    clock = ManualClock(num_nodes)
    config = SystemConfig(num_nodes=num_nodes, dvmc=DVMCConfig(**dvmc))
    memories = [MainMemory(stats) for _ in range(num_nodes)]
    sent = []

    def send(msg):
        sent.append(msg)
        # Loop informs straight back into the MET (zero-latency net).
        checker.handle_message(msg)

    checker = CoherenceChecker(
        sched, stats, config, clock, lambda addr: 0, memories, send, log
    )
    return checker, log, clock, sent, memories


BLOCK = 0x1000


def data(value=0):
    return [value] * WORDS_PER_BLOCK


class TestCETLifecycle:
    def test_begin_data_end_sends_inform(self):
        checker, log, clock, sent, _ = make_checker()
        checker.home_request(0, BLOCK)
        checker.epoch_begin(1, BLOCK, EpochType.READ_ONLY, data(0))
        clock.set_all(5)
        checker.epoch_end(1, BLOCK, data(0))
        assert len(sent) == 1
        m = sent[0]
        assert m.etype == 0  # READ_ONLY code
        assert m.t_begin == 0 and m.t_end == 5
        assert m.h_begin == m.h_end == hash_block(data(0))

    def test_data_ready_bit(self):
        """An epoch can begin before its data arrives (snooping)."""
        checker, log, clock, sent, _ = make_checker()
        checker.home_request(0, BLOCK)
        checker.epoch_begin(1, BLOCK, EpochType.READ_ONLY, None)
        clock.set_all(4)
        checker.epoch_data(1, BLOCK, data(0))
        clock.set_all(9)
        checker.epoch_end(1, BLOCK, data(0))
        assert sent[0].t_begin == 0
        assert sent[0].h_begin == hash_block(data(0))

    def test_degenerate_epoch_ends_before_data(self):
        checker, log, clock, sent, _ = make_checker()
        checker.home_request(0, BLOCK)
        checker.epoch_begin(1, BLOCK, EpochType.READ_ONLY, None)
        checker.epoch_end(1, BLOCK, None)  # killed before data arrived
        assert not sent  # inform waits for the hash
        checker.epoch_data(1, BLOCK, data(0))
        assert len(sent) == 1

    def test_access_checks(self):
        checker, log, clock, _, _ = make_checker()
        checker.epoch_begin(1, BLOCK, EpochType.READ_ONLY, data())
        checker.check_access(1, BLOCK + 4, is_store=False)
        assert not log.reports
        checker.check_access(1, BLOCK + 4, is_store=True)
        assert log.reports[-1].kind == "store-outside-rw-epoch"
        checker.check_access(1, 0x9999000, is_store=False)
        assert log.reports[-1].kind == "access-without-epoch"

    def test_store_in_rw_epoch_is_fine(self):
        checker, log, _, _, _ = make_checker()
        checker.epoch_begin(1, BLOCK, EpochType.READ_WRITE, data())
        checker.check_access(1, BLOCK, is_store=True)
        assert not log.reports

    def test_double_end_flagged(self):
        checker, log, _, _, _ = make_checker()
        checker.epoch_begin(1, BLOCK, EpochType.READ_ONLY, data())
        checker.epoch_end(1, BLOCK, data())
        checker.epoch_end(1, BLOCK, data())
        assert log.reports[-1].kind == "end-without-epoch"


class TestMETRules:
    def _rw_epoch(self, checker, clock, node, begin, end, value_in, value_out):
        clock.set_all(begin)
        checker.epoch_begin(node, BLOCK, EpochType.READ_WRITE, data(value_in))
        clock.set_all(end)
        checker.epoch_end(node, BLOCK, data(value_out))

    def test_clean_rw_then_ro(self):
        checker, log, clock, _, _ = make_checker()
        checker.home_request(0, BLOCK)
        self._rw_epoch(checker, clock, 1, 1, 5, 0, 7)
        clock.set_all(6)
        checker.epoch_begin(0, BLOCK, EpochType.READ_ONLY, data(7))
        clock.set_all(9)
        checker.epoch_end(0, BLOCK, data(7))
        checker.flush()
        assert not log.reports

    def test_rule2_rw_overlapping_rw(self):
        checker, log, clock, _, _ = make_checker()
        checker.home_request(0, BLOCK)
        self._rw_epoch(checker, clock, 1, 1, 10, 0, 7)
        # Second RW epoch begins at 4 < 10: illegal overlap.
        clock.set_all(4)
        checker.epoch_begin(0, BLOCK, EpochType.READ_WRITE, data(7))
        clock.set_all(6)
        checker.epoch_end(0, BLOCK, data(8))
        checker.flush()
        assert any(r.kind == "epoch-overlap" for r in log.reports)

    def test_rule2_ro_overlapping_rw(self):
        checker, log, clock, _, _ = make_checker()
        checker.home_request(0, BLOCK)
        self._rw_epoch(checker, clock, 1, 1, 10, 0, 7)
        clock.set_all(5)  # inside the RW epoch
        checker.epoch_begin(0, BLOCK, EpochType.READ_ONLY, data(7))
        clock.set_all(6)
        checker.epoch_end(0, BLOCK, data(7))
        checker.flush()
        assert any(r.kind == "epoch-overlap" for r in log.reports)

    def test_concurrent_ro_epochs_are_legal(self):
        checker, log, clock, _, _ = make_checker()
        checker.home_request(0, BLOCK)
        clock.set_all(1)
        checker.epoch_begin(0, BLOCK, EpochType.READ_ONLY, data(0))
        checker.epoch_begin(1, BLOCK, EpochType.READ_ONLY, data(0))
        clock.set_all(8)
        checker.epoch_end(0, BLOCK, data(0))
        checker.epoch_end(1, BLOCK, data(0))
        checker.flush()
        assert not log.reports

    def test_rule3_data_propagation(self):
        """An epoch beginning with data that differs from the last RW
        epoch's end is corruption in flight or in memory."""
        checker, log, clock, _, _ = make_checker()
        checker.home_request(0, BLOCK)
        self._rw_epoch(checker, clock, 1, 1, 5, 0, 7)
        clock.set_all(6)
        checker.epoch_begin(0, BLOCK, EpochType.READ_ONLY, data(999))
        clock.set_all(9)
        checker.epoch_end(0, BLOCK, data(999))
        checker.flush()
        assert any(r.kind == "data-propagation" for r in log.reports)

    def test_ro_epoch_data_must_not_change(self):
        checker, log, clock, _, _ = make_checker()
        checker.home_request(0, BLOCK)
        clock.set_all(1)
        checker.epoch_begin(0, BLOCK, EpochType.READ_ONLY, data(0))
        clock.set_all(5)
        checker.epoch_end(0, BLOCK, data(123))  # corrupted in the cache
        checker.flush()
        assert any(r.kind == "ro-epoch-data-changed" for r in log.reports)

    def test_met_entry_created_from_memory(self):
        checker, log, clock, _, memories = make_checker()
        memories[0].write_block(BLOCK, data(0x42))
        clock.set_all(3)
        checker.home_request(0, BLOCK)
        clock.set_all(4)
        checker.epoch_begin(1, BLOCK, EpochType.READ_ONLY, data(0x42))
        clock.set_all(6)
        checker.epoch_end(1, BLOCK, data(0x42))
        checker.flush()
        assert not log.reports  # initial hash came from memory contents


class TestPriorityQueue:
    def test_out_of_order_arrival_is_resorted(self):
        """Informs arriving out of begin order within the slack window
        are processed in begin order."""
        checker, log, clock, sent, _ = make_checker()
        checker.home_request(0, BLOCK)
        # Build two epochs; deliver their informs out of order manually.
        clock.set_all(1)
        checker.epoch_begin(1, BLOCK, EpochType.READ_WRITE, data(0))
        clock.set_all(3)
        checker.epoch_end(1, BLOCK, data(5))
        clock.set_all(4)
        checker.epoch_begin(0, BLOCK, EpochType.READ_ONLY, data(5))
        clock.set_all(6)
        checker.epoch_end(0, BLOCK, data(5))
        checker.flush()
        assert not log.reports

    def test_full_queue_forces_oldest_out(self):
        """A push past ``priority_queue_entries`` processes the oldest
        queued inform at once, even inside the sort slack."""
        checker, log, clock, _, _ = make_checker(priority_queue_entries=2)
        blocks = ((0x1000, 30), (0x1040, 10), (0x1080, 20))
        for block, _ in blocks:
            checker.home_request(0, block)
        processed = []
        process = checker._process_inform

        def spy(home, record):
            processed.append(record[6])  # the record's begin time
            process(home, record)

        checker._process_inform = spy
        clock.set_all(40)
        assert 40 - min(begin for _, begin in blocks) < MET_SORT_SLACK
        for i, (block, begin) in enumerate(blocks):
            inform = Message(1, 0, Dvcc.INFORM_EPOCH, addr=block)
            inform.etype = 0
            inform.t_begin = begin
            inform.t_end = begin + 5
            checker.handle_message(inform)
            assert processed == ([] if i < 2 else [10])
        assert checker.stats.counter("dvcc.0.pq_forced_drains") == 1
        checker.flush()
        assert processed == [10, 20, 30]
        assert not log.reports


class TestScrubbing:
    def test_long_epoch_triggers_open_inform(self):
        """With a tiny timestamp width, an epoch outliving the wrap
        horizon sends Inform-Open-Epoch and later Inform-Closed-Epoch."""
        checker, log, clock, sent, _ = make_checker(timestamp_bits=6)
        checker.home_request(0, BLOCK)
        clock.set_all(1)
        checker.epoch_begin(1, BLOCK, EpochType.READ_WRITE, data(0))
        clock.set_all(1 + (1 << 6))  # beyond the wrap horizon
        checker._scrub_check(1)
        kinds = [m.kind.value for m in sent]
        assert "InformOpenEpoch" in kinds
        clock.set_all(2 + (1 << 6))
        checker.epoch_end(1, BLOCK, data(9))
        kinds = [m.kind.value for m in sent]
        assert "InformClosedEpoch" in kinds
        checker.flush()
        assert not log.reports

    def test_open_rw_epoch_blocks_others(self):
        checker, log, clock, sent, _ = make_checker(timestamp_bits=6)
        checker.home_request(0, BLOCK)
        clock.set_all(1)
        checker.epoch_begin(1, BLOCK, EpochType.READ_WRITE, data(0))
        clock.set_all(1 + (1 << 6))
        checker._scrub_check(1)  # node 1 now has an *open* RW at the MET
        # Another node claims an epoch while the RW is open: violation.
        clock.set_all(2 + (1 << 6))
        checker.epoch_begin(0, BLOCK, EpochType.READ_ONLY, data(0))
        clock.set_all(3 + (1 << 6))
        checker.epoch_end(0, BLOCK, data(0))
        checker.flush()
        assert any(r.kind == "epoch-overlap-open" for r in log.reports)

    def test_short_epochs_never_scrub(self):
        checker, _, clock, sent, _ = make_checker()
        checker.home_request(0, BLOCK)
        checker.epoch_begin(1, BLOCK, EpochType.READ_ONLY, data(0))
        checker._scrub_check(1)
        assert all(m.kind.value != "InformOpenEpoch" for m in sent)
