"""SafetyNet checkpoint/recovery model."""

import pytest

from repro.common.errors import RecoveryError
from repro.common.events import Scheduler
from repro.common.stats import StatsRegistry
from repro.common.types import WORDS_PER_BLOCK
from repro.config import SafetyNetConfig, SystemConfig
from repro.recovery.safetynet import SafetyNet


def make_sn(interval=100, max_ckpts=4):
    sched = Scheduler()
    config = SystemConfig(
        safetynet=SafetyNetConfig(
            checkpoint_interval=interval, max_checkpoints=max_ckpts
        )
    )
    sn = SafetyNet(sched, StatsRegistry(), config)
    return sched, sn


def block(value):
    return [value] * WORDS_PER_BLOCK


class TestCheckpointLifecycle:
    def test_checkpoints_advance_on_schedule(self):
        sched, sn = make_sn(interval=100)
        assert sn.live_checkpoints == 1
        sched.post(350, lambda: None)
        sched.run(until=350)
        assert sn.live_checkpoints == 4  # t=0,100,200,300

    def test_old_checkpoints_retire(self):
        sched, sn = make_sn(interval=100, max_ckpts=3)
        sched.post(1000, lambda: None)
        sched.run(until=1000)
        assert sn.live_checkpoints == 3

    def test_recovery_window_property(self):
        config = SafetyNetConfig(checkpoint_interval=12_500, max_checkpoints=8)
        assert config.recovery_window == 100_000


class TestRecoverability:
    def test_recent_error_recoverable(self):
        sched, sn = make_sn(interval=100, max_ckpts=3)
        sched.post(250, lambda: None)
        sched.run(until=250)
        assert sn.can_recover(error_cycle=200)

    def test_ancient_error_not_recoverable(self):
        sched, sn = make_sn(interval=100, max_ckpts=3)
        sched.post(1000, lambda: None)
        sched.run(until=1000)
        # Oldest live checkpoint is ~t=800; an error at t=100 is lost.
        assert not sn.can_recover(error_cycle=100)

    def test_recoverability_as_of_the_detection_cycle(self):
        """A checker that reports late is judged at the cycle it
        flagged, not at the cycle its report arrives."""
        sched, sn = make_sn(interval=100, max_ckpts=2)
        sched.post(250, lambda: None)
        sched.run(until=250)  # the t=0 checkpoint retired at t=200
        assert not sn.can_recover(error_cycle=50)
        assert sn.can_recover(error_cycle=50, at=150)
        assert not sn.can_recover(error_cycle=50, at=200)
        assert not sn.can_recover(error_cycle=50, at=250)
        assert sn.can_recover(error_cycle=120, at=150)

    def test_recovery_point_selection(self):
        sched, sn = make_sn(interval=100, max_ckpts=8)
        sched.post(450, lambda: None)
        sched.run(until=450)
        point = sn.recovery_point_for(error_cycle=230)
        assert point.start_cycle == 200


class TestUndoLogging:
    def test_first_touch_logging(self):
        sched, sn = make_sn(interval=100)
        sn.log_write(0x1000, block(1))
        sn.log_write(0x1000, block(2))  # second touch: not logged
        ckpt = sn._checkpoints[-1]
        assert ckpt.undo[0x1000] == block(1)

    def test_reconstruct_memory_image(self):
        """The undo chain restores the architectural value a block had
        at the recovery point."""
        sched, sn = make_sn(interval=100, max_ckpts=8)
        # Interval 0: block written, old value 10.
        sn.log_write(0x1000, block(10))
        sched.post(150, lambda: None)
        sched.run(until=150)  # now in interval 1
        sn.log_write(0x1000, block(20))
        sched.post(100, lambda: None)
        sched.run(until=250)  # interval 2
        sn.log_write(0x1000, block(30))
        current = {0x1000: block(40)}
        # Roll back to an error at cycle 120 (checkpoint at 100):
        image = sn.reconstruct_memory_image(current, error_cycle=120)
        assert image[0x1000] == block(20)
        # Roll back to the very beginning:
        image = sn.reconstruct_memory_image(current, error_cycle=10)
        assert image[0x1000] == block(10)

    def test_reconstruct_beyond_window_raises(self):
        sched, sn = make_sn(interval=100, max_ckpts=2)
        sched.post(1000, lambda: None)
        sched.run(until=1000)
        with pytest.raises(RecoveryError):
            sn.reconstruct_memory_image({}, error_cycle=-50)

    def test_untouched_blocks_pass_through(self):
        sched, sn = make_sn()
        image = sn.reconstruct_memory_image({0x2000: block(5)}, error_cycle=0)
        assert image[0x2000] == block(5)
