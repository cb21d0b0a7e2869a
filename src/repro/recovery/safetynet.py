"""SafetyNet-style backward error recovery (checkpoint/log).

DVMC detects errors; a BER mechanism recovers from them.  The paper
uses SafetyNet [26]: the system keeps several in-flight checkpoints and
can roll back to any live one, giving a recovery window of roughly
100k cycles.  This model implements the contract DVMC relies on:

* periodic checkpoints with bounded lifetime (old ones are *validated*
  and retired once all checkers have had time to flag errors);
* copy-on-write undo logging of architectural block writes, so the
  memory image at any live checkpoint can be reconstructed;
* a small amount of checkpoint-coordination traffic on the interconnect.

A full pipeline/register rollback is out of scope (the workload
generators cannot be rewound); the error-injection campaign instead
validates the paper's criteria: detection latency inside the recovery
window and a live checkpoint at detection time, and unit tests verify
the reconstructed memory image matches a snapshot.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.common.errors import RecoveryError
from repro.common.events import Scheduler
from repro.common.stats import StatsRegistry
from repro.config import SystemConfig
from repro.interconnect.message import Message
from repro.obs.spans import K_CKPT

from repro.coherence.messages import Sn


class Checkpoint:
    """One checkpoint interval's undo log."""

    __slots__ = ("index", "start_cycle", "undo", "validated")

    def __init__(self, index: int, start_cycle: int):
        self.index = index
        self.start_cycle = start_cycle
        #: block -> architectural data at checkpoint time (first touch).
        self.undo: "OrderedDict[int, List[int]]" = OrderedDict()
        self.validated = False


class SafetyNet:
    """System-wide checkpointing service."""

    def __init__(
        self,
        scheduler: Scheduler,
        stats: StatsRegistry,
        config: SystemConfig,
        send=None,
    ):
        self.scheduler = scheduler
        self.stats = stats
        self.config = config.safetynet
        self.num_nodes = config.num_nodes
        self.network_config = config.network
        self._h_log_entries = stats.handle("sn.log_entries")
        self._values = stats.values
        self._send = send  # optional: callable(Message) for ckpt traffic
        self._checkpoints: Deque[Checkpoint] = deque()
        #: (start cycle, retirement cycle) of each retired checkpoint,
        #: oldest first, so recoverability can be judged as of a past
        #: cycle (see :meth:`can_recover`).
        self._retired: List[Tuple[int, int]] = []
        self._next_index = 0
        #: Flight recorder (None unless built with spans=True; see obs.spans).
        self.spans = None
        self._span_track = 0
        self._open_checkpoint()
        scheduler.post(self.config.checkpoint_interval, self._advance)

    def attach_spans(self, spans) -> None:
        """Attach the flight recorder; checkpoints share one track."""
        self.spans = spans
        self._span_track = spans.track("safetynet")

    # -- undo logging ---------------------------------------------------------
    def log_write(self, block: int, old_data: list) -> None:
        """A cache is about to write ``block``, which holds ``old_data``.

        The first write in a checkpoint interval logs a copy (the cache
        controllers call this before every store and atomic)."""
        ckpt = self._checkpoints[-1]
        if block not in ckpt.undo:
            ckpt.undo[block] = list(old_data)
            self._values[self._h_log_entries] += 1

    # -- checkpoint lifecycle -------------------------------------------------
    def _open_checkpoint(self) -> None:
        index = self._next_index
        self._checkpoints.append(Checkpoint(index, self.scheduler.now))
        self._next_index = index + 1
        self.stats.incr("sn.checkpoints")
        s = self.spans
        if s is not None:
            # K_CKPT instant: a=checkpoint index, b=live count.
            s.instant(
                0, self._span_track, K_CKPT, self.scheduler.now,
                index, len(self._checkpoints), 0,
            )

    def _advance(self) -> None:
        self._open_checkpoint()
        # Retire the oldest checkpoint once the window is exceeded.
        while len(self._checkpoints) > self.config.max_checkpoints:
            retired = self._checkpoints.popleft()
            retired.validated = True
            self._retired.append((retired.start_cycle, self.scheduler.now))
            self.stats.incr("sn.checkpoints_retired")
        # Checkpoint-coordination traffic (validation round).
        if self._send is not None:
            for node in range(1, self.num_nodes):
                self._send(
                    Message(
                        node,
                        0,
                        Sn.CKPT_VALIDATE,
                        size_bytes=self.network_config.control_message_bytes,
                    )
                )
        self.scheduler.post(self.config.checkpoint_interval, self._advance)

    # -- recovery interface -------------------------------------------------
    @property
    def oldest_live_cycle(self) -> int:
        """Start cycle of the oldest checkpoint we can still roll back to."""
        return self._checkpoints[0].start_cycle

    def can_recover(self, error_cycle: int, at: Optional[int] = None) -> bool:
        """Was a checkpoint taken at or before ``error_cycle`` live at
        cycle ``at`` (default: now)?

        This is the paper's validity criterion: the error must be
        detected before the last pre-error checkpoint expires.  Pass
        the detection's cycle (``ViolationReport.cycle``) as ``at``: a
        checker may report after the cycle it flags (the AR streaming
        log drains in batches), and checkpoints may retire in between.
        A checkpoint retired at cycle ``at`` counts as gone then.
        """
        if self.oldest_live_cycle <= error_cycle:
            return True
        if at is not None:
            # Every live checkpoint is younger than the error; the last
            # retired one taken at or before it decides.
            for start, retired in reversed(self._retired):
                if start <= error_cycle:
                    return retired > at
        return False

    def recovery_point_for(self, error_cycle: int) -> Optional[Checkpoint]:
        """Latest live checkpoint taken at or before ``error_cycle``."""
        candidate = None
        for ckpt in self._checkpoints:
            if ckpt.start_cycle <= error_cycle:
                candidate = ckpt
            else:
                break
        return candidate

    def reconstruct_memory_image(
        self, current_image: Dict[int, List[int]], error_cycle: int
    ) -> Dict[int, List[int]]:
        """Roll ``current_image`` back to the recovery point's state.

        Applies undo logs newest-to-oldest down to (and including) the
        checkpoint covering ``error_cycle``.  Raises
        :class:`RecoveryError` if that checkpoint already expired.
        """
        point = self.recovery_point_for(error_cycle)
        if point is None:
            raise RecoveryError(
                f"no live checkpoint at or before cycle {error_cycle}"
            )
        image = {block: list(data) for block, data in current_image.items()}
        for ckpt in reversed(self._checkpoints):
            if ckpt.index < point.index:
                break
            for block, old in ckpt.undo.items():
                image[block] = list(old)
        self.stats.incr("sn.recoveries")
        return image

    @property
    def live_checkpoints(self) -> int:
        return len(self._checkpoints)
