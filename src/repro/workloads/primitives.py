"""Synchronisation primitives built from the core's operation set.

Locks are test-and-test-and-set spin locks over atomic swap (SPARC
``swap``), barriers are sense-reversing counters — the idioms of the
Wisconsin commercial workloads.  All primitives are *sub-generators*:
workload programs invoke them with ``yield from``.

Under PSO/RMO the primitives issue the barriers that real SPARC v9
synchronisation code requires (Membar #StoreStore before the releasing
store, #LoadLoad|#LoadStore after acquiring), so workloads are correct
under every model — and the Allowable Reordering checker sees real
Membar traffic.

Wakeup-plane boundary: the spin loops below are *architectural* — every
retry is a memory operation the simulated program really issues, so
they do not depend on how the simulator retries blocked checks and
must never park on a :class:`~repro.common.waitsets.WaitSet` (parking
them would change the machine being simulated, not just the
simulator's event count).
What the wake-on-change kernel does eliminate is the *simulator-level*
retry polls underneath them: a spinning load that blocks in the core
(cache miss, ordering gate) parks and is re-woken by the owning cache
controller's transition notifies, so a lock release or sense flip
reaches spinning cores through the coherence protocol's
invalidate/install path with no 2-cycle re-post traffic.
"""

from __future__ import annotations

from repro.common.types import MembarMask
from repro.consistency.models import ConsistencyModel
from repro.processor.operations import Atomic, Load, Membar, Store

#: Lock word values.
UNLOCKED = 0
LOCKED = 1


def lock_acquire(addr: int, model: ConsistencyModel):
    """Test-and-test-and-set acquire.  Yields until the lock is held."""
    while True:
        old = yield Atomic(addr, LOCKED)
        if old == UNLOCKED:
            break
        # Spin on plain loads to avoid hammering the lock with GetMs.
        # (No spin bound: under injected faults a lock can legitimately
        # hang forever; the simulation's cycle bound ends the run.)
        while (yield Load(addr)) != UNLOCKED:
            pass
    if model in (ConsistencyModel.PSO, ConsistencyModel.RMO):
        # Keep critical-section accesses after the acquire.
        yield Membar(MembarMask.LOADLOAD | MembarMask.LOADSTORE)


def lock_release(addr: int, model: ConsistencyModel):
    """Release by storing UNLOCKED, fenced as the model requires."""
    if model in (ConsistencyModel.PSO, ConsistencyModel.RMO):
        # Critical-section stores must drain before the releasing store.
        yield Membar(MembarMask.STORESTORE | MembarMask.LOADSTORE)
    yield Store(addr, UNLOCKED)


def barrier_wait(
    counter_addr: int,
    sense_addr: int,
    lock_addr: int,
    num_threads: int,
    local_sense: int,
    model: ConsistencyModel,
):
    """Sense-reversing centralised barrier.

    Returns the new local sense to use for the next episode.  The last
    arriving thread resets the counter and flips the shared sense.
    """
    yield from lock_acquire(lock_addr, model)
    count = yield Load(counter_addr)
    count += 1
    if count == num_threads:
        yield Store(counter_addr, 0)
        if model in (ConsistencyModel.PSO, ConsistencyModel.RMO):
            yield Membar(MembarMask.STORESTORE)
        yield Store(sense_addr, local_sense)
        yield from lock_release(lock_addr, model)
    else:
        yield Store(counter_addr, count)
        yield from lock_release(lock_addr, model)
        while (yield Load(sense_addr)) != local_sense:
            pass
    return 1 - local_sense
