"""Memory consistency model identifiers.

SPARC v9 supports runtime switching between TSO, PSO and RMO; the
paper's baseline also implements SC.  DVMC handles all four via
ordering tables (paper Tables 2-4; SC's table is all-``true``).
"""

from __future__ import annotations

import enum


class ConsistencyModel(enum.Enum):
    """The four consistency models evaluated in the paper."""

    SC = "SC"  # Sequential Consistency
    TSO = "TSO"  # Total Store Order (variant of Processor Consistency)
    PSO = "PSO"  # Partial Store Order
    RMO = "RMO"  # Relaxed Memory Order (Weak Consistency variant)

    # Singleton members: identity hash (C dispatch) replaces the
    # Python-level Enum.__hash__ on plan/ordering-table lookups.
    __hash__ = object.__hash__

    @property
    def allows_store_store_reordering(self) -> bool:
        """True if stores may perform out of program order."""
        return self in (ConsistencyModel.PSO, ConsistencyModel.RMO)

    @property
    def allows_load_reordering(self) -> bool:
        """True if loads may perform out of program order non-speculatively."""
        return self is ConsistencyModel.RMO

    @property
    def requires_load_order(self) -> bool:
        """True if loads must appear to perform in program order.

        In these models the implementation speculatively reorders loads
        and squashes on mis-speculation; loads are considered to perform
        only at the verification stage (paper Section 4.1).
        """
        return not self.allows_load_reordering
