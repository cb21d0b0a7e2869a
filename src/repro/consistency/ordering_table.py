"""Ordering tables: the paper's specification of consistency models.

A consistency model is specified as a table indexed by (first operation
type, second operation type).  ``True`` in cell (OPx, OPy) means: every
operation of type OPx that precedes an operation Y of type OPy in
program order must also perform before Y (paper Section 2.2).

SPARC v9 Membars carry a 4-bit mask (#LL, #LS, #SL, #SS); table entries
in Membar rows/columns hold masks rather than booleans, and a boolean
is obtained by ANDing the instruction's mask with the table's mask
(paper Section 4).  We represent every cell as a
:class:`~repro.common.types.MembarMask`; plain ``True`` cells use
``MembarMask.ALL`` and ``False`` cells use ``MembarMask.NONE``, which
makes the AND rule uniform.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Tuple

from repro.common.types import MembarMask, OpType

Cell = MembarMask
_TableKey = Tuple[OpType, OpType]
_RoleKey = Tuple[OpType, MembarMask]

#: The four Membar mask bits, in the order check plans list them.
MASK_BITS = (
    MembarMask.LOADLOAD,
    MembarMask.LOADSTORE,
    MembarMask.STORELOAD,
    MembarMask.STORESTORE,
)


class OrderingTable:
    """Immutable ordering table with membar-mask cells.

    Args:
        name: display name of the consistency model.
        entries: mapping ``(first, second) -> bool | MembarMask``.
            Missing cells default to unordered (``MembarMask.NONE``).
        op_types: operation types labelling rows/columns.  Atomics are
            implicit (they take both LOAD and STORE constraints).
    """

    def __init__(
        self,
        name: str,
        entries: Mapping[_TableKey, object],
        op_types: Iterable[OpType] = (OpType.LOAD, OpType.STORE),
    ):
        self.name = name
        self.op_types: Tuple[OpType, ...] = tuple(op_types)
        table: Dict[_TableKey, Cell] = {}
        for (first, second), value in entries.items():
            if isinstance(value, bool):
                cell = MembarMask.ALL if value else MembarMask.NONE
            elif isinstance(value, MembarMask):
                cell = value
            else:
                raise TypeError(f"cell ({first}, {second}) must be bool or MembarMask")
            table[(first, second)] = cell
        self._table = table
        #: (first, second, first_mask, second_mask) -> bool.  The table
        #: is immutable and the argument space is tiny (op types ×
        #: membar masks), but ``ordered`` runs for every in-flight
        #: operation pair on the core's issue/perform path, so the
        #: mask-AND loop is worth memoising.
        self._ordered_memo: Dict[Tuple, bool] = {}
        #: Precompiled role matrix (see :meth:`op_role`).  Keys are
        #: registered lazily; rows are mutable lists that grow in place
        #: when a new role appears, so row references handed out earlier
        #: stay valid.
        self._roles: Dict[_RoleKey, Tuple[List[bool], int]] = {}
        self._role_keys: List[_RoleKey] = []
        #: Compiled Allowable Reordering check plans, keyed by
        #: ``(op_type, mask)`` (see :meth:`compile_check_plan`).  The
        #: tables are process-wide singletons, so every checker of
        #: every machine shares them; the checker probes this dict
        #: directly on its per-perform path.
        self.check_plans: Dict[_RoleKey, tuple] = {}

    def cell(self, first: OpType, second: OpType) -> Cell:
        """Raw mask stored for (first, second); NONE if absent."""
        return self._table.get((first, second), MembarMask.NONE)

    def ordered(
        self,
        first: OpType,
        second: OpType,
        first_mask: MembarMask = MembarMask.ALL,
        second_mask: MembarMask = MembarMask.ALL,
    ) -> bool:
        """Is there an ordering constraint between the operation types?

        ``first_mask``/``second_mask`` are the instruction masks when the
        corresponding operation is a Membar (otherwise leave ALL).  The
        constraint exists when ``table_mask & first_mask & second_mask``
        is non-zero, generalising the paper's AND rule.  Atomics are
        expanded to their constituent LOAD and STORE types: an ordering
        exists if any constituent pair is ordered.
        """
        key = (first, second, first_mask, second_mask)
        cached = self._ordered_memo.get(key)
        if cached is not None:
            return cached
        result = False
        for f in first.access_types() if first is OpType.ATOMIC else (first,):
            for s in second.access_types() if second is OpType.ATOMIC else (second,):
                mask = self._table.get((f, s), MembarMask.NONE)
                if mask & first_mask & second_mask:
                    result = True
                    break
            if result:
                break
        self._ordered_memo[key] = result
        return result

    def op_role(self, op_type: OpType, mask: MembarMask) -> Tuple[List[bool], int]:
        """Precompiled fast-path view of one operation's ordering rules.

        Returns ``(row, index)`` for an operation of ``op_type`` whose
        instruction mask is ``mask`` (``ALL`` for everything but
        Membars).  ``row[other_index]`` is :meth:`ordered` of this
        operation *before* the other — a plain list lookup, so the
        core's per-poll ordering gate does no enum hashing or mask
        arithmetic.  Atomics are already expanded inside the cells.
        Roles register lazily; registering one extends every existing
        row in place, keeping previously returned rows valid.
        """
        role = self._roles.get((op_type, mask))
        if role is None:
            role = self._register_role(op_type, mask)
        return role

    def _register_role(self, op_type: OpType, mask: MembarMask) -> Tuple[List[bool], int]:
        key = (op_type, mask)
        index = len(self._role_keys)
        self._role_keys.append(key)
        # New column on every existing row (including rows already held
        # by in-flight operations).
        for (other_type, other_mask), (row, _i) in self._roles.items():
            row.append(
                self.ordered(
                    other_type, op_type, first_mask=other_mask, second_mask=mask
                )
            )
        new_row = [
            self.ordered(op_type, second_type, first_mask=mask, second_mask=second_mask)
            for second_type, second_mask in self._role_keys
        ]
        role = (new_row, index)
        self._roles[key] = role
        return role

    def compile_check_plan(self, op_type: OpType, mask: MembarMask) -> tuple:
        """Fold the checks an operation's perform makes into a flat plan.

        When an operation of ``op_type`` with instruction mask ``mask``
        performs, the Allowable Reordering checker (paper Section 4.2)
        compares it against its ``max{OP}`` counters.  The plan is
        ``(checks, targets, bar_bits)``: ``checks`` lists
        ``(target, second, bit)`` comparisons in table order (``bit`` is
        None for a per-type counter, else the membar mask bit whose
        counter applies), ``targets`` the access types whose counters
        the operation advances, and ``bar_bits`` the membar bits it
        advances.  Memoised in :attr:`check_plans`.
        """
        first_mask = mask if op_type is OpType.MEMBAR else MembarMask.ALL
        access_targets = (
            op_type.access_types() if op_type is OpType.ATOMIC else (op_type,)
        )
        checks = []
        for target in access_targets:
            for second in self.op_types:
                if second is OpType.MEMBAR:
                    # Per-bit counters: only membars whose mask shares a
                    # bit with this cell constrain `target`.
                    cell = self.cell(target, OpType.MEMBAR)
                    for bit in MASK_BITS:
                        if cell & bit & first_mask:
                            checks.append((target, OpType.MEMBAR, bit))
                elif self.ordered(target, second, first_mask=first_mask):
                    checks.append((target, second, None))
        bar_bits = (
            [bit for bit in MASK_BITS if mask & bit]
            if op_type is OpType.MEMBAR
            else []
        )
        plan = (tuple(checks), tuple(access_targets), tuple(bar_bits))
        self.check_plans[(op_type, mask)] = plan
        return plan

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OrderingTable({self.name!r})"
