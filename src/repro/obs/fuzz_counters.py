"""Differential fuzz outcome names.

The campaign itself counts its summary in plain ints
(:func:`repro.fuzz.run_fuzz_campaign`).  :data:`OUTCOMES` stays in
this module because the layer ledger (``benchmarks/ledger/workloads.py``)
imports it from here.
"""

#: Differential outcome classes (see ``repro.fuzz.classify``).
OUTCOMES = (
    "agree_clean",
    "agree_violation",
    "online_only",
    "missed_violation",
    "undecided",
)
