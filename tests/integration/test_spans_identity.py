"""Flight-recorder identity: recorder on == recorder off, bit for bit.

The acceptance property of the transaction flight recorder: a machine
built with ``spans=True`` yields the same cycle count, the same
violations, and the same value for every stats counter as a plain run.
The recorder observes hand-offs; it never sits on them.  These tier-1
tests check it directly; the ledger's exact ``layer.obs.calls`` count
gate keeps the recorder-off path's cost fixed.
"""

import pytest

from repro.config import ProtocolKind, SystemConfig
from repro.consistency.models import ConsistencyModel
from repro.parallel import RunSpec

from tests.integration.test_obs_identity import run_payload

MODELS = [ConsistencyModel.SC, ConsistencyModel.TSO, ConsistencyModel.RMO]


def run_mode(spec, spans: bool = False):
    """The deterministic payload of one run of ``spec``."""
    system, payload = run_payload(spec, spans=spans)
    assert (system.spans is not None) == spans
    return payload


class TestSpansIdentity:
    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    @pytest.mark.parametrize("model", MODELS)
    def test_recorder_identical_across_protocol_and_model(self, protocol, model):
        config = SystemConfig.protected(protocol=protocol, model=model, num_nodes=4)
        spec = RunSpec(config.with_seed(7), "oltp", 40)
        # Full deterministic payload: cycles, completion, violations,
        # events and every stats counter.
        assert run_mode(spec) == run_mode(spec, spans=True)

    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    def test_recorder_identical_on_eight_nodes(self, protocol):
        config = SystemConfig.protected(protocol=protocol)
        spec = RunSpec(config.with_seed(3), "oltp", 80)
        assert run_mode(spec) == run_mode(spec, spans=True)
