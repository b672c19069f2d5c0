"""The public API surface, pinned.

Adding or removing a public name must show up as a diff of the lists below,
so API growth is a reviewed decision rather than a side effect.
"""

import importlib

import pytest

SURFACE = {
    "repro": [
        "Event",
        "EventFlow",
        "EventType",
        "FlowEntry",
        "LogRecord",
        "LossCause",
        "LossReport",
        "NodeLog",
        "PacketKey",
        "ReconstructionSession",
        "RefillOptions",
        "SessionResult",
        "__version__",
        "classify_flow",
        "forwarder_template",
        "make_backend",
    ],
    "repro.core": [
        "EngineInstance",
        "EventFlow",
        "ExecutionBackend",
        "ExecutionPlan",
        "FlowEntry",
        "IncrementalBackend",
        "LabelAdvice",
        "LoggingPlan",
        "LossCause",
        "LossReport",
        "NetworkStats",
        "PacketContext",
        "PacketReconstructor",
        "PacketStats",
        "PacketTrace",
        "ReconstructionSession",
        "ReconstructorOptions",
        "RefillOptions",
        "SerialBackend",
        "SessionResult",
        "advise",
        "advised_plan",
        "apply_plan",
        "classify_flow",
        "estimate_delay",
        "full_plan",
        "make_backend",
        "network_stats",
        "packet_stats",
        "retransmission_hotspots",
        "trace_packet",
    ],
    "repro.fsm": [
        "FsmTemplate",
        "IntraTransition",
        "Peer",
        "PrereqRule",
        "Reachability",
        "Transition",
        "TransitionGraph",
        "chain_template",
        "derive_intra_transitions",
        "dissemination_templates",
        "forwarder_template",
        "query_templates",
        "validate_role_family",
        "validate_template",
    ],
}


@pytest.mark.parametrize("module_name", sorted(SURFACE))
def test_all_matches_committed_list(module_name):
    module = importlib.import_module(module_name)
    assert sorted(module.__all__) == SURFACE[module_name]


@pytest.mark.parametrize("module_name", sorted(SURFACE))
def test_every_listed_name_resolves(module_name):
    module = importlib.import_module(module_name)
    for name in SURFACE[module_name]:
        assert hasattr(module, name), f"{module_name}.{name} does not resolve"
