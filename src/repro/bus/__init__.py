"""Bus medium and discrete bit-level simulation engine."""

from repro.bus.events import (
    ArbitrationLost,
    AttackDetected,
    BusOffEntered,
    BusOffRecovered,
    CounterattackEnded,
    CounterattackStarted,
    ErrorDetected,
    ErrorStateChanged,
    Event,
    FaultActivated,
    FaultDeactivated,
    FrameReceived,
    FrameStarted,
    FrameTransmitted,
    OverloadSignalled,
)
from repro.bus.gateway import (
    GatewayNode,
    MultiBusSimulation,
    Route,
    RouteTable,
)
from repro.bus.fastforward import (
    FAST_FORWARD_POLICIES,
    FastForwardEngine,
    FastForwardStats,
)
from repro.bus.simulator import CanBusSimulator
from repro.bus.wire import Wire, resolve

__all__ = [
    "ArbitrationLost",
    "AttackDetected",
    "BusOffEntered",
    "BusOffRecovered",
    "CanBusSimulator",
    "FAST_FORWARD_POLICIES",
    "FastForwardEngine",
    "FastForwardStats",
    "GatewayNode",
    "MultiBusSimulation",
    "Route",
    "RouteTable",
    "CounterattackEnded",
    "CounterattackStarted",
    "ErrorDetected",
    "ErrorStateChanged",
    "Event",
    "FaultActivated",
    "FaultDeactivated",
    "FrameReceived",
    "FrameStarted",
    "FrameTransmitted",
    "OverloadSignalled",
    "Wire",
    "resolve",
]
