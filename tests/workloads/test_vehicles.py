"""Tests for the synthetic vehicle matrices and workload bridging."""

import pytest

from repro.bus.events import FrameTransmitted
from repro.bus.simulator import CanBusSimulator
from repro.can.constants import BUS_SPEED_500K
from repro.node.controller import CanNode
from repro.workloads.matrix import (
    nodes_for_matrix,
    theoretical_bus_load,
)
from repro.workloads.restbus import RestbusNode
from repro.workloads.vehicles import (
    PARKSENSE_ATTACK_ID,
    PARKSENSE_IDS,
    VEHICLES,
    all_vehicle_buses,
    pacifica_matrix,
    synthesize_bus,
    vehicle_buses,
)


class TestSynthesis:
    def test_deterministic(self):
        a = synthesize_bus("x", seed=1)
        b = synthesize_bus("x", seed=1)
        assert a.all_ids() == b.all_ids()
        assert [m.period_ms for m in a.messages] == [m.period_ms for m in b.messages]

    def test_different_seeds_differ(self):
        assert synthesize_bus("x", 1).all_ids() != synthesize_bus("x", 2).all_ids()

    def test_unique_transmitter_per_id(self):
        """The Sec. IV-A assumption: each ID has exactly one transmitter."""
        matrix = synthesize_bus("x", seed=3)
        seen = {}
        for message in matrix.messages:
            assert seen.setdefault(message.can_id, message.transmitter) == \
                message.transmitter

    def test_periods_from_automotive_set(self):
        matrix = synthesize_bus("x", seed=4)
        assert {m.period_ms for m in matrix.messages} <= {10, 20, 50, 100,
                                                          200, 500, 1000}

    def test_mostly_8_byte_frames(self):
        matrix = synthesize_bus("x", seed=5, num_messages=80)
        eights = sum(1 for m in matrix.messages if m.dlc == 8)
        assert eights / len(matrix) > 0.5

    def test_eight_buses_total(self):
        buses = all_vehicle_buses()
        assert len(buses) == 8
        assert len({b.name for b in buses}) == 8

    def test_unknown_vehicle(self):
        with pytest.raises(KeyError):
            vehicle_buses("veh_z")

    def test_realistic_native_bus_load(self):
        """~40 % load at the native 500 kbit/s speed (the paper's figure)."""
        for vehicle in VEHICLES:
            primary, _ = vehicle_buses(vehicle)
            load = theoretical_bus_load(primary, BUS_SPEED_500K)
            assert 0.05 <= load <= 0.8


class TestPacifica:
    def test_parksense_band(self):
        matrix = pacifica_matrix()
        for can_id in PARKSENSE_IDS:
            assert matrix.by_id(can_id).period_ms > 0
        assert min(PARKSENSE_IDS) == 0x260
        assert PARKSENSE_ATTACK_ID == 0x25F

    def test_attack_id_not_legitimate(self):
        matrix = pacifica_matrix()
        assert PARKSENSE_ATTACK_ID not in matrix.all_ids()

    def test_background_traffic_on_both_sides(self):
        matrix = pacifica_matrix()
        ids = matrix.all_ids()
        assert any(i < 0x250 for i in ids)
        assert any(i > 0x300 for i in ids)


class TestWorkloadBridging:
    def test_nodes_for_matrix_one_per_ecu(self):
        matrix = synthesize_bus("x", seed=6, num_ecus=7)
        nodes = nodes_for_matrix(matrix, bus_speed=500_000)
        assert len(nodes) == 7

    def test_matrix_traffic_flows(self):
        matrix = synthesize_bus("x", seed=7, num_messages=10, num_ecus=3)
        sim = CanBusSimulator(bus_speed=500_000)
        for node in nodes_for_matrix(matrix, 500_000):
            sim.add_node(node)
        sim.advance(30_000)
        tx_ids = {e.frame.can_id for e in sim.events_of(FrameTransmitted)}
        assert tx_ids  # traffic flows
        assert tx_ids <= set(matrix.all_ids())
        assert all(node.tec == 0 for node in sim.nodes)

    def test_restbus_replays_all_periodic_ids(self):
        matrix = synthesize_bus("x", seed=8, num_messages=12, num_ecus=4)
        sim = CanBusSimulator(bus_speed=500_000)
        sim.add_node(RestbusNode("restbus", matrix, 500_000))
        sim.add_node(CanNode("listener"))
        sim.advance(600_000)
        tx_ids = {e.frame.can_id for e in sim.events_of(FrameTransmitted)}
        assert tx_ids == set(m.can_id for m in matrix.periodic_messages())

    def test_restbus_time_scale_thins_traffic(self):
        matrix = synthesize_bus("x", seed=9, num_messages=12, num_ecus=4)

        def frames_with_scale(scale):
            sim = CanBusSimulator(bus_speed=500_000)
            sim.add_node(RestbusNode("restbus", matrix, 500_000,
                                     time_scale=scale))
            sim.add_node(CanNode("listener"))
            sim.advance(200_000)
            return len(sim.events_of(FrameTransmitted))

        assert frames_with_scale(4.0) < frames_with_scale(1.0)

    def test_restbus_invalid_scale(self):
        matrix = synthesize_bus("x", seed=10)
        with pytest.raises(ValueError):
            RestbusNode("r", matrix, 500_000, time_scale=0)
