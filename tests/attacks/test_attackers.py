"""Tests for the threat-model attacker implementations."""

import pytest

from repro.attacks.base import AttackerNode, ContinuousSource
from repro.attacks.dos import DosAttacker, TargetedDosAttacker, TraditionalDosAttacker
from repro.attacks.miscellaneous import MiscellaneousAttacker
from repro.attacks.multi_id import ToggleAttacker
from repro.attacks.spoofing import MasqueradeAttacker, SpoofingAttacker
from repro.bus.events import BusOffEntered, FrameStarted, FrameTransmitted
from repro.bus.simulator import CanBusSimulator
from repro.can.frame import CanFrame
from repro.core.defense import MichiCanNode
from repro.node.controller import CanNode
from repro.node.scheduler import PeriodicMessage, PeriodicScheduler, TransmitQueue


class TestContinuousSource:
    def test_keeps_queue_nonempty(self):
        source = ContinuousSource(0x10)
        queue = TransmitQueue()
        assert source.tick(0, queue) == 1
        assert source.tick(1, queue) == 0  # already pending
        queue.on_success(5)
        assert source.tick(6, queue) == 1

    def test_limit(self):
        source = ContinuousSource(0x10, limit=1)
        queue = TransmitQueue()
        source.tick(0, queue)
        queue.on_success(1)
        assert source.tick(2, queue) == 0

    def test_start_bits_delays(self):
        source = ContinuousSource(0x10, start_bits=100)
        queue = TransmitQueue()
        assert source.tick(50, queue) == 0
        assert source.tick(100, queue) == 1

    def test_add_rejected(self):
        with pytest.raises(NotImplementedError):
            ContinuousSource(0x10).add(None)


class TestDosAttackers:
    def test_traditional_uses_id_zero(self):
        assert TraditionalDosAttacker("a").attack_id == 0x000

    def test_targeted_uses_one_below_victim(self):
        attacker = TargetedDosAttacker("a", victim_id=0x260)
        assert attacker.attack_id == 0x25F

    def test_targeted_rejects_victim_zero(self):
        with pytest.raises(ValueError):
            TargetedDosAttacker("a", victim_id=0)

    def test_traditional_dos_starves_all_traffic(self):
        """Without a defense, a flooding 0x000 attacker owns the bus."""
        sim = CanBusSimulator()
        victim = sim.add_node(CanNode("victim", scheduler=PeriodicScheduler(
            [PeriodicMessage(0x100, period_bits=400)])))
        sim.add_node(TraditionalDosAttacker("attacker"))
        sim.advance(10_000)
        victim_tx = [e for e in sim.events_of(FrameTransmitted)
                     if e.node == "victim"]
        assert victim_tx == []
        assert len(victim.queue) >= 20  # victim frames pile up

    def test_targeted_dos_spares_higher_priority(self):
        """A targeted attack at 0x25F starves IDs above but not below."""
        sim = CanBusSimulator()
        sim.add_node(CanNode("high", scheduler=PeriodicScheduler(
            [PeriodicMessage(0x100, period_bits=600)])))
        sim.add_node(CanNode("low", scheduler=PeriodicScheduler(
            [PeriodicMessage(0x300, period_bits=600)])))
        sim.add_node(TargetedDosAttacker("attacker", victim_id=0x260))
        sim.advance(12_000)
        tx = sim.events_of(FrameTransmitted)
        assert any(e.node == "high" for e in tx)
        assert not any(e.node == "low" for e in tx)

    def test_frames_injected_counter(self):
        sim = CanBusSimulator()
        attacker = sim.add_node(DosAttacker("attacker", 0x050))
        sim.add_node(CanNode("peer"))
        sim.advance(1_000)
        assert attacker.frames_injected >= 2


class TestSpoofing:
    def test_spoofed_frames_accepted_by_receivers(self):
        """Without authentication, receivers accept forged frames (Sec. III)."""
        sim = CanBusSimulator()
        received = []
        listener = sim.add_node(CanNode("listener"))
        listener.on_frame_received(lambda t, f: received.append(f))
        sim.add_node(SpoofingAttacker("attacker", target_id=0x173,
                                      period_bits=500))
        sim.advance(2_000)
        assert received
        assert all(f.can_id == 0x173 and f.data == b"\xFF" * 8 for f in received)

    def test_masquerade_phases(self):
        sim = CanBusSimulator()
        attacker = MasqueradeAttacker(
            "attacker", victim_id=0x173, suppress_bits=2_000,
            fabricate_period_bits=500,
        )
        sim.add_node(attacker)
        sim.add_node(CanNode("listener"))
        sim.advance(6_000)
        ids = [e.frame.can_id for e in sim.events_of(FrameTransmitted)]
        assert 0x172 in ids  # suspension phase
        assert 0x173 in ids  # fabrication phase

    def test_masquerade_rejects_victim_zero(self):
        with pytest.raises(ValueError):
            MasqueradeAttacker("a", victim_id=0, suppress_bits=1,
                               fabricate_period_bits=1)

    def test_masquerade_dies_against_michican(self):
        """The DoS phase is counterattacked, so fabrication never lands."""
        sim = CanBusSimulator()
        sim.add_node(MichiCanNode("defender", range(0x173)))
        attacker = MasqueradeAttacker(
            "attacker", victim_id=0x173, suppress_bits=50_000,
            fabricate_period_bits=500, auto_recover=False,
        )
        sim.add_node(attacker)
        sim.advance(5_000)
        assert attacker.is_bus_off
        tx_ids = [e.frame.can_id for e in sim.events_of(FrameTransmitted)
                  if e.node == "attacker"]
        assert 0x173 not in tx_ids


class TestMiscellaneous:
    def test_validates_id_above_max(self):
        with pytest.raises(ValueError):
            MiscellaneousAttacker("a", can_id=0x100,
                                  highest_legitimate_id=0x3D5)

    def test_delays_but_does_not_starve(self):
        """Def. IV.3: a miscellaneous attack adds at most one frame length
        of blocking per legitimate message."""
        sim = CanBusSimulator()
        victim = sim.add_node(CanNode("victim", scheduler=PeriodicScheduler(
            [PeriodicMessage(0x100, period_bits=1_000)])))
        sim.add_node(MiscellaneousAttacker(
            "attacker", can_id=0x7F0, highest_legitimate_id=0x3D5))
        sim.advance(10_000)
        victim_tx = [e for e in sim.events_of(FrameTransmitted)
                     if e.node == "victim"]
        assert len(victim_tx) >= 9  # high-priority traffic still flows


class TestToggleAttacker:
    def test_alternates_ids_across_bus_offs(self):
        sim = CanBusSimulator(bus_speed=50_000)
        sim.add_node(MichiCanNode("defender", range(0x100)))
        attacker = sim.add_node(ToggleAttacker("attacker", (0x050, 0x051)))
        sim.advance(12_000)
        assert attacker.bus_off_count >= 2
        started = [e.frame.can_id for e in sim.events_of(FrameStarted)
                   if e.node == "attacker"]
        assert 0x050 in started and 0x051 in started

    def test_needs_two_ids(self):
        with pytest.raises(ValueError):
            ToggleAttacker("a", (0x050,))

    def test_flush_on_bus_off(self):
        sim = CanBusSimulator(bus_speed=50_000)
        sim.add_node(MichiCanNode("defender", range(0x100)))
        attacker = sim.add_node(ToggleAttacker("attacker", (0x050, 0x051)))
        sim.advance(3_000)
        boffs = sim.events_of(BusOffEntered)
        assert boffs
        # After the first bus-off, the failed 0x050 was dropped: the next
        # attempt uses 0x051.
        after = [e.frame.can_id for e in sim.events_of(FrameStarted)
                 if e.node == "attacker" and e.time > boffs[0].time]
        if after:
            assert after[0] == 0x051


class TestRandomDos:
    def test_ids_vary_and_avoid_legitimate(self):
        from repro.attacks.dos import RandomDosAttacker
        from repro.bus.events import FrameStarted

        sim = CanBusSimulator()
        attacker = sim.add_node(RandomDosAttacker(
            "attacker", legitimate_ids={0x050, 0x064}, seed=3))
        sim.add_node(CanNode("peer"))
        sim.advance(4_000)
        ids = {e.frame.can_id for e in sim.events_of(FrameStarted)
               if e.node == "attacker"}
        assert len(ids) >= 3                # the ID actually varies
        assert not ids & {0x050, 0x064}     # legitimate IDs never used
        assert max(ids) < 0x100

    def test_rejects_empty_pool(self):
        from repro.attacks.dos import RandomDosAttacker

        with pytest.raises(ValueError):
            RandomDosAttacker("a", legitimate_ids=range(0x100), ceiling=0x100)

    def test_michican_eradicates_random_dos(self):
        """Every random ID falls in the same detection range: the varying-ID
        trick buys the attacker nothing (cf. Experiment 6)."""
        from repro.attacks.dos import RandomDosAttacker

        sim = CanBusSimulator(bus_speed=50_000)
        sim.add_node(MichiCanNode("defender", range(0x100)))
        attacker = sim.add_node(RandomDosAttacker(
            "attacker", legitimate_ids=set(), seed=7))
        hit = sim.advance_until(
            lambda s: attacker.is_bus_off, 10_000, policy="off")
        assert hit is not None
