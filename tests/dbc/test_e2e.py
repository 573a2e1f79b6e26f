"""Tests for E2E payload protection — and for the paper's point that
integrity protection cannot provide availability."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.attacks.spoofing import SpoofingAttacker
from repro.attacks.dos import DosAttacker
from repro.bus.events import FrameTransmitted
from repro.bus.simulator import CanBusSimulator
from repro.core.defense import MichiCanNode
from repro.dbc.e2e import (
    E2eMonitor,
    E2eProfile,
    E2eStatus,
    crc8,
    protected_payload_fn,
)
from repro.errors import ConfigurationError
from repro.node.controller import CanNode
from repro.node.scheduler import PeriodicMessage, PeriodicScheduler


class TestCrc8:
    def test_empty(self):
        # init 0xFF, no data, xor-out 0xFF -> 0x00
        assert crc8(b"") == 0x00

    def test_known_properties(self):
        # Deterministic and sensitive to every bit.
        base = crc8(b"\x01\x02\x03")
        assert crc8(b"\x01\x02\x03") == base
        assert crc8(b"\x01\x02\x02") != base

    @given(st.binary(min_size=1, max_size=16), st.data())
    def test_detects_single_bit_flip(self, data, draw):
        index = draw.draw(st.integers(0, len(data) * 8 - 1))
        corrupted = bytearray(data)
        corrupted[index // 8] ^= 1 << (index % 8)
        assert crc8(data) != crc8(bytes(corrupted))


class TestProfile:
    def test_protect_layout(self):
        profile = E2eProfile(data_id=0x42)
        payload = profile.protect(b"\xA0\xBB", counter=5)
        assert len(payload) == 8
        assert payload[1] & 0x0F == 5
        assert profile.check(payload, last_counter=None) is E2eStatus.OK

    def test_data_too_long(self):
        with pytest.raises(ConfigurationError):
            E2eProfile(data_id=1).protect(bytes(8), 0)

    def test_bad_data_id(self):
        with pytest.raises(ConfigurationError):
            E2eProfile(data_id=300)

    def test_wrong_crc_detected(self):
        profile = E2eProfile(data_id=0x42)
        payload = bytearray(profile.protect(b"\x01", 3))
        payload[4] ^= 0xFF
        assert profile.check(bytes(payload), None) is E2eStatus.WRONG_CRC

    def test_cross_message_replay_detected(self):
        """The data-ID in the CRC stops replaying message A's payload as
        message B."""
        a, b = E2eProfile(data_id=1), E2eProfile(data_id=2)
        payload = a.protect(b"\x55", 7)
        assert b.check(payload, None) is E2eStatus.WRONG_CRC

    def test_repeated_counter(self):
        profile = E2eProfile(data_id=9)
        payload = profile.protect(b"", counter=4)
        assert profile.check(payload, last_counter=4) is E2eStatus.REPEATED

    def test_sequence_jump(self):
        profile = E2eProfile(data_id=9, max_delta=2)
        payload = profile.protect(b"", counter=8)
        assert profile.check(payload, last_counter=2) is E2eStatus.WRONG_SEQUENCE

    def test_tolerated_loss(self):
        profile = E2eProfile(data_id=9, max_delta=3)
        payload = profile.protect(b"", counter=5)
        assert profile.check(payload, last_counter=3) is E2eStatus.OK

    @given(st.integers(0, 15), st.binary(max_size=7))
    def test_roundtrip_any_counter(self, counter, data):
        profile = E2eProfile(data_id=0x10)
        payload = profile.protect(data, counter)
        assert profile.check(payload, None) is E2eStatus.OK
        assert profile.extract_counter(payload) == counter


class TestMonitorOnTheBus:
    def test_legitimate_protected_stream_all_ok(self):
        profile = E2eProfile(data_id=0x73)
        sim = CanBusSimulator()
        sim.add_node(CanNode("sender", scheduler=PeriodicScheduler(
            [PeriodicMessage(0x173, period_bits=500,
                             payload_fn=protected_payload_fn(profile))])))
        receiver = sim.add_node(CanNode("receiver"))
        monitor = E2eMonitor(profiles={0x173: profile})
        receiver.on_frame_received(monitor.on_frame)
        sim.advance(6_000)
        counts = monitor.statuses[0x173]
        assert set(counts) == {E2eStatus.OK}
        assert monitor.distrusted_ids() == []

    def test_fabrication_detected_by_e2e(self):
        """A spoofer without the profile fails CRC/counter checks — the
        integrity layer works as intended..."""
        profile = E2eProfile(data_id=0x73)
        sim = CanBusSimulator()
        sim.add_node(SpoofingAttacker("attacker", target_id=0x173,
                                      period_bits=500))
        receiver = sim.add_node(CanNode("receiver"))
        monitor = E2eMonitor(profiles={0x173: profile})
        receiver.on_frame_received(monitor.on_frame)
        sim.advance(6_000)
        assert monitor.distrusted_ids() == [0x173]
        assert E2eStatus.WRONG_CRC in monitor.statuses[0x173]

    def test_e2e_cannot_provide_availability(self):
        """...but the paper's point stands: under DoS the monitor sees
        *nothing* (no frames arrive at all), so integrity protection alone
        cannot even observe the attack, let alone stop it."""
        profile = E2eProfile(data_id=0x73)
        sim = CanBusSimulator()
        sim.add_node(CanNode("sender", scheduler=PeriodicScheduler(
            [PeriodicMessage(0x173, period_bits=500,
                             payload_fn=protected_payload_fn(profile))])))
        receiver = sim.add_node(CanNode("receiver"))
        monitor = E2eMonitor(profiles={0x173: profile})
        receiver.on_frame_received(monitor.on_frame)
        sim.add_node(DosAttacker("attacker", 0x000))
        sim.advance(20_000)
        assert 0x173 not in monitor.statuses  # starved silently
        # MichiCAN restores availability where E2E cannot:
        sim2 = CanBusSimulator()
        sim2.add_node(MichiCanNode("defender", range(0x100)))
        sim2.add_node(CanNode("sender", scheduler=PeriodicScheduler(
            [PeriodicMessage(0x173, period_bits=500,
                             payload_fn=protected_payload_fn(profile))])))
        receiver2 = sim2.add_node(CanNode("receiver"))
        monitor2 = E2eMonitor(profiles={0x173: profile})
        receiver2.on_frame_received(monitor2.on_frame)
        sim2.add_node(DosAttacker("attacker", 0x000))
        sim2.advance(20_000)
        assert monitor2.statuses.get(0x173, {}).get(E2eStatus.OK, 0) > 0
