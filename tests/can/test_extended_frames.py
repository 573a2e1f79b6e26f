"""Tests for CAN 2.0B extended (29-bit identifier) frame support."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus.events import ArbitrationLost, FrameReceived, FrameTransmitted
from repro.bus.simulator import CanBusSimulator
from repro.can.bitstream import Field, serialize_frame, unstuffed_frame_bits
from repro.can.constants import DOMINANT, RECESSIVE
from repro.can.frame import CanFrame, MAX_EXT_ID
from repro.errors import FrameError
from repro.node.controller import CanNode

ext_ids = st.integers(min_value=0, max_value=MAX_EXT_ID)
payloads = st.binary(min_size=0, max_size=8)
ext_frames = st.builds(CanFrame, ext_ids, payloads, st.just(True))


class TestFrameModel:
    def test_extended_id_range(self):
        assert CanFrame(MAX_EXT_ID, extended=True).can_id == MAX_EXT_ID
        with pytest.raises(FrameError):
            CanFrame(MAX_EXT_ID + 1, extended=True)

    def test_standard_range_still_11_bit(self):
        with pytest.raises(FrameError):
            CanFrame(0x800)

    def test_id_width(self):
        assert CanFrame(0x10, extended=True).id_width == 29
        assert CanFrame(0x10).id_width == 11

    def test_base_and_extension_split(self):
        frame = CanFrame((0x555 << 18) | 0x2AAAA, extended=True)
        base = 0
        for bit in frame.base_id_bits():
            base = (base << 1) | bit
        ext = 0
        for bit in frame.extension_id_bits():
            ext = (ext << 1) | bit
        assert base == 0x555
        assert ext == 0x2AAAA

    def test_extension_bits_rejected_for_standard(self):
        with pytest.raises(FrameError):
            CanFrame(0x10).extension_id_bits()

    def test_priority_standard_beats_extended_on_equal_base(self):
        standard = CanFrame(0x100)
        extended = CanFrame(0x100 << 18, extended=True)
        assert standard.priority_key() < extended.priority_key()

    def test_str_marks_extended(self):
        assert str(CanFrame(0x18DAF110, extended=True)).endswith("x [0] <empty>")


class TestSerialization:
    def test_layout_fields(self):
        frame = CanFrame(0x1ABCDEF0, b"\x11", extended=True)
        fields = [f for _, f in unstuffed_frame_bits(frame)]
        assert fields[0] is Field.SOF
        assert fields[1:12] == [Field.ID] * 11
        assert fields[12] is Field.SRR
        assert fields[13] is Field.IDE
        assert fields[14:32] == [Field.EXT_ID] * 18
        assert fields[32] is Field.RTR
        assert fields[33] is Field.R1
        assert fields[34] is Field.R0
        assert fields[35:39] == [Field.DLC] * 4

    def test_srr_and_ide_recessive(self):
        bits = unstuffed_frame_bits(CanFrame(0, extended=True))
        assert bits[12][0] == RECESSIVE  # SRR
        assert bits[13][0] == RECESSIVE  # IDE

    @given(ext_frames)
    @settings(max_examples=50, deadline=None)
    def test_unstuffed_length(self, frame):
        # SOF + 11 + SRR + IDE + 18 + RTR + r1 + r0 + 4 DLC + data
        # + 15 CRC + delim + ack + ackdelim + 7 EOF = 64 + 8*dlc
        assert len(unstuffed_frame_bits(frame)) == 64 + 8 * frame.dlc

    @given(ext_frames)
    @settings(max_examples=30, deadline=None)
    def test_no_six_equal_bits_in_stuffed_region(self, frame):
        wire = serialize_frame(frame)
        run_level, run_length = -1, 0
        trailer = (Field.CRC_DELIM, Field.ACK_SLOT, Field.ACK_DELIM, Field.EOF)
        for bit in wire:
            if bit.field in trailer:
                break
            if bit.level == run_level:
                run_length += 1
            else:
                run_level, run_length = bit.level, 1
            assert run_length <= 5


class TestOnTheWire:
    @settings(max_examples=20, deadline=None)
    @given(ext_frames)
    def test_roundtrip_over_the_bus(self, frame):
        sim = CanBusSimulator()
        a, b = CanNode("a"), CanNode("b")
        sim.add_node(a), sim.add_node(b)
        received = []
        b.on_frame_received(lambda t, f: received.append(f))
        a.send(frame)
        sim.advance(400)
        assert received == [frame]
        assert received[0].extended

    def test_standard_wins_arbitration_on_equal_base_id(self):
        """CAN 2.0B rule: the standard frame's dominant RTR beats the
        extended frame's recessive SRR at the same base ID."""
        sim = CanBusSimulator()
        x, y = CanNode("x"), CanNode("y")
        sim.add_node(x), sim.add_node(y)
        x.send(CanFrame(0x100 << 18, extended=True))
        y.send(CanFrame(0x100))
        sim.advance(700)
        order = [e.frame.extended for e in sim.events_of(FrameTransmitted)]
        assert order == [False, True]
        lost = sim.events_of(ArbitrationLost)
        assert lost and lost[0].node == "x"
        assert lost[0].bit_position == 12  # the SRR position
        assert x.tec == 0 and y.tec == 0

    def test_lower_extension_wins_between_extended(self):
        sim = CanBusSimulator()
        x, y = CanNode("x"), CanNode("y")
        sim.add_node(x), sim.add_node(y)
        base = 0x100 << 18
        x.send(CanFrame(base | 0x3FF, extended=True))
        y.send(CanFrame(base | 0x0FF, extended=True))
        sim.advance(800)
        ids = [e.frame.can_id for e in sim.events_of(FrameTransmitted)]
        assert ids == [base | 0x0FF, base | 0x3FF]

    def test_mixed_traffic_no_errors(self):
        sim = CanBusSimulator()
        a, b = CanNode("a"), CanNode("b")
        sim.add_node(a), sim.add_node(b)
        a.send(CanFrame(0x18DAF110, b"\x01\x02", extended=True))
        a.send(CanFrame(0x123, b"\x03"))
        b.send(CanFrame(0x0CFE6CEE, b"\x04" * 8, extended=True))
        sim.advance(1_500)
        assert len(sim.events_of(FrameTransmitted)) == 3
        assert all(n.tec == 0 for n in sim.nodes)
