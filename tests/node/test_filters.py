"""Tests for controller acceptance filtering."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bus.events import FrameReceived
from repro.bus.simulator import CanBusSimulator
from repro.can.frame import CanFrame
from repro.errors import ConfigurationError
from repro.node.controller import CanNode
from repro.node.filters import AcceptanceFilter, FilterBank


class TestAcceptanceFilter:
    def test_exact(self):
        f = AcceptanceFilter.exact(0x173)
        assert f.accepts(CanFrame(0x173))
        assert not f.accepts(CanFrame(0x172))

    def test_extended_and_standard_do_not_cross(self):
        std = AcceptanceFilter.exact(0x123)
        ext = AcceptanceFilter.exact(0x123, extended=True)
        assert not std.accepts(CanFrame(0x123, extended=True))
        assert not ext.accepts(CanFrame(0x123))

    def test_mask_dont_care_bits(self):
        f = AcceptanceFilter(match=0x100, mask=0x700)
        assert f.accepts(CanFrame(0x1FF))
        assert not f.accepts(CanFrame(0x2FF))

    def test_range_helper(self):
        f = AcceptanceFilter.id_range(0x260, 0x267)
        assert f.accepts(CanFrame(0x260))
        assert f.accepts(CanFrame(0x267))
        assert not f.accepts(CanFrame(0x268))
        assert not f.accepts(CanFrame(0x25F))

    def test_range_must_be_power_of_two_block(self):
        with pytest.raises(ConfigurationError):
            AcceptanceFilter.id_range(0x260, 0x265)
        with pytest.raises(ConfigurationError):
            AcceptanceFilter.id_range(0x261, 0x268)

    def test_out_of_range_values(self):
        with pytest.raises(ConfigurationError):
            AcceptanceFilter(match=0x800, mask=0x7FF)

    @given(st.integers(min_value=0, max_value=0x7FF))
    def test_exact_matches_only_itself(self, can_id):
        f = AcceptanceFilter.exact(0x2A5)
        assert f.accepts(CanFrame(can_id)) == (can_id == 0x2A5)


class TestFilterBank:
    def test_empty_bank_accepts_all(self):
        assert FilterBank().accepts(CanFrame(0x7FF))

    def test_any_filter_suffices(self):
        bank = FilterBank([AcceptanceFilter.exact(0x100),
                           AcceptanceFilter.exact(0x200)])
        assert bank.accepts(CanFrame(0x200))
        assert not bank.accepts(CanFrame(0x300))

    def test_add(self):
        bank = FilterBank([AcceptanceFilter.exact(0x100)])
        bank.add(AcceptanceFilter.exact(0x300))
        assert bank.accepts(CanFrame(0x300))


class TestFilteredNode:
    def test_callbacks_gated_but_ack_still_given(self):
        """Filtering spares the application, not the protocol: the filtered
        node still acknowledges, so a lone transmitter succeeds."""
        sim = CanBusSimulator()
        sender = sim.add_node(CanNode("sender"))
        receiver = sim.add_node(CanNode(
            "receiver", filters=FilterBank([AcceptanceFilter.exact(0x100)])))
        delivered = []
        receiver.on_frame_received(lambda t, f: delivered.append(f.can_id))
        sender.send(CanFrame(0x100, b"\x01"))
        sender.send(CanFrame(0x555, b"\x02"))
        sim.advance(600)
        assert delivered == [0x100]
        # Both frames were acknowledged and completed on the wire.
        assert len(sim.events_of(FrameReceived)) == 2
        assert sender.tec == 0

    def test_event_stream_reports_everything(self):
        """The bus-level truth (events/trace) is unaffected by filters."""
        sim = CanBusSimulator()
        sender = sim.add_node(CanNode("sender"))
        sim.add_node(CanNode(
            "receiver", filters=FilterBank([AcceptanceFilter.exact(0x001)])))
        sender.send(CanFrame(0x7F0))
        sim.advance(300)
        assert len(sim.events_of(FrameReceived)) == 1
