"""PTM encoder, TPIU framing and the golden decoder, end to end."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coresight.decoder import (
    DecodedAtom,
    DecodedBranch,
    DecodedContext,
    DecodedISync,
    DecodedTimestamp,
    PftDecoder,
)
from repro.coresight.driver import CoreSightDriver
from repro.coresight.ptm import Ptm, PtmConfig, encode_trace
from repro.coresight.tpiu import (
    FRAME_SIZE,
    SYNC_FRAME,
    Tpiu,
    TpiuDeframer,
)
from repro.errors import FrameSyncError, PacketDecodeError, SocConfigError
from repro.frontends import get_frontend
from repro.workloads.cfg import BranchEvent, BranchKind


def taken_events(events):
    return [
        e for e in events
        if not (e.kind is BranchKind.CONDITIONAL and not e.taken)
    ]


def decode_all(data):
    return PftDecoder().feed(data)


class TestPtmEncoder:
    def test_first_event_emits_sync_burst(self):
        ptm = Ptm()
        event = BranchEvent(0, 0x1000, 0x2000, BranchKind.UNCONDITIONAL)
        data = ptm.feed(event)
        items = decode_all(data)
        kinds = [type(i) for i in items]
        assert DecodedISync in kinds
        assert DecodedContext in kinds
        assert DecodedBranch in kinds

    def test_not_taken_conditionals_become_atoms(self):
        ptm = Ptm()
        events = [
            BranchEvent(0, 0x1000, 0x2000, BranchKind.UNCONDITIONAL)
        ] + [
            BranchEvent(i, 0x1000, 0x1004, BranchKind.CONDITIONAL, taken=False)
            for i in range(1, 4)
        ]
        data = b"".join(ptm.feed(e) for e in events) + ptm.flush()
        atoms = [i for i in decode_all(data) if isinstance(i, DecodedAtom)]
        assert len(atoms) == 3
        assert all(not a.taken for a in atoms)

    def test_syscall_marks_exception(self):
        events = [
            BranchEvent(0, 0x1000, 0x2000, BranchKind.UNCONDITIONAL),
            BranchEvent(1, 0x1010, 0xFFFF0000, BranchKind.SYSCALL),
        ]
        data = encode_trace(events)
        branches = [
            i for i in decode_all(data) if isinstance(i, DecodedBranch)
        ]
        assert branches[-1].is_syscall

    def test_periodic_resync(self):
        config = PtmConfig(sync_interval_bytes=64)
        ptm = Ptm(config)
        events = [
            BranchEvent(i, 0x1000 + 8 * i, 0x9000_0000 + 512 * i,
                        BranchKind.UNCONDITIONAL)
            for i in range(200)
        ]
        data = b"".join(ptm.feed(e) for e in events)
        isyncs = [i for i in decode_all(data) if isinstance(i, DecodedISync)]
        assert len(isyncs) > 3
        assert ptm.packet_counts["isync"] == len(isyncs)

    def test_timestamps_optional(self):
        config = PtmConfig(timestamps_enabled=True)
        ptm = Ptm(config)
        data = ptm.feed(
            BranchEvent(77, 0x1000, 0x2000, BranchKind.UNCONDITIONAL)
        )
        stamps = [
            i for i in decode_all(data) if isinstance(i, DecodedTimestamp)
        ]
        assert stamps and stamps[0].cycles == 77

    def test_compression_keeps_stream_small(self, small_trace):
        data = encode_trace(small_trace.events)
        assert len(data) / len(small_trace.events) < 2.0

    def test_decoded_branches_match_events(self, small_trace):
        data = encode_trace(small_trace.events)
        branches = [
            i for i in decode_all(data) if isinstance(i, DecodedBranch)
        ]
        expected = taken_events(small_trace.events)
        assert len(branches) == len(expected)
        assert all(
            b.address == e.target for b, e in zip(branches, expected)
        )


class TestDecoderRobustness:
    def test_unknown_header_strict(self):
        with pytest.raises(PacketDecodeError):
            PftDecoder(strict=True).feed(b"\x02")

    def test_unknown_header_lenient(self):
        assert PftDecoder(strict=False).feed(b"\x02") == []

    def test_ignore_byte_skipped(self):
        assert PftDecoder().feed(b"\x20\x20") == []

    def test_truncated_packet_held(self):
        decoder = PftDecoder()
        partial = decoder.feed(b"\x08\x00\x10")  # i-sync missing bytes
        assert partial == []
        rest = decoder.feed(b"\x00\x00\x01")
        assert isinstance(rest[0], DecodedISync)

    def test_streaming_equals_batch(self, small_trace):
        data = encode_trace(small_trace.events[:800])
        batch = PftDecoder().feed(data)
        stream_decoder = PftDecoder()
        streamed = []
        for i in range(0, len(data), 3):
            streamed.extend(stream_decoder.feed(data[i:i + 3]))
        assert len(batch) == len(streamed)
        assert all(a == b for a, b in zip(batch, streamed))

    def test_state_from_before_branch_complete_was_dropped(
        self, small_trace
    ):
        # Older decoder states carry a dead ``branch_complete`` key;
        # restoring reads only the grammar's keys, so they still load.
        data = encode_trace(small_trace.events[:800])
        cut = len(data) // 2 + 1
        decoder = PftDecoder()
        decoder.feed(data[:cut])
        state = decoder.export_state()
        assert "branch_complete" not in state
        restored = PftDecoder()
        restored.restore_state({**state, "branch_complete": False})
        assert restored.export_state() == state
        assert restored.feed(data[cut:]) == decoder.feed(data[cut:])


class TestTpiu:
    def test_frames_are_fixed_size(self):
        tpiu = Tpiu(sync_period=1000)
        out = tpiu.push(bytes(range(100)))
        assert len(out) % FRAME_SIZE == 0

    def test_first_output_begins_with_sync(self):
        tpiu = Tpiu()
        out = tpiu.push(bytes(30))
        assert out[:FRAME_SIZE] == SYNC_FRAME

    def test_flush_emits_partial_payload(self):
        tpiu = Tpiu()
        tpiu.push(b"\x01\x02\x03")
        out = tpiu.flush()
        deframer = TpiuDeframer()
        # prepend a sync so the receiver can lock on
        assert deframer.push(SYNC_FRAME + out) == b"\x01\x02\x03"

    def test_roundtrip(self):
        tpiu = Tpiu(sync_period=4)
        payload = bytes(np.random.default_rng(0).integers(0, 256, 1000,
                                                          dtype=np.uint8))
        framed = tpiu.push(payload) + tpiu.flush()
        deframer = TpiuDeframer()
        assert deframer.push(framed) == payload

    def test_deframer_discards_until_sync(self):
        tpiu = Tpiu()
        framed = tpiu.push(bytes(range(60)))
        deframer = TpiuDeframer()
        garbage = b"\xAB" * 23
        recovered = deframer.push(garbage + framed)
        assert recovered == bytes(range(60))[:len(recovered)]
        assert deframer.bytes_discarded >= len(garbage)

    def test_wrong_source_id_raises(self):
        tpiu = Tpiu(source_id=0x2)
        framed = tpiu.push(bytes(range(60)))
        deframer = TpiuDeframer(expected_source_id=0x1)
        with pytest.raises(FrameSyncError):
            deframer.push(framed)

    def test_bad_source_id_constructor(self):
        with pytest.raises(ValueError):
            Tpiu(source_id=16)

    @given(st.binary(min_size=1, max_size=400), st.integers(1, 16))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_any_payload_any_chunking(self, payload, chunk):
        tpiu = Tpiu(sync_period=3)
        framed = bytearray()
        for i in range(0, len(payload), chunk):
            framed += tpiu.push(payload[i:i + chunk])
        framed += tpiu.flush()
        assert TpiuDeframer().push(bytes(framed)) == payload


class TestDriver:
    def test_requires_enable(self):
        driver = CoreSightDriver()
        with pytest.raises(SocConfigError):
            driver.trace(
                BranchEvent(0, 0x1000, 0x2000, BranchKind.UNCONDITIONAL)
            )

    def test_reconfigure_while_enabled_rejected(self):
        driver = CoreSightDriver()
        driver.enable()
        with pytest.raises(SocConfigError):
            driver.set_context_id(5)

    def test_end_to_end_trace_all(self, small_trace):
        driver = CoreSightDriver()
        driver.enable()
        framed = driver.trace_all(small_trace.events[:500])
        deframer = get_frontend("coresight").new_deframer()
        payload = deframer.push(framed)
        branches = [
            i for i in PftDecoder().feed(payload)
            if isinstance(i, DecodedBranch)
        ]
        expected = taken_events(small_trace.events[:500])
        assert [b.address for b in branches] == [e.target for e in expected]
