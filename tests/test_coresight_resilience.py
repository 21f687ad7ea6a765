"""Failure injection on the trace path: corruption and resync.

A real trace port can glitch; the PFT design recovers because (a) the
a-sync pattern (five 0x00 then 0x80) cannot appear inside any packet's
header position run for long, and (b) the i-sync that follows carries
a full absolute address, resetting the branch-address compression
state.  These tests corrupt the stream and check the decoder re-locks.
"""

import numpy as np
import pytest

from repro.coresight.decoder import DecodedBranch, DecodedISync, PftDecoder
from repro.coresight.ptm import Ptm, PtmConfig
from repro.errors import PacketDecodeError
from repro.workloads.cfg import BranchEvent, BranchKind


def make_stream(num_events=400, sync_interval=128):
    ptm = Ptm(PtmConfig(sync_interval_bytes=sync_interval))
    rng = np.random.default_rng(1)
    events = [
        BranchEvent(
            cycle=i * 10,
            source=0x40000 + 4 * i,
            target=int(0x50000 + 4 * rng.integers(0, 4096)),
            kind=BranchKind.UNCONDITIONAL,
        )
        for i in range(num_events)
    ]
    chunks = [ptm.feed(e) for e in events]
    chunks.append(ptm.flush())
    return b"".join(chunks), events


class TestCorruptionRecovery:
    def test_clean_stream_decodes_fully(self):
        stream, events = make_stream()
        branches = [
            i for i in PftDecoder().feed(stream)
            if isinstance(i, DecodedBranch)
        ]
        assert len(branches) == len(events)

    def test_strict_decoder_raises_on_corruption(self):
        stream, _ = make_stream()
        corrupted = bytearray(stream)
        corrupted[len(corrupted) // 2] ^= 0xFF
        with pytest.raises(PacketDecodeError):
            PftDecoder(strict=True).feed(bytes(corrupted))

    def test_lenient_decoder_relocks_after_sync(self):
        stream, events = make_stream(sync_interval=96)
        corrupted = bytearray(stream)
        hit = len(corrupted) // 2
        for offset in range(4):  # clobber a few bytes
            corrupted[hit + offset] ^= 0xA5
        items = PftDecoder(strict=False).feed(bytes(corrupted))
        branches = [i for i in items if isinstance(i, DecodedBranch)]
        # Most of the stream survives: everything before the hit plus
        # everything after the next sync point.
        assert len(branches) > 0.8 * len(events)
        # Late branches decode to *correct* addresses again (i-sync
        # reset the compression state): the tail must match the clean
        # decode's tail.
        clean = [
            i for i in PftDecoder().feed(stream)
            if isinstance(i, DecodedBranch)
        ]
        assert [b.address for b in branches[-40:]] == [
            b.address for b in clean[-40:]
        ]

    def test_truncated_stream_keeps_prefix(self):
        stream, events = make_stream()
        cut = PftDecoder(strict=False).feed(stream[: len(stream) // 2])
        branches = [i for i in cut if isinstance(i, DecodedBranch)]
        clean = [
            i for i in PftDecoder().feed(stream)
            if isinstance(i, DecodedBranch)
        ]
        assert [b.address for b in branches] == [
            b.address for b in clean[: len(branches)]
        ]

    def test_isync_resets_address_compression(self):
        stream, _ = make_stream(sync_interval=64)
        items = PftDecoder().feed(stream)
        isyncs = [i for i in items if isinstance(i, DecodedISync)]
        assert len(isyncs) > 3
        # every i-sync carries a full absolute (word-aligned) address
        assert all(s.address % 4 == 0 for s in isyncs)

    def test_garbage_prefix_ignored_until_async(self):
        stream, events = make_stream()
        # lenient decoder fed garbage, then the real stream (which
        # begins with an a-sync burst)
        garbage = bytes([0x22, 0x6A, 0x42] * 5)  # harmless junk headers
        decoder = PftDecoder(strict=False)
        items = decoder.feed(garbage + stream)
        branches = [i for i in items if isinstance(i, DecodedBranch)]
        clean = [
            i for i in PftDecoder().feed(stream)
            if isinstance(i, DecodedBranch)
        ]
        assert [b.address for b in branches[-50:]] == [
            b.address for b in clean[-50:]
        ]


class TestResyncHunt:
    """Full-recovery mode: errors drop the decoder into an a-sync hunt."""

    def test_hunt_decoder_relocks_and_counts(self):
        stream, events = make_stream(sync_interval=96)
        corrupted = bytearray(stream)
        hit = len(corrupted) // 2
        for offset in range(4):
            corrupted[hit + offset] ^= 0xA5
        decoder = PftDecoder(strict=False, resync_hunt=True)
        items = decoder.feed(bytes(corrupted))
        branches = [i for i in items if isinstance(i, DecodedBranch)]
        assert len(branches) > 0.8 * len(events)
        assert decoder.resyncs >= 1
        clean = [
            i for i in PftDecoder().feed(stream)
            if isinstance(i, DecodedBranch)
        ]
        assert [b.address for b in branches[-40:]] == [
            b.address for b in clean[-40:]
        ]

    @pytest.mark.parametrize("atom", (0x04, 0x0C))  # no stop bit / 0 atoms
    def test_malformed_atom_byte_is_a_decode_error(self, atom):
        stream, events = make_stream()
        hit = len(stream) // 2
        corrupted = stream[:hit] + bytes([atom]) + stream[hit:]
        decoder = PftDecoder(strict=False, resync_hunt=True)
        items = decoder.feed(corrupted)
        branches = [i for i in items if isinstance(i, DecodedBranch)]
        assert decoder.resyncs == 1
        assert len(branches) > 0.8 * len(events)
        # lenient mode skips the byte in place; strict mode raises
        assert PftDecoder(strict=False).feed(bytes([atom])) == []
        with pytest.raises(PacketDecodeError):
            PftDecoder().feed(bytes([atom]))

    def test_initial_lock_is_not_a_resync(self):
        stream, _ = make_stream()
        decoder = PftDecoder(strict=False, resync_hunt=True)
        decoder.feed(bytes([0x22, 0x6A, 0x42] * 5) + stream)
        assert decoder.resyncs == 0
        assert decoder.hunt_bytes >= 15

    def test_relock_within_one_sync_interval(self):
        # Recovery bound: after a corruption burst the hunt-mode
        # decoder produces correct branches again no later than the
        # second a-sync following the burst (the first sync point can
        # itself be damaged by the burst's tail).
        sync_interval = 64
        stream, events = make_stream(num_events=400,
                                     sync_interval=sync_interval)
        clean_decoder = PftDecoder()
        clean = [
            i for i in clean_decoder.feed(stream)
            if isinstance(i, DecodedBranch)
        ]
        hit = len(stream) // 3
        corrupted = bytearray(stream)
        for offset in range(6):
            corrupted[hit + offset] ^= 0xFF
        decoder = PftDecoder(strict=False, resync_hunt=True)
        branches = [
            i for i in decoder.feed(bytes(corrupted))
            if isinstance(i, DecodedBranch)
        ]
        tail = [b.address for b in clean[-20:]]
        assert [b.address for b in branches[-20:]] == tail
        # hunt consumed at most ~two sync intervals of bytes
        assert decoder.hunt_bytes <= 2 * sync_interval + 16


class TestTruncatedTail:
    """End-of-stream handling for a packet cut off mid-flight."""

    def test_strict_finish_raises_on_truncation(self):
        stream, _ = make_stream()
        decoder = PftDecoder(strict=True)
        decoder.feed(stream[:-3])  # cut mid-packet (statistically)
        if decoder._state.value == "idle":  # pragma: no cover
            pytest.skip("cut landed on a packet boundary")
        with pytest.raises(PacketDecodeError):
            decoder.finish()

    def test_lenient_finish_reports_truncated_packet(self):
        from repro.coresight.decoder import TruncatedPacket

        stream, _ = make_stream()
        decoder = PftDecoder(strict=False)
        decoder.feed(stream[:-3])
        out = decoder.finish()
        assert len(out) == 1
        marker = out[0]
        assert isinstance(marker, TruncatedPacket)
        assert marker.pending_bytes >= 1
        assert decoder.truncated == 1
        # the decoder is reusable for a fresh stream afterwards
        branches = [
            i for i in decoder.feed(stream)
            if isinstance(i, DecodedBranch)
        ]
        assert branches

    def test_clean_finish_is_empty(self):
        stream, _ = make_stream()
        decoder = PftDecoder(strict=True)
        decoder.feed(stream)
        assert decoder.finish() == []
        assert decoder.truncated == 0

    def test_hunt_mode_finish_returns_to_hunt(self):
        stream, _ = make_stream()
        decoder = PftDecoder(strict=False, resync_hunt=True)
        decoder.feed(stream[:-3])
        decoder.finish()
        assert decoder._state.value == "hunt"


class TestDeframerResyncHunt:
    def test_malformed_frame_recovers(self):
        from repro.coresight.tpiu import Tpiu, TpiuDeframer

        ptm_stream, _ = make_stream(num_events=300, sync_interval=96)
        tpiu = Tpiu(sync_period=4)
        framed = tpiu.push(ptm_stream) + tpiu.flush()
        corrupted = bytearray(framed)
        del corrupted[len(corrupted) // 2]  # byte loss shifts framing
        deframer = TpiuDeframer(expected_source_id=1, resync_hunt=True)
        payload = deframer.push(bytes(corrupted))
        assert deframer.frame_resyncs >= 1
        branches = [
            i for i in PftDecoder(strict=False,
                                  resync_hunt=True).feed(payload)
            if isinstance(i, DecodedBranch)
        ]
        assert len(branches) > 100

    def test_strict_deframer_still_raises(self):
        from repro.coresight.tpiu import Tpiu, TpiuDeframer
        from repro.errors import FrameSyncError

        ptm_stream, _ = make_stream(num_events=100)
        tpiu = Tpiu(sync_period=4)
        framed = tpiu.push(ptm_stream) + tpiu.flush()
        corrupted = bytearray(framed)
        del corrupted[len(corrupted) // 3]
        deframer = TpiuDeframer(expected_source_id=1)
        with pytest.raises(FrameSyncError):
            deframer.push(bytes(corrupted))
