"""Property-based suite for the shared-memory fleet transport.

Three families of invariants (docs/FLEET.md §5):

- **Round-trip fidelity** — arbitrary payload sizes and chunkings
  survive stage -> fetch byte-identical, through the ring and through
  every spill-to-inline fallback.
- **Torn-slot detection** — corrupting *any* byte of a slot header
  (all 17 offsets: length, CRC, sequence, kind) raises
  ``TransportError`` on both the tagged (descriptor-carried CRC) and
  untagged (full body hash) read paths; untagged reads also catch
  payload tears.
- **No loss, no duplication** — full-ring backpressure spills inline
  without dropping a round, and a rewritten slot can never satisfy a
  stale descriptor.
"""

import os
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.durability.journal import MIN_RECORD_BYTES, record_size
from repro.errors import TransportError
from repro.fleet.transport import (
    SLOT_KIND_CHUNK,
    SLOT_KIND_REPLY,
    WIRE_INLINE,
    WIRE_SHM,
    CoordinatorTransport,
    ShmRing,
    WorkerTransport,
)

#: One bit flipped and all bits flipped — a torn byte either way.
TEAR_MASKS = (0x01, 0xFF)

#: Hypothesis profile: transport pairs are module-scoped (creating a
#: shared-memory segment per example would dominate the runtime), and
#: ring staging resets state per round, so examples stay independent.
COMMON_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

payload_lists = st.lists(
    st.binary(min_size=0, max_size=1024), min_size=1, max_size=12
)


def _chained_crc(payloads):
    crc = 0
    for payload in payloads:
        crc = zlib.crc32(payload, crc)
    return crc


def _release(buffers):
    for view in buffers:
        if isinstance(view, memoryview):
            view.release()


@pytest.fixture(scope="module")
def pair():
    coordinator = CoordinatorTransport(ring_bytes=1 << 16)
    worker = WorkerTransport(coordinator.spec)
    assert worker.c2w is not None, "in-process attach must not fall back"
    yield coordinator, worker
    worker.close()
    coordinator.close()


@pytest.fixture
def ring():
    handle = ShmRing.create(f"rfleet-prop-{os.getpid()}-{os.urandom(4).hex()}", 4096)
    yield handle
    handle.close()


class TestRoundTrip:
    @given(payloads=payload_lists)
    @COMMON_SETTINGS
    def test_tagged_roundtrip_byte_identical(self, pair, payloads):
        coordinator, worker = pair
        wire = coordinator.stage(payloads, _chained_crc(payloads))
        assert wire[0] == WIRE_SHM
        buffers = worker.fetch(wire)
        try:
            assert [bytes(view) for view in buffers] == payloads
        finally:
            _release(buffers)

    @given(payloads=payload_lists)
    @COMMON_SETTINGS
    def test_untagged_roundtrip_byte_identical(self, pair, payloads):
        coordinator, worker = pair
        buffers = worker.fetch(coordinator.stage(payloads))
        try:
            assert [bytes(view) for view in buffers] == payloads
        finally:
            _release(buffers)

    @given(
        blob=st.binary(min_size=0, max_size=4096),
        cuts=st.lists(st.integers(min_value=0, max_value=4096), max_size=6),
    )
    @COMMON_SETTINGS
    def test_chunking_is_invisible(self, pair, blob, cuts):
        """Any chunking of the same bytes fetches back to the same
        concatenation — the batched slot stores one contiguous body
        and the split is pure view slicing."""
        coordinator, worker = pair
        bounds = sorted(min(cut, len(blob)) for cut in cuts)
        payloads, start = [], 0
        for bound in bounds + [len(blob)]:
            payloads.append(blob[start:bound])
            start = bound
        buffers = worker.fetch(coordinator.stage(payloads))
        try:
            assert b"".join(bytes(view) for view in buffers) == blob
        finally:
            _release(buffers)

    @given(blob=st.binary(min_size=0, max_size=2048))
    @COMMON_SETTINGS
    def test_reply_roundtrip(self, pair, blob):
        coordinator, worker = pair
        reply = {"records": blob, "consumed_bytes": len(blob)}
        wire = worker.stage_reply(reply, WIRE_SHM)
        assert wire[0] == WIRE_SHM
        assert coordinator.fetch_reply(wire) == reply

    def test_reply_mirrors_inline_requests(self, pair):
        """A round that arrived inline is answered inline even though
        a reply ring exists (the pipe-fallback contract)."""
        _, worker = pair
        reply = {"rounds": 1}
        assert worker.stage_reply(reply, WIRE_INLINE) == (WIRE_INLINE, reply)


class TestTornSlots:
    def _tear_every_header_byte(self, data, read):
        """Flip each of the 17 header bytes both ways; every tear must
        raise TransportError and never surface a payload view."""
        for index in range(MIN_RECORD_BYTES):
            for mask in TEAR_MASKS:
                original = data[index]
                data[index] = original ^ mask
                try:
                    with pytest.raises(TransportError):
                        read()
                finally:
                    data[index] = original

    def test_every_offset_chunk_header_tear_detected(self, pair):
        coordinator, worker = pair
        payloads = [b"x" * 96, b"y" * 33, b""]
        wire = coordinator.stage(payloads, _chained_crc(payloads))
        assert wire[0] == WIRE_SHM
        self._tear_every_header_byte(
            worker.c2w.data, lambda: worker.fetch(wire)
        )
        # The untouched slot still reads cleanly afterwards.
        _release(worker.fetch(wire))

    def test_every_offset_reply_header_tear_detected(self, pair):
        coordinator, worker = pair
        wire = worker.stage_reply({"records": b"z" * 64}, WIRE_SHM)
        assert wire[0] == WIRE_SHM
        self._tear_every_header_byte(
            coordinator.w2c.data, lambda: coordinator.fetch_reply(wire)
        )
        assert coordinator.fetch_reply(wire) == {"records": b"z" * 64}

    def test_every_offset_untagged_tear_detected(self, ring):
        """Without a descriptor tag the whole body is hashed, so
        payload tears are caught too — every byte of the record."""
        payload = os.urandom(57)
        sequence = ring.try_stage(SLOT_KIND_CHUNK, payload)
        for index in range(record_size(len(payload))):
            original = ring.data[index]
            ring.data[index] = original ^ 0xFF
            try:
                with pytest.raises(TransportError):
                    ring.read(sequence, SLOT_KIND_CHUNK)
            finally:
                ring.data[index] = original

    def test_wrong_kind_rejected(self, ring):
        sequence = ring.try_stage(SLOT_KIND_CHUNK, b"body")
        with pytest.raises(TransportError):
            ring.read(sequence, SLOT_KIND_REPLY)

    def test_length_tear_rejected_even_with_intact_crc(self, ring):
        """The length field sits outside the stored CRC; the tagged
        path must still reject a shrunken length (via the descriptor's
        expected length) instead of returning a short view."""
        payload = b"p" * 64
        payload_crc = zlib.crc32(payload)
        sequence = ring.try_stage(SLOT_KIND_CHUNK, payload, payload_crc)
        import struct

        # Body length claiming a 16-byte payload (9-byte prefix + 16),
        # written over the header with the stored CRC left intact.
        shrunk = record_size(16) - record_size(0) + (record_size(0) - 8)
        stored_crc = struct.unpack_from("<I", ring.data, 4)[0]
        struct.pack_into("<II", ring.data, 0, shrunk, stored_crc)
        with pytest.raises(TransportError):
            ring.read(
                sequence,
                SLOT_KIND_CHUNK,
                payload_crc=payload_crc,
                length=len(payload),
            )


class TestNoLossNoDuplication:
    def test_full_ring_spills_inline_without_loss(self):
        coordinator = CoordinatorTransport(ring_bytes=4096)
        worker = WorkerTransport(coordinator.spec)
        try:
            oversized = [os.urandom(4096), os.urandom(64)]
            wire = coordinator.stage(oversized)
            assert wire[0] == WIRE_INLINE
            # The whole round spills: every payload rides the pipe (the
            # coordinator counts them as fleet.transport.payloads.inline).
            assert len(wire[1]) == len(oversized)
            assert worker.fetch(wire) == oversized
            # Backpressure is per round: the next round rides the ring.
            small = [b"tiny"]
            wire = coordinator.stage(small)
            assert wire[0] == WIRE_SHM
            buffers = worker.fetch(wire)
            assert [bytes(view) for view in buffers] == small
            _release(buffers)
        finally:
            worker.close()
            coordinator.close()

    def test_oversized_reply_spills_inline(self):
        coordinator = CoordinatorTransport(ring_bytes=4096)
        worker = WorkerTransport(coordinator.spec)
        try:
            reply = {"records": os.urandom(8192)}
            wire = worker.stage_reply(reply, WIRE_SHM)
            assert wire[0] == WIRE_INLINE
            assert coordinator.fetch_reply(wire) == reply
        finally:
            worker.close()
            coordinator.close()

    @given(rounds=st.lists(payload_lists, min_size=2, max_size=5))
    @COMMON_SETTINGS
    def test_recycled_offsets_reject_stale_descriptors(self, pair, rounds):
        """Sequence numbers outlive slot reuse: once a round rewrites
        the slot, every earlier descriptor is rejected — an old round
        can never be silently re-consumed as the new one (exactly-once
        across slot reuse)."""
        coordinator, worker = pair
        stale = []
        for payloads in rounds[:-1]:
            wire = coordinator.stage(payloads, _chained_crc(payloads))
            assert wire[0] == WIRE_SHM
            _release(worker.fetch(wire))
            stale.append(wire)
        final = rounds[-1]
        wire = coordinator.stage(final, _chained_crc(final))
        assert wire[0] == WIRE_SHM
        for old in stale:
            with pytest.raises(TransportError):
                worker.fetch(old)
        buffers = worker.fetch(wire)
        try:
            assert [bytes(view) for view in buffers] == final
        finally:
            _release(buffers)
