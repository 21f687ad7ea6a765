"""Differential suite: each decoder's column decode equals its byte
machine.

``feed`` claims runs of common packets as columns and returns a
:class:`~repro.tracepath.DecodedItems`: the ``target``/``is_syscall``
columns of the chunk's taken branches, with the items themselves
built only when read.  The byte machine that ``step_byte`` exposes is
the oracle.  A twin decoder fed the same stream one byte at a time
must yield, chunk by chunk:

- the same branch columns as its branch items;
- the same items, one for one, through ``len``, indexing and
  iteration;
- the same ``export_state()`` (and, in strict mode, the same error).

On the server side, :class:`~repro.serve.server._RawIngest` must build
the same ``EventBatch`` from the columns as the per-item path does
from the byte machine's items: waypoint events at a fixed cycle
cadence, each sourced at the previous target.

Streams are those of ``tests/test_decoder_fast_path.py``: driver-
encoded random events corrupted at the chaos sweep's byte-fault
rates, with garbage prefixes and torn tails, split at random chunk
boundaries (one byte up to the whole stream).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PacketDecodeError
from repro.eventbatch import KIND_CODE
from repro.frontends import get_frontend
from repro.obs import MetricsRegistry
from repro.serve.server import _RawIngest
from repro.tracepath import DecodedItems
from repro.workloads.cfg import BranchKind
from tests.test_decoder_fast_path import (
    GRAMMARS,
    MODES,
    _streams,
    chunked_streams,
)

CADENCE = 512


def _twin_items(twin, chunk):
    return [item for byte in chunk for item in twin.step_byte(byte)]


@pytest.mark.parametrize("grammar", GRAMMARS)
@pytest.mark.parametrize("mode", sorted(MODES))
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_columns_and_items_match_the_byte_machine(grammar, mode, data):
    chunks = data.draw(chunked_streams(grammar, framed=False))
    frontend = get_frontend(grammar)
    decoder = frontend.new_decoder(**MODES[mode])
    twin = frontend.new_decoder(**MODES[mode])
    branch = decoder.branch_type
    for chunk in chunks:
        try:
            decoded = decoder.feed(chunk)
        except PacketDecodeError as error:
            with pytest.raises(PacketDecodeError) as raised:
                _twin_items(twin, chunk)
            assert str(raised.value) == str(error)
            assert decoder.export_state() == twin.export_state()
            return
        want = _twin_items(twin, chunk)
        branches = [item for item in want if type(item) is branch]
        assert isinstance(decoded, DecodedItems)
        assert decoded.target.dtype == np.int64
        assert decoded.is_syscall.dtype == bool
        assert decoded.target.tolist() == [item.address for item in branches]
        assert decoded.is_syscall.tolist() == [
            item.is_syscall for item in branches
        ]
        assert len(decoded) == len(want)
        assert [decoded[i] for i in range(len(want))] == want
        assert list(decoded) == want
        assert decoder.export_state() == twin.export_state()
    assert _finish(decoder) == _finish(twin)


def _finish(decoder):
    try:
        return decoder.finish()
    except PacketDecodeError as error:
        return str(error)


@pytest.mark.parametrize("grammar", GRAMMARS)
def test_clean_streams_decode_to_columns(grammar):
    """Every seed's clean stream, fed whole: mostly claimed runs."""
    frontend = get_frontend(grammar)
    for seed in range(16):
        packets = _streams(grammar, seed)[1]
        decoder = frontend.new_decoder()
        decoded = decoder.feed(packets)
        want = _twin_items(frontend.new_decoder(), packets)
        branches = [i for i in want if type(i) is decoder.branch_type]
        assert branches, seed
        assert decoded.target.tolist() == [i.address for i in branches]
        assert decoded == want


def test_decoded_items_behave_as_the_item_list():
    frontend = get_frontend("coresight")
    packets = _streams("coresight", 3)[1]
    decoded = frontend.new_decoder().feed(packets)
    items = _twin_items(frontend.new_decoder(), packets)
    assert decoded == items and items == decoded
    assert decoded != items[:-1]
    assert list(decoded) + [None] == items + [None]
    assert decoded[-1] == items[-1] and decoded[1:3] == items[1:3]
    assert frontend.new_decoder().feed(b"") == []
    with pytest.raises(TypeError):
        hash(decoded)


class _ObjectIngest:
    """The per-item raw ingest: every branch item of the byte machine
    becomes one waypoint event, built column by column."""

    def __init__(self, frontend):
        self.deframer = frontend.new_deframer(resync_hunt=True)
        self.decoder = frontend.new_decoder(strict=False, resync_hunt=True)
        self._cycle = 0
        self._last_target = 0

    def feed(self, stream):
        payload = self.deframer.push(stream)
        branch = self.decoder.branch_type
        rows = []
        for item in _twin_items(self.decoder, payload):
            if type(item) is not branch:
                continue
            self._cycle += CADENCE
            kind = BranchKind.SYSCALL if item.is_syscall else BranchKind.INDIRECT
            rows.append(
                (self._cycle, self._last_target, item.address, KIND_CODE[kind])
            )
            self._last_target = item.address
        return rows


@pytest.mark.parametrize("grammar", GRAMMARS)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_raw_ingest_batches_match_the_object_path(grammar, data):
    chunks = data.draw(chunked_streams(grammar, framed=True))
    frontend = get_frontend(grammar)
    ingest = _RawIngest(frontend, CADENCE, MetricsRegistry())
    reference = _ObjectIngest(frontend)
    for chunk in chunks:
        batch = ingest.feed(chunk)
        rows = reference.feed(chunk)
        assert batch.cycle.dtype == np.int64
        assert batch.kind.dtype == np.uint8
        got = list(
            zip(
                batch.cycle.tolist(),
                batch.source.tolist(),
                batch.target.tolist(),
                batch.kind.tolist(),
            )
        )
        assert got == rows
        assert batch.taken.all()
        assert ingest.decoder.export_state() == reference.decoder.export_state()
        assert (
            ingest.deframer.export_state()
            == reference.deframer.export_state()
        )
