"""Differential suite: each decoder's bulk ``feed`` path equals its
byte machine.

``PftDecoder.feed`` and ``EtraceDecoder.feed`` claim whole common
packets in bulk while idle and hand every other byte to the byte
machine that ``step_byte`` exposes.  The byte machine is the oracle:
a twin decoder fed the same stream one ``step_byte`` at a time must
produce the same items, the same ``export_state()`` at every chunk
boundary, the same registry counters, the same ``finish()`` and, in
strict mode, the same exception after the same items.

Streams are driver-encoded random branch events, corrupted at the
chaos sweep's byte-fault rates, with garbage prefixes and torn tails,
and split at random chunk boundaries (one byte up to the whole
stream).  The deframers get the same treatment: a chunked ``push``
must equal one-byte pushes.
"""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.coresight.ptm import PtmConfig
from repro.errors import FrameSyncError, PacketDecodeError
from repro.eval.chaos import byte_fault_plan
from repro.faults.injectors import StreamFaultInjector
from repro.frontends import get_frontend
from repro.frontends.etrace import EtraceConfig
from repro.obs import MetricsRegistry
from repro.workloads.cfg import BranchEvent, BranchKind

GRAMMARS = ("coresight", "etrace")
#: The three decoder error modes (constructor keywords).
MODES = {
    "strict": {"strict": True},
    "lenient": {"strict": False},
    "resync-hunt": {"strict": False, "resync_hunt": True},
}
#: The chaos sweep's byte-corruption rates.
RATES = (0.0, 0.001, 0.01, 0.05)

_KINDS = (
    BranchKind.CONDITIONAL,
    BranchKind.UNCONDITIONAL,
    BranchKind.CALL,
    BranchKind.RETURN,
    BranchKind.INDIRECT,
    BranchKind.SYSCALL,
)


def _frontend(grammar: str, sync_bytes: int):
    configs = {
        "coresight": {"ptm_config": PtmConfig(sync_interval_bytes=sync_bytes)},
        "etrace": {
            "etrace_config": EtraceConfig(sync_interval_bytes=sync_bytes)
        },
    }
    return get_frontend(grammar, sync_period=4, **configs[grammar])


@lru_cache(maxsize=None)
def _streams(grammar: str, seed: int):
    """A driver-encoded random event stream: ``(framed, packets)``.

    Targets are near neighbours or far jumps, so every address packet
    length (and CoreSight's exception byte) shows up.
    """
    rng = random.Random(seed)
    frontend = _frontend(grammar, rng.choice((64, 128, 512)))
    driver = frontend.create_driver()
    driver.enable()
    framed = bytearray()
    cycle = 0
    target = rng.randrange(1 << 30) << 2
    for _ in range(rng.randrange(20, 160)):
        cycle += rng.randrange(1, 300)
        kind = rng.choice(_KINDS)
        if rng.random() < 0.5:
            target = (target + (rng.randrange(-64, 64) << 2)) & 0xFFFFFFFC
        else:
            target = rng.randrange(1 << 30) << 2
        framed += driver.trace(
            BranchEvent(
                cycle=cycle,
                source=rng.randrange(1 << 30) << 2,
                target=target,
                kind=kind,
                taken=kind is not BranchKind.CONDITIONAL
                or rng.random() < 0.5,
            )
        )
    framed += driver.flush()
    framed = bytes(framed)
    packets = frontend.new_deframer().push(framed)
    return framed, packets


def _damage(stream: bytes, rate: float, seed: int, prefix: bytes, tail: int):
    corrupted = StreamFaultInjector(byte_fault_plan(rate, seed)).feed(stream)
    corrupted = prefix + bytes(corrupted)
    return corrupted[:len(corrupted) - tail]


@st.composite
def chunked_streams(draw, grammar: str, framed: bool):
    """A damaged framed or packet stream, split into chunks."""
    seed = draw(st.integers(0, 63))
    rate = draw(st.sampled_from(RATES))
    prefix = draw(st.binary(max_size=24))
    tail = draw(st.integers(0, 12))
    stream = _streams(grammar, seed)[0 if framed else 1]
    stream = _damage(stream, rate, seed, prefix, tail)
    cuts = draw(
        st.one_of(
            st.just([]),
            st.lists(st.integers(1, max(1, len(stream) - 1)), max_size=40),
            st.just(list(range(1, len(stream)))),
        )
    )
    bounds = [0, *sorted(set(cuts)), len(stream)]
    return [stream[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]


def _trail(decoder, registry, chunks, bulk: bool, passes: int = 2):
    """Per-chunk items, state and counters, then ``finish()``, for each
    pass over the stream (``finish`` readies the decoder for the next).
    A strict raise ends the trail with the exception and the state it
    left."""

    def record(items):
        trail.append(
            (items, decoder.export_state(), registry.snapshot()["counters"])
        )

    trail = []
    try:
        for _ in range(passes):
            for chunk in chunks:
                if bulk:
                    items = decoder.feed(chunk)
                else:
                    items = [
                        item
                        for byte in chunk
                        for item in decoder.step_byte(byte)
                    ]
                record(items)
            record(decoder.finish())
    except PacketDecodeError as error:
        trail.append((type(error), str(error), decoder.export_state()))
    return trail


@pytest.mark.parametrize("grammar", GRAMMARS)
@pytest.mark.parametrize("mode", sorted(MODES))
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_feed_matches_the_byte_machine(grammar, mode, data):
    chunks = data.draw(chunked_streams(grammar, framed=False))
    frontend = get_frontend(grammar)
    trails = []
    for bulk in (True, False):
        registry = MetricsRegistry()
        decoder = frontend.new_decoder(metrics=registry, **MODES[mode])
        trails.append(_trail(decoder, registry, chunks, bulk))
    assert trails[0] == trails[1]


@pytest.mark.parametrize("grammar", GRAMMARS)
@pytest.mark.parametrize("mode", sorted(MODES))
def test_feed_matches_the_byte_machine_on_whole_clean_streams(grammar, mode):
    """Every seed's clean stream, fed whole: the bulk path's main case."""
    frontend = get_frontend(grammar)
    for seed in range(16):
        packets = _streams(grammar, seed)[1]
        trails = []
        for bulk in (True, False):
            registry = MetricsRegistry()
            decoder = frontend.new_decoder(metrics=registry, **MODES[mode])
            trails.append(_trail(decoder, registry, [packets], bulk))
        assert trails[0] == trails[1], seed
        assert trails[0][0][0], seed  # the stream decoded to items


#: Each grammar's sync preamble: locks a hunting decoder.
LOCK = {"coresight": bytes(5) + b"\x80", "etrace": bytes(4) + b"\xaa"}
#: Hand-made streams for state the bulk path must overwrite exactly as
#: the byte machine does.
EDGE_STREAMS = {
    # A trap address whose delta underflows errors with the trap flag
    # still set; the next plain address packet clears it.
    "etrace-stale-trap": ("etrace", bytes([0x06, 0x01, 0x02, 0x02])),
    # A branch map cut by finish() keeps its outcome count; the next
    # stream's first map resets it.
    "etrace-map-after-finish": ("etrace", bytes([0x11, 0x00, 0x11])),
    # A trap cause out of range, after the address was taken.
    "etrace-bad-cause": ("etrace", bytes([0x06, 0x02, 0x10, 0x02, 0x02])),
    # An over-long varint, then a valid packet.
    "etrace-long-varint": ("etrace", bytes([0x02, *[0x80] * 5, 0x02, 0x04])),
    # A full-length branch with an exception byte, a bad one, then
    # atoms (one without a stop bit) and ignore bytes.
    "coresight-exception": (
        "coresight",
        bytes([0x81, 0x80, 0x80, 0x80, 0x41, 0x01, 0x81, 0x80, 0x80, 0x80,
               0x40, 0x0F, 0x03, 0x0C, 0x04, 0x20, 0x8C, 0x21]),
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_STREAMS))
@pytest.mark.parametrize("mode", sorted(MODES))
def test_feed_matches_the_byte_machine_on_edge_streams(name, mode):
    grammar, stream = EDGE_STREAMS[name]
    frontend = get_frontend(grammar)
    for cut in range(len(stream) + 1):
        chunks = [chunk for chunk in (stream[:cut], stream[cut:]) if chunk]
        trails = []
        for bulk in (True, False):
            registry = MetricsRegistry()
            decoder = frontend.new_decoder(metrics=registry, **MODES[mode])
            decoder.feed(LOCK[grammar])
            trails.append(_trail(decoder, registry, chunks, bulk))
        assert trails[0] == trails[1], cut


def _deframe_trail(deframer, registry, chunks, whole: bool):
    """Per-chunk output, state and counters; a strict raise ends the
    trail with the exception, the state and the buffered bytes apart
    (a whole-chunk push has buffered the chunk's unread rest too)."""
    trail = []
    try:
        for chunk in chunks:
            if whole:
                out = deframer.push(chunk)
            else:
                out = b"".join(
                    deframer.push(chunk[i:i + 1]) for i in range(len(chunk))
                )
            trail.append(
                (out, deframer.export_state(), registry.snapshot()["counters"])
            )
    except FrameSyncError as error:
        state = deframer.export_state()
        buffered = bytes.fromhex(state.pop("buffer"))
        trail.append((type(error), str(error), state))
        return trail, buffered
    return trail, b""


@pytest.mark.parametrize("grammar", GRAMMARS)
@pytest.mark.parametrize("resync_hunt", (False, True))
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_chunked_push_matches_byte_pushes(grammar, resync_hunt, data):
    chunks = data.draw(chunked_streams(grammar, framed=True))
    frontend = get_frontend(grammar)
    runs = []
    for whole in (True, False):
        registry = MetricsRegistry()
        deframer = frontend.new_deframer(
            resync_hunt=resync_hunt, metrics=registry
        )
        runs.append(_deframe_trail(deframer, registry, chunks, whole))
    (trail, buffered), (byte_trail, byte_buffered) = runs
    assert trail == byte_trail
    assert buffered.startswith(byte_buffered)
