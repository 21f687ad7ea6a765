"""Conservation properties of the serve front door's tenant windows.

A :class:`~repro.serve.windows.TenantWindow` is the bounded FIFO that
admitted batches wait in between the socket and the drain loop.  Its
accounting must be exact under arbitrary offer/take interleavings:

- a full window refuses the batch (a stall: the server sheds it with a
  retry hint), so refusals == offered - accepted, always;
- every accepted batch comes out of ``take`` exactly once, in FIFO
  order, either fresh or stale — a batch that went stale while queued
  is handed back for accounting, never lost;
- ``queued_events`` is the sum of the queued batch sizes.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve.windows import IngestBatch, TenantWindow

#: One step: a burst of offers (events per batch, deadline offset in
#: ns or None), then maybe a take (event budget, ns to advance first).
steps = st.lists(
    st.tuples(
        st.lists(
            st.tuples(
                st.integers(0, 6),
                st.one_of(st.none(), st.integers(0, 40)),
            ),
            max_size=8,
        ),
        st.one_of(
            st.none(),
            st.tuples(st.integers(1, 16), st.integers(0, 30)),
        ),
    ),
    max_size=30,
)


def _ids(batches):
    # Identity, not equality: two batches may hold equal fields.
    return [id(b) for b in batches]


class _Harness:
    """Offers and takes on one window, mirroring its queue in a list."""

    def __init__(self, capacity):
        self.window = TenantWindow("t", capacity_batches=capacity)
        self.now_ns = 0
        self.offered = 0
        self.refused = 0
        self.accepted = []
        self.queued = []
        self.fresh = []
        self.stale = []

    def offer(self, size, deadline):
        batch = IngestBatch(
            tenant="t",
            events=tuple(range(size)),
            admit_ns=self.now_ns,
            deadline_ns=None if deadline is None else self.now_ns + deadline,
        )
        was_full = self.window.depth >= self.window.capacity
        self.offered += 1
        ok = self.window.offer(batch)
        assert ok == (not was_full)
        if ok:
            self.accepted.append(batch)
            self.queued.append(batch)
        else:
            self.refused += 1
        self.check()

    def take(self, max_events, advance_ns):
        self.now_ns += advance_ns
        fresh, stale = self.window.take(max_events, self.now_ns)
        taken = len(fresh) + len(stale)
        head, self.queued = self.queued[:taken], self.queued[taken:]
        # Taken batches are the queue's head, split by staleness.
        expired = [b.stale(self.now_ns) for b in head]
        assert _ids(fresh) == _ids(b for b, x in zip(head, expired) if not x)
        assert _ids(stale) == _ids(b for b, x in zip(head, expired) if x)
        if fresh[1:]:
            assert sum(len(b.events) for b in fresh) <= max_events
        if self.queued:
            # Stopped before a fresh batch that would overflow.
            nxt = self.queued[0]
            assert fresh and not nxt.stale(self.now_ns)
            assert (
                sum(len(b.events) for b in fresh) + len(nxt.events)
                > max_events
            )
        self.fresh += fresh
        self.stale += stale
        self.check()

    def check(self):
        window = self.window
        assert window.depth == len(self.queued)
        assert window.empty == (not self.queued)
        assert window.queued_events == sum(
            len(b.events) for b in self.queued
        )
        assert window.oldest_admit_ns == (
            self.queued[0].admit_ns if self.queued else None
        )

    def drain(self):
        while not self.window.empty:
            self.take(1 << 30, 0)


class TestStallConservation:
    @given(capacity=st.integers(1, 8), schedule=steps)
    @settings(max_examples=80, deadline=None)
    def test_nothing_lost_under_stall(self, capacity, schedule):
        harness = _Harness(capacity)
        for offers, take in schedule:
            for size, deadline in offers:
                harness.offer(size, deadline)
            if take is not None:
                harness.take(*take)
        harness.drain()
        # Every accepted batch came back out exactly once, in order.
        position = {id(b): i for i, b in enumerate(harness.accepted)}
        order = sorted(_ids(harness.fresh + harness.stale), key=position.get)
        assert order == _ids(harness.accepted)
        # A refusal is a stall, never a silent loss.
        assert harness.refused == harness.offered - len(harness.accepted)

    @given(capacity=st.integers(1, 8), schedule=steps)
    @settings(max_examples=40, deadline=None)
    def test_stall_only_when_full(self, capacity, schedule):
        # _Harness.offer asserts a refusal exactly when the window is
        # full; fill the window to capacity first so refusals happen.
        harness = _Harness(capacity)
        for _ in range(capacity + 1):
            harness.offer(1, None)
        assert harness.window.depth == capacity
        for offers, take in schedule:
            for size, deadline in offers:
                harness.offer(size, deadline)
            if take is not None:
                harness.take(*take)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_seeded_rate_mismatch_stress(seed):
    """A long seeded run where offer and take rates drift: phases of
    sustained overrun, sustained underrun, and parity, with deadlines
    expiring while batches queue.  Offered == accepted + refused, and
    accepted == fresh + stale + still queued."""
    rng = random.Random(seed)
    harness = _Harness(rng.randrange(1, 16))
    for _ in range(rng.randrange(20, 60)):
        offer_rate = rng.randrange(0, 12)
        take_rate = rng.randrange(0, 4)
        for _ in range(rng.randrange(1, 30)):
            for _ in range(offer_rate):
                deadline = rng.choice([None, rng.randrange(0, 200)])
                harness.offer(rng.randrange(0, 9), deadline)
            for _ in range(take_rate):
                harness.take(rng.randrange(1, 40), rng.randrange(0, 20))
    assert len(harness.accepted) == (
        len(harness.fresh) + len(harness.stale) + len(harness.queued)
    )
    assert harness.refused == harness.offered - len(harness.accepted) > 0
    harness.drain()
    assert harness.fresh and harness.stale
    assert len(harness.accepted) == len(harness.fresh) + len(harness.stale)
