"""Single-threaded TCP load generator for the serve workloads.

Runs as its own process so that client work never shares an
interpreter with the server under test.  It imports nothing from the
repository: every wire frame (HELLO, the data frames, BYE) arrives
pre-encoded in a pickled spec written by ``run.py``, and the per-frame
timestamps it records go back the same way.

Usage::

    python3 perfbench/loadgen.py SPEC OUT

The spec names the server address, the loop discipline and one entry
per connection:

- ``closed``: each connection keeps exactly one data frame outstanding
  and sends the next one as soon as the previous answer arrives;
- ``paced``: connection ``c`` sends frame ``n`` when it is due at
  ``t0 + (n + c / conns) / rate``, whether or not earlier frames were
  answered; how late each send went out is recorded.

After the HELLO handshakes the generator prints ``ready <t0_ns>`` on
stdout, where ``t0_ns`` (CLOCK_MONOTONIC, shared with the server
process) is when the first data frame is due.  Frames are due until
``t0 + duration``; afterwards the generator collects the outstanding
answers, sends BYE on every connection and writes OUT.
"""

from __future__ import annotations

import json
import pickle
import selectors
import socket
import struct
import sys
import time

_HEADER = struct.Struct("<II")
_ACK, _SHED, _ERR, _SUMMARY = 16, 17, 18, 19

#: Lead time between the ready line and the first due frame, so the
#: server process can arm its window timers before traffic starts.
START_LEAD_NS = 200_000_000

#: Give up on a silent server after this long.
ANSWER_TIMEOUT_S = 60.0


class Connection:
    """One client session: its frames and what happened to each."""

    def __init__(self, index: int, spec: dict, address) -> None:
        self.index = index
        self.frames = spec["frames"]
        self.sock = socket.create_connection(address)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = bytearray()
        self.due_ns = []
        self.sent_ns = []
        self.answer_ns = []
        self.answer_type = []
        self.accepted = []
        self._request(spec["hello"], expect=_ACK)

    # -- framing -------------------------------------------------------

    def _frames_ready(self):
        """Yield every complete (type, payload) in the receive buffer."""
        while len(self._buffer) >= _HEADER.size:
            length, _ = _HEADER.unpack_from(self._buffer)
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return
            body = bytes(self._buffer[_HEADER.size:end])
            del self._buffer[:end]
            yield body[0], body[1:]

    def _request(self, frame: bytes, expect: int) -> bytes:
        """Blocking request/answer, for HELLO and BYE only."""
        self.sock.sendall(frame)
        self.sock.settimeout(ANSWER_TIMEOUT_S)
        try:
            while True:
                for kind, payload in self._frames_ready():
                    if kind != expect:
                        raise RuntimeError(
                            f"connection {self.index}: expected frame "
                            f"type {expect}, got {kind}: {payload[:200]!r}"
                        )
                    return payload
                data = self.sock.recv(65536)
                if not data:
                    raise RuntimeError(
                        f"connection {self.index}: server closed"
                    )
                self._buffer += data
        finally:
            self.sock.settimeout(None)

    # -- data frames ---------------------------------------------------

    @property
    def outstanding(self) -> int:
        return len(self.sent_ns) - len(self.answer_ns)

    def send(self, due_ns: int) -> None:
        frame = self.frames[len(self.sent_ns) % len(self.frames)]
        self.due_ns.append(due_ns)
        self.sent_ns.append(time.monotonic_ns())
        self.sock.sendall(frame)

    def receive(self) -> int:
        """Read what has arrived; returns the number of new answers."""
        data = self.sock.recv(65536)
        if not data:
            raise RuntimeError(f"connection {self.index}: server closed")
        now = time.monotonic_ns()
        self._buffer += data
        answers = 0
        for kind, payload in self._frames_ready():
            self.answer_ns.append(now)
            self.answer_type.append(kind)
            accepted = 0
            if kind == _ACK:
                accepted = int(json.loads(payload)["accepted_events"])
            self.accepted.append(accepted)
            answers += 1
        return answers

    def close(self, bye: bytes) -> dict:
        summary = json.loads(self._request(bye, expect=_SUMMARY))
        self.sock.close()
        return summary

    def log(self) -> dict:
        return {
            "due_ns": self.due_ns,
            "sent_ns": self.sent_ns,
            "answer_ns": self.answer_ns,
            "answer_type": self.answer_type,
            "accepted": self.accepted,
        }


def _wait(selector, timeout_s: float) -> None:
    for key, _ in selector.select(timeout_s):
        key.data.receive()


def run_closed(conns, selector, t0_ns: int, end_ns: int) -> None:
    for conn in conns:
        conn.send(t0_ns)
    while any(conn.outstanding for conn in conns):
        events = selector.select(ANSWER_TIMEOUT_S)
        if not events:
            raise RuntimeError("closed loop: no answer within timeout")
        for key, _ in events:
            conn = key.data
            if conn.receive() and time.monotonic_ns() < end_ns:
                conn.send(time.monotonic_ns())


def run_paced(conns, selector, t0_ns: int, end_ns: int, rate: float):
    period_ns = 1e9 / rate
    count = len(conns)
    next_index = [0] * count

    def due(c: int) -> int:
        return t0_ns + int((next_index[c] + c / count) * period_ns)

    while True:
        pending = [c for c in range(count) if due(c) < end_ns]
        if not pending:
            break
        c = min(pending, key=due)
        wait_ns = due(c) - time.monotonic_ns()
        if wait_ns > 0:
            _wait(selector, wait_ns / 1e9)
            continue
        conns[c].send(due(c))
        next_index[c] += 1
    deadline = time.monotonic() + ANSWER_TIMEOUT_S
    while any(conn.outstanding for conn in conns):
        if time.monotonic() > deadline:
            raise RuntimeError("paced loop: answers still missing")
        _wait(selector, 0.05)


def main(argv) -> int:
    spec_path, out_path = argv
    with open(spec_path, "rb") as handle:
        spec = pickle.load(handle)
    address = (spec["host"], spec["port"])
    conns = [
        Connection(index, entry, address)
        for index, entry in enumerate(spec["conns"])
    ]
    selector = selectors.DefaultSelector()
    for conn in conns:
        selector.register(conn.sock, selectors.EVENT_READ, conn)
    t0_ns = time.monotonic_ns() + START_LEAD_NS
    print(f"ready {t0_ns}", flush=True)
    while time.monotonic_ns() < t0_ns:
        time.sleep(max(0.0, (t0_ns - time.monotonic_ns()) / 1e9))
    end_ns = t0_ns + int(spec["duration_s"] * 1e9)
    if spec["loop"] == "closed":
        run_closed(conns, selector, t0_ns, end_ns)
    else:
        run_paced(conns, selector, t0_ns, end_ns, spec["rate_per_conn"])
    selector.close()
    summaries = [conn.close(spec["bye"]) for conn in conns]
    with open(out_path, "wb") as handle:
        pickle.dump(
            {
                "t0_ns": t0_ns,
                "conns": [conn.log() for conn in conns],
                "summaries": summaries,
            },
            handle,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
