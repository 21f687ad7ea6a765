"""MCM control FSM.

State machine from Fig. 3's description: WAIT_INPUT until the FIFO has
a vector, READ_INPUT to pull it, WRITE_INPUT while the TX engine
drives the engine's memory and control registers, WAIT_DONE during
kernel execution, READ_RESULT while the RX engine fetches the outcome,
then back to WAIT_INPUT.  Illegal events raise — the RTL equivalent of
an assertion, which the protocol tests exercise.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Tuple

from repro.errors import FsmProtocolError


class McmState(enum.Enum):
    WAIT_INPUT = "WAIT_INPUT"
    READ_INPUT = "READ_INPUT"
    WRITE_INPUT = "WRITE_INPUT"
    WAIT_DONE = "WAIT_DONE"
    READ_RESULT = "READ_RESULT"


_TRANSITIONS = {
    (McmState.WAIT_INPUT, "input_available"): McmState.READ_INPUT,
    (McmState.READ_INPUT, "vector_read"): McmState.WRITE_INPUT,
    (McmState.WRITE_INPUT, "engine_started"): McmState.WAIT_DONE,
    (McmState.WAIT_DONE, "computation_done"): McmState.READ_RESULT,
    (McmState.READ_RESULT, "result_read"): McmState.WAIT_INPUT,
}

#: Transitions the inspection trace keeps.  The FSM runs five per
#: inference for a tenant's whole lifetime, so a full trace would grow
#: with every inference a long-running worker serves.
HISTORY_TRANSITIONS = 64


@dataclass
class ControlFsm:
    """The MCM sequencer, with a trace of its latest transitions for
    inspection."""

    state: McmState = McmState.WAIT_INPUT
    history: Deque[Tuple[float, McmState]] = field(
        default_factory=lambda: deque(maxlen=HISTORY_TRANSITIONS)
    )
    #: RTAD-clock cycles of control overhead charged per transition.
    cycles_per_transition: int = 2

    def fire(self, event: str, time_ns: float = 0.0) -> McmState:
        """Apply an event; returns the new state."""
        key = (self.state, event)
        if key not in _TRANSITIONS:
            raise FsmProtocolError(
                f"event {event!r} illegal in state {self.state.value}"
            )
        self.state = _TRANSITIONS[key]
        self.history.append((time_ns, self.state))
        return self.state

    def run_inference_sequence(self, time_ns: float = 0.0) -> int:
        """Drive one full WAIT_INPUT -> ... -> WAIT_INPUT round.

        Returns the number of transitions (x ``cycles_per_transition``
        gives the FSM's control-cycle overhead per inference).
        """
        events = (
            "input_available", "vector_read", "engine_started",
            "computation_done", "result_read",
        )
        for event in events:
            self.fire(event, time_ns)
        return len(events)

    @property
    def control_cycles_per_inference(self) -> int:
        return 5 * self.cycles_per_transition
