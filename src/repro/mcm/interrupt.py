"""Interrupt manager: anomaly notification to the host CPU.

"If the results indicate the existence of an anomaly, the interrupt
manager fires an interrupt to the host CPU."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional


@dataclass(frozen=True)
class Interrupt:
    """One anomaly interrupt delivered to the host."""

    time_ns: float
    score: float
    sequence_number: int


class InterruptManager:
    """Collects this session's fired interrupts; optionally calls a
    host handler."""

    def __init__(
        self, handler: Optional[Callable[[Interrupt], None]] = None
    ) -> None:
        self.handler = handler
        self.fired: List[Interrupt] = []

    def fire(self, time_ns: float, score: float, sequence_number: int) -> Interrupt:
        interrupt = Interrupt(
            time_ns=time_ns, score=score, sequence_number=sequence_number
        )
        self.fired.append(interrupt)
        if self.handler is not None:
            self.handler(interrupt)
        return interrupt

    @property
    def count(self) -> int:
        return len(self.fired)

    @property
    def first(self) -> Optional[Interrupt]:
        return self.fired[0] if self.fired else None
