"""Layer spans recorded from outside the program.

:class:`Tracer` replaces public methods on objects the benchmark built
with timing wrappers.  Spans nest on one stack (every wrapped call runs
on the server's single thread), so each layer's *self* time is its
spans' duration minus the wrapped calls nested inside them, and the
time with no span open is the residual ``other``.  Wrappers are
installed only when tracing starts, so an untraced window runs the
program's own methods untouched.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional


class Tracer:
    """Self-time accounting for wrapped calls, one layer per wrapper."""

    def __init__(self, keep_durations=()) -> None:
        self.active = False
        self.busy_ns: Counter = Counter()
        #: Inclusive span durations for the layers named in
        #: ``keep_durations`` (for percentiles).
        self.durations: Dict[str, List[int]] = defaultdict(list)
        self._keep = frozenset(keep_durations)
        self._stack: List[List[int]] = []
        self._idle_ns = 0
        self._last_end_ns = 0
        self._started_ns = 0
        self.wall_ns = 0

    def start(self) -> None:
        if self._stack:
            raise RuntimeError("tracing must start between spans")
        self._started_ns = self._last_end_ns = time.perf_counter_ns()
        self.active = True

    def stop(self) -> None:
        if self._stack:
            raise RuntimeError("tracing must stop between spans")
        now = time.perf_counter_ns()
        self._idle_ns += now - self._last_end_ns
        self.wall_ns = now - self._started_ns
        self.active = False

    @property
    def other_ns(self) -> int:
        """Traced wall time during which no wrapped call was running."""
        return self._idle_ns

    def wrap(
        self,
        owner,
        name: str,
        layer: str,
        on_call: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.name`` with a timed wrapper billing ``layer``.

        ``on_call`` sees the call's positional arguments (for byte
        counts and the like) while tracing is active.
        """
        inner = getattr(owner, name)
        tracer = self
        keep = layer in self._keep

        def traced(*args, **kwargs):
            if not tracer.active:
                return inner(*args, **kwargs)
            if on_call is not None:
                on_call(args)
            stack = tracer._stack
            start = time.perf_counter_ns()
            if not stack:
                tracer._idle_ns += start - tracer._last_end_ns
            frame = [0]
            stack.append(frame)
            try:
                return inner(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                elapsed = end - start
                tracer.busy_ns[layer] += elapsed - frame[0]
                if keep:
                    tracer.durations[layer].append(elapsed)
                if stack:
                    stack[-1][0] += elapsed
                else:
                    tracer._last_end_ns = end

        setattr(owner, name, traced)

    def busy_s(self, layer: str) -> float:
        return self.busy_ns[layer] / 1e9
