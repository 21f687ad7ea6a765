"""Pluggable trace frontends: branch-trace grammars behind one contract.

Everything downstream of the trace port — the PTM FIFO timing model,
the IGM address mapper, the vector encoder, ML-MIAOW — is grammar
agnostic.  A :class:`TraceFrontend` bundles the grammar-specific
pieces (encoder driver, batched encode/frame stages, deframer and
decoder factories, receiver counter names) so the SoC selects a grammar
with ``RtadConfig(frontend="coresight")`` or ``frontend="etrace"``.
"""

from repro.frontends.base import (
    TraceDriver,
    TraceFrontend,
    frontend_names,
    get_frontend,
)
from repro.frontends.coresight import CoreSightFrontend

__all__ = [
    "CoreSightFrontend",
    "TraceDriver",
    "TraceFrontend",
    "frontend_names",
    "get_frontend",
]
