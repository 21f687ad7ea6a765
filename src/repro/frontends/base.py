"""The trace-frontend contract: what a branch-trace grammar provides.

The paper's pipeline (branch trace -> IGM vectors -> ML-MIAOW
inference) is ISA-agnostic: nothing downstream of the trace port cares
*which* grammar compressed the branch stream, only how many bytes each
event produced (FIFO timing) and which targets were taken (IGM
mapping).  A :class:`TraceFrontend` packages everything that *is*
grammar-specific behind one object:

- ``create_driver`` — the grammar's :class:`repro.tracepath.TraceDriver`
  (enable/disable lifecycle, per-event ``trace``, ``flush``,
  ``set_context_id``, checkpoint export/restore).
- ``build_encode_stages`` — the batched-dataplane stages that model
  the encoder + link framer at the byte-accounting level
  (:class:`repro.pipeline.stages.PtmEncodeStage` and friends).
- ``new_deframer`` / ``new_decoder`` — receiver-side factories, with
  ``resync_hunt`` fault recovery for the chaos harness.
- The receiver's resync/truncation counter names, so observability
  surfaces (``repro.eval metrics``) can enumerate them without
  knowing the grammar.

See ``docs/FRONTENDS.md`` for the full contract, including the resync
semantics each implementation must honour.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.errors import SocConfigError
from repro.obs import MetricsRegistry
from repro.tracepath import TraceDriver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.stage import Stage


class TraceFrontend(abc.ABC):
    """One branch-trace grammar: encoder, link layer, and receivers."""

    #: Selector value (``RtadConfig.frontend``).
    name: str = "abstract"
    #: Receiver-side resync/loss counters this grammar maintains,
    #: surfaced by ``repro.eval metrics`` robustness tables.
    decoder_counters: Tuple[str, ...] = ()
    deframer_counters: Tuple[str, ...] = ()

    @abc.abstractmethod
    def create_driver(
        self, metrics: Optional[MetricsRegistry] = None
    ) -> TraceDriver:
        """Build the (disabled) encoder driver for one trace session
        owner.  Configuration objects are shared with the stages built
        by :meth:`build_encode_stages`, so control-plane changes (e.g.
        ``set_context_id``) are visible to both dataplanes."""

    @abc.abstractmethod
    def build_encode_stages(
        self, metrics: Optional[MetricsRegistry] = None
    ) -> List["Stage"]:
        """Batched-dataplane stages modelling encoder + link framer.

        Returned in pipeline order; the assembler appends the shared
        grammar-neutral FIFO/IGM/deliver stages after them.  Byte
        counts must match the driver produced by :meth:`create_driver`
        bit-for-bit (the dataplane-equivalence tests pin this).
        """

    @abc.abstractmethod
    def new_deframer(
        self,
        resync_hunt: bool = False,
        metrics: Optional[MetricsRegistry] = None,
    ):
        """Link-layer receiver: framed stream -> trace packet bytes."""

    @abc.abstractmethod
    def new_decoder(
        self,
        strict: bool = True,
        resync_hunt: bool = False,
        metrics: Optional[MetricsRegistry] = None,
    ):
        """Packet-grammar receiver: trace bytes -> decoded packets."""


def frontend_names() -> Tuple[str, ...]:
    """The selectable frontend names (``RtadConfig.frontend`` values)."""
    return ("coresight", "etrace")


def get_frontend(name: str, **kwargs) -> TraceFrontend:
    """Instantiate a frontend by name.

    ``kwargs`` are forwarded to the frontend constructor, so callers
    can pass grammar-specific configuration (``ptm_config=...`` for
    CoreSight, ``etrace_config=...`` for E-Trace).
    """
    # Deferred imports: the grammars import this module.
    if name == "coresight":
        from repro.frontends.coresight import CoreSightFrontend

        return CoreSightFrontend(**kwargs)
    if name == "etrace":
        from repro.frontends.etrace import EtraceFrontend

        return EtraceFrontend(**kwargs)
    raise SocConfigError(
        f"unknown trace frontend {name!r} "
        f"(have: {', '.join(frontend_names())})"
    )
