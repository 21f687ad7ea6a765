"""The RISC-V E-Trace grammar behind the frontend interface."""

from __future__ import annotations

from typing import List, Optional

from repro.frontends.base import TraceFrontend
from repro.frontends.etrace.decoder import EtraceDecoder
from repro.frontends.etrace.driver import EtraceDriver
from repro.frontends.etrace.encoder import EtraceConfig
from repro.frontends.etrace.transport import EtraceDeframer, EtraceFramer
from repro.obs import MetricsRegistry


class EtraceFrontend(TraceFrontend):
    """Branch maps + differential addresses over the checksummed ETP."""

    name = "etrace"
    decoder_counters = EtraceDecoder.counters
    deframer_counters = EtraceDeframer.counters

    def __init__(
        self,
        etrace_config: Optional[EtraceConfig] = None,
        sync_period: int = 64,
    ) -> None:
        #: Shared between the driver and the batched encode stage, so
        #: control-plane changes (``set_context_id``) reach both.
        self.etrace_config = etrace_config or EtraceConfig()
        self.sync_period = sync_period

    def create_driver(
        self, metrics: Optional[MetricsRegistry] = None
    ) -> EtraceDriver:
        return EtraceDriver(
            etrace_config=self.etrace_config,
            sync_period=self.sync_period,
            metrics=metrics,
        )

    def build_encode_stages(
        self, metrics: Optional[MetricsRegistry] = None
    ) -> List:
        # Deferred import: repro.pipeline.stages pulls in numpy-heavy
        # modules the control-plane users of this frontend never need.
        from repro.pipeline.stages import EtraceEncodeStage, LinkFrameStage

        return [
            EtraceEncodeStage(config=self.etrace_config, metrics=metrics),
            LinkFrameStage(
                "etrace_link",
                EtraceFramer,
                sync_period=self.sync_period,
                metrics=metrics,
            ),
        ]

    def new_deframer(
        self,
        resync_hunt: bool = False,
        metrics: Optional[MetricsRegistry] = None,
    ) -> EtraceDeframer:
        return EtraceDeframer(resync_hunt=resync_hunt, metrics=metrics)

    def new_decoder(
        self,
        strict: bool = True,
        resync_hunt: bool = False,
        metrics: Optional[MetricsRegistry] = None,
    ) -> EtraceDecoder:
        return EtraceDecoder(
            strict=strict, resync_hunt=resync_hunt, metrics=metrics
        )
