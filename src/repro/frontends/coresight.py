"""The ARM CoreSight PTM/TPIU grammar behind the frontend interface.

This adapter is a thin veneer: every component already exists
(:class:`repro.coresight.driver.CoreSightDriver`, the batched
:class:`~repro.pipeline.stages.PtmEncodeStage` and the shared
:class:`~repro.pipeline.stages.LinkFrameStage` over
:class:`~repro.coresight.tpiu.Tpiu`, the
:class:`~repro.coresight.tpiu.TpiuDeframer` and
:class:`~repro.coresight.decoder.PftDecoder`) — the frontend simply
owns the shared configuration and hands the pieces out, so
``frontend="coresight"`` stays byte-identical to the pre-frontend SoC.
"""

from __future__ import annotations

from typing import List, Optional

from repro.coresight.decoder import PftDecoder
from repro.coresight.driver import CoreSightDriver
from repro.coresight.ptm import Ptm, PtmConfig
from repro.coresight.tpiu import DEFAULT_SOURCE_ID, Tpiu, TpiuDeframer
from repro.frontends.base import TraceFrontend
from repro.obs import MetricsRegistry


class CoreSightFrontend(TraceFrontend):
    """PTM branch-broadcast packets framed by the 16-byte TPIU port."""

    name = "coresight"
    decoder_counters = PftDecoder.counters
    deframer_counters = TpiuDeframer.counters

    def __init__(
        self,
        ptm_config: Optional[PtmConfig] = None,
        source_id: int = DEFAULT_SOURCE_ID,
        sync_period: int = 64,
    ) -> None:
        #: Shared between the driver and the batched encode stage, so
        #: control-plane changes (``set_context_id``) reach both.
        self.ptm_config = ptm_config or PtmConfig()
        self.source_id = source_id
        self.sync_period = sync_period

    def create_driver(
        self, metrics: Optional[MetricsRegistry] = None
    ) -> CoreSightDriver:
        return CoreSightDriver(
            ptm_config=self.ptm_config,
            source_id=self.source_id,
            sync_period=self.sync_period,
            metrics=metrics,
        )

    def build_encode_stages(
        self, metrics: Optional[MetricsRegistry] = None
    ) -> List:
        # Deferred import: repro.pipeline.stages pulls in numpy-heavy
        # modules the control-plane users of this frontend never need.
        from repro.pipeline.stages import (
            ByteCountEncodeStage,
            LinkFrameStage,
            PtmEncodeStage,
        )

        config = self.ptm_config
        if PtmEncodeStage.models(config):
            encode = PtmEncodeStage(config=config, metrics=metrics)
        else:
            # Waypoint mode, which the vectorised stage does not
            # model: count a real PTM's bytes per event.
            encode = ByteCountEncodeStage(
                "ptm", lambda: Ptm(config, metrics=metrics), metrics=metrics
            )
        return [
            encode,
            LinkFrameStage(
                "tpiu", Tpiu, sync_period=self.sync_period, metrics=metrics
            ),
        ]

    def new_deframer(
        self,
        resync_hunt: bool = False,
        metrics: Optional[MetricsRegistry] = None,
    ) -> TpiuDeframer:
        return TpiuDeframer(
            expected_source_id=self.source_id,
            resync_hunt=resync_hunt,
            metrics=metrics,
        )

    def new_decoder(
        self,
        strict: bool = True,
        resync_hunt: bool = False,
        metrics: Optional[MetricsRegistry] = None,
    ) -> PftDecoder:
        return PftDecoder(
            strict=strict, resync_hunt=resync_hunt, metrics=metrics
        )
