"""Kernel-driver-style configuration facade for the E-Trace path.

The shared :class:`repro.tracepath.TraceDriver` over an E-Trace
encoder and ETP link framer, with the same control surface and data
plane as :class:`repro.coresight.driver.CoreSightDriver`.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.frontends.etrace.encoder import EtraceConfig, EtraceEncoder
from repro.frontends.etrace.transport import EtraceFramer
from repro.obs import MetricsRegistry
from repro.tracepath import TraceDriver


class EtraceDriver(TraceDriver):
    """Configures and drives the encoder -> link framer trace path."""

    def __init__(
        self,
        etrace_config: Optional[EtraceConfig] = None,
        sync_period: int = 64,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        config = etrace_config or EtraceConfig()
        super().__init__(
            config,
            partial(EtraceEncoder, config),
            partial(EtraceFramer, sync_period=sync_period),
            state_keys=("encoder", "framer"),
            label="E-Trace path",
            metrics=metrics,
        )
