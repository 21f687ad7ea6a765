"""Kernel-driver-style configuration facade for the CoreSight path.

The paper notes: "To activate the functionalities of PTM and TPIU, we
have also built a device driver running on the Linux kernel."  This
class plays that role for the simulation: the shared
:class:`repro.tracepath.TraceDriver` over a PTM and a TPIU, used at
inference and for training trace extraction alike.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.coresight.ptm import Ptm, PtmConfig
from repro.coresight.tpiu import DEFAULT_SOURCE_ID, Tpiu
from repro.obs import MetricsRegistry
from repro.tracepath import TraceDriver


class CoreSightDriver(TraceDriver):
    """Configures and drives the PTM -> TPIU trace path."""

    def __init__(
        self,
        ptm_config: Optional[PtmConfig] = None,
        source_id: int = DEFAULT_SOURCE_ID,
        sync_period: int = 64,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        config = ptm_config or PtmConfig()
        super().__init__(
            config,
            partial(Ptm, config),
            partial(Tpiu, source_id=source_id, sync_period=sync_period),
            state_keys=("ptm", "tpiu"),
            label="CoreSight path",
            metrics=metrics,
        )
