"""RTAD MPSoC: the paper's system, assembled.

Wires the host CPU (synthetic workload + CoreSight), the MLPU (IGM +
MCM + ML-MIAOW) and the clock/bus cost models into an event-driven
simulation that produces the paper's evaluation quantities: host
overhead (Fig. 6), data-transfer latency (Fig. 7) and detection
latency (Fig. 8).
"""

from repro.soc.clocks import ClockDomain, CPU_CLOCK, RTAD_CLOCK, GPU_CLOCK
from repro.soc.bus import AxiBus
from repro.soc.cpu import PtmFifoModel
from repro.soc.software_baseline import (
    SoftwareInstrumentationModel,
    SoftwareTransferModel,
    RtadOverheadModel,
)
from repro.soc.loop import LoopDataplane
from repro.soc.rtad import RtadSoc, RtadConfig, AttackTrialResult
from repro.soc.manager import (
    Deployment,
    HealthPolicy,
    SocManager,
    TenantHealth,
    TenantRuntime,
)
from repro.soc.collection import TrainingCollector, CollectionResult
from repro.soc.metrics import TransferBreakdown, rtad_transfer_breakdown, sw_transfer_breakdown

__all__ = [
    "ClockDomain",
    "CPU_CLOCK",
    "RTAD_CLOCK",
    "GPU_CLOCK",
    "AxiBus",
    "PtmFifoModel",
    "SoftwareInstrumentationModel",
    "SoftwareTransferModel",
    "RtadOverheadModel",
    "LoopDataplane",
    "RtadSoc",
    "RtadConfig",
    "AttackTrialResult",
    "Deployment",
    "HealthPolicy",
    "SocManager",
    "TenantHealth",
    "TenantRuntime",
    "TrainingCollector",
    "CollectionResult",
    "TransferBreakdown",
    "rtad_transfer_breakdown",
    "sw_transfer_breakdown",
]
