"""One deployment path: a trained model becomes tenants.

In the paper, the model trained offline and loaded into ML-MIAOW also
fixes the MCM's protocol conversion and the vector encoder's window.
:class:`TrainedModel` is that model plus what deploying it needs, and
:meth:`TrainedModel.deploy` is the one builder that turns it into
:class:`~repro.soc.manager.Deployment` tenants — for a solo
:class:`~repro.soc.rtad.RtadSoc`, a :class:`~repro.soc.manager.SocManager`
or a fleet worker alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Union

from repro.faults.plan import FaultPlan
from repro.mcm.driver import MlMiaowDriver
from repro.miaow.gpu import Gpu
from repro.ml.detector import ThresholdDetector
from repro.ml.elm import ExtremeLearningMachine
from repro.ml.features import PatternDictionary
from repro.ml.kernels import DeployedElm, DeployedLstm
from repro.ml.lstm import LstmModel
from repro.soc.manager import Deployment
from repro.soc.rtad import RtadConfig


@dataclass(frozen=True)
class TrainedModel:
    """A detector trained offline, ready to load into ML-MIAOW."""

    model: Union[ExtremeLearningMachine, LstmModel]
    monitored_addresses: Sequence[int]
    detector: Optional[ThresholdDetector] = None
    #: ELM only: the n-gram pattern dictionary and the ID window the
    #: kernel scores (the vector encoder's window once deployed).
    dictionary: Optional[PatternDictionary] = None
    window: int = 1
    #: Interrupt-manager accumulator the detector was calibrated for.
    score_smoothing: int = 1

    def deployed(self) -> Union[DeployedElm, DeployedLstm]:
        """A fresh engine-side copy of the model (one per tenant)."""
        if isinstance(self.model, ExtremeLearningMachine):
            return DeployedElm(self.model, self.dictionary, self.window)
        return DeployedLstm(self.model)

    def deploy(
        self,
        names: Sequence[str],
        gpu: Gpu,
        *,
        execute_on_gpu: bool = False,
        fault_plans: Optional[Mapping[str, FaultPlan]] = None,
        frontends: Optional[Mapping[str, str]] = None,
        **config,
    ) -> List[Deployment]:
        """One deployment per name, every driver around ``gpu``.

        ``config`` is forwarded into each tenant's :class:`RtadConfig`;
        ``fault_plans`` and ``frontends`` pick per-tenant fault plans and
        trace grammars by name (default: none and CoreSight).
        """
        return [
            Deployment(
                name=name,
                driver=MlMiaowDriver(
                    self.deployed(), gpu, execute_on_gpu=execute_on_gpu
                ),
                monitored_addresses=self.monitored_addresses,
                detector=self.detector,
                config=RtadConfig(
                    score_smoothing=self.score_smoothing,
                    fault_plan=(fault_plans or {}).get(name),
                    frontend=(frontends or {}).get(name, "coresight"),
                    **config,
                ),
            )
            for name in names
        ]
