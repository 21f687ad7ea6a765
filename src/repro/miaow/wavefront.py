"""Wavefront execution state: 64 lanes, EXEC/VCC masks, SGPR/VGPR files."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import GpuError
from repro.miaow.isa import NUM_SGPRS, NUM_VGPRS, WAVE_SIZE


class Wavefront:
    """Architectural state of one 64-lane wavefront.

    VGPRs hold raw 32-bit patterns (``uint32``); float operations view
    them as IEEE-754 singles.  EXEC and VCC are boolean lane masks.
    Dispatch convention (set by the CU):

    - ``s0`` = workgroup id
    - ``s1`` = workgroup count for the dispatch
    - ``s2..`` = user kernel arguments
    - ``v0``  = lane id (0..63)
    """

    def __init__(self, wave_id: int = 0, vgprs: int = NUM_VGPRS) -> None:
        if not 1 <= vgprs <= NUM_VGPRS:
            raise GpuError(f"vgpr allocation {vgprs} out of range")
        self.wave_id = wave_id
        self.pc = 0
        self.sgpr = np.zeros(NUM_SGPRS, dtype=np.uint32)
        self.vgpr = np.zeros((vgprs, WAVE_SIZE), dtype=np.uint32)
        self.exec_mask = np.ones(WAVE_SIZE, dtype=bool)
        self.vcc = np.zeros(WAVE_SIZE, dtype=bool)
        self.scc = False
        self.done = False
        # timing handle used by the CU scheduler
        self.ready_cycle = 0
        self.instructions_executed = 0
        # lane id register
        self.vgpr[0] = np.arange(WAVE_SIZE, dtype=np.uint32)

    # ------------------------------------------------------------------
    # Typed register views
    # ------------------------------------------------------------------

    def v_u32(self, index: int) -> np.ndarray:
        return self.vgpr[index]

    def v_f32(self, index: int) -> np.ndarray:
        return self.vgpr[index].view(np.float32)

    def v_i32(self, index: int) -> np.ndarray:
        return self.vgpr[index].view(np.int32)

    def s_u32(self, index: int) -> int:
        return int(self.sgpr[index])

    def s_i32(self, index: int) -> int:
        return int(np.int32(self.sgpr[index]))

    def set_sgpr(self, index: int, value: int) -> None:
        self.sgpr[index] = np.uint32(value & 0xFFFFFFFF)

    def write_vgpr_masked(self, index: int, values: np.ndarray) -> None:
        """Write lanes under the EXEC mask (the hardware write-enable)."""
        target = self.vgpr[index]
        target[self.exec_mask] = values[self.exec_mask]
