"""OpenCL-like host runtime for the MIAOW GPU.

MIAOW "supports the OpenCL programming model"; this module is the
host-side half: build programs from assembly source, allocate device
buffers, set arguments, enqueue kernels.  ML-MIAOW inherits the same
runtime — the point the paper makes about trimming preserving the
software environment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.errors import KernelLaunchError
from repro.miaow.assembler import Kernel, assemble
from repro.miaow.gpu import DispatchResult, Gpu


@dataclass(frozen=True)
class Buffer:
    """A device-memory allocation."""

    address: int
    nbytes: int

    @property
    def nwords(self) -> int:
        return self.nbytes // 4


class GpuRuntime:
    """Host-side driver: buffers, programs, kernel launches."""

    def __init__(self, gpu: Gpu) -> None:
        self.gpu = gpu
        self._programs: Dict[str, Kernel] = {}

    # ------------------------------------------------------------------
    # Programs
    # ------------------------------------------------------------------

    def build_program(self, source: str, name: Optional[str] = None) -> Kernel:
        """Assemble source and register the kernel by name."""
        kernel = assemble(source, default_name=name or "kernel")
        if name is not None:
            kernel = Kernel(
                name=name,
                instructions=kernel.instructions,
                labels=kernel.labels,
                vgprs_used=kernel.vgprs_used,
            )
        self._programs[kernel.name] = kernel
        return kernel

    def get_kernel(self, name: str) -> Kernel:
        try:
            return self._programs[name]
        except KeyError:
            raise KernelLaunchError(f"no program named {name!r}") from None

    # -- binary program images ------------------------------------------

    def upload_binary(self, kernel: Kernel) -> Buffer:
        """Encode a kernel and place its image in device memory —
        how a real host driver ships programs to the engine."""
        from repro.miaow.binary import encode_kernel

        image = encode_kernel(kernel)
        buffer = self.alloc(int(image.size) * 4)
        self.gpu.global_memory.write_block(buffer.address, image)
        return buffer

    def load_binary(
        self, buffer: Buffer, name: Optional[str] = None
    ) -> Kernel:
        """Decode a program image out of device memory and register it."""
        from repro.miaow.binary import decode_kernel

        image = self.gpu.global_memory.read_block(
            buffer.address, buffer.nwords
        )
        kernel = decode_kernel(image, name=name or "binary")
        self._programs[kernel.name] = kernel
        return kernel

    # ------------------------------------------------------------------
    # Buffers
    # ------------------------------------------------------------------

    def alloc(self, nbytes: int) -> Buffer:
        address = self.gpu.global_memory.alloc(nbytes)
        return Buffer(address=address, nbytes=nbytes)

    def alloc_f32(self, count: int) -> Buffer:
        return self.alloc(count * 4)

    def write(self, buffer: Buffer, data: np.ndarray) -> None:
        data = np.ascontiguousarray(data)
        if data.dtype == np.float32 or data.dtype == np.float64:
            payload = data.astype(np.float32).view(np.uint32)
        else:
            payload = data.astype(np.uint32)
        if payload.size * 4 > buffer.nbytes:
            raise KernelLaunchError("write exceeds buffer size")
        self.gpu.global_memory.write_block(buffer.address, payload.ravel())

    def read_f32(self, buffer: Buffer, count: Optional[int] = None) -> np.ndarray:
        count = buffer.nwords if count is None else count
        return self.gpu.global_memory.read_f32(buffer.address, count)

    def read_u32(self, buffer: Buffer, count: Optional[int] = None) -> np.ndarray:
        count = buffer.nwords if count is None else count
        return self.gpu.global_memory.read_block(buffer.address, count)

    # ------------------------------------------------------------------
    # Launch
    # ------------------------------------------------------------------

    @staticmethod
    def _flatten_args(args: Sequence[Union[int, Buffer]]) -> List[int]:
        flat: List[int] = []
        for arg in args:
            if isinstance(arg, Buffer):
                flat.append(arg.address)
            else:
                flat.append(int(arg) & 0xFFFFFFFF)
        return flat

    def launch(
        self,
        kernel: Union[str, Kernel],
        num_workgroups: int,
        args: Sequence[Union[int, Buffer]] = (),
    ) -> DispatchResult:
        """Enqueue a kernel (blocking; returns timing/result info): a
        batch of one."""
        return self.launch_batch(kernel, num_workgroups, [args])[0]

    def launch_batch(
        self,
        kernel: Union[str, Kernel],
        num_workgroups: int,
        args_lists: Sequence[Sequence[Union[int, Buffer]]],
    ) -> List[DispatchResult]:
        """Enqueue one fused dispatch serving K compatible requests.

        Returns one :class:`DispatchResult` per member, bit-identical
        to interpreting the members one at a time (see
        :meth:`repro.miaow.gpu.Gpu.dispatch_batch`).
        """
        if isinstance(kernel, str):
            kernel = self.get_kernel(kernel)
        return self.gpu.dispatch_batch(
            kernel,
            num_workgroups,
            [self._flatten_args(args) for args in args_lists],
        )
