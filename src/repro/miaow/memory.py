"""GPU memories: global device memory and per-CU local memory (LDS).

Global memory models the peripheral DDR the MCM's TX engine writes
into; LDS models the local data share that holds the loaded ML model
("ML-MIAOW has in its local memory the model of the target program").
LDS contents persist across kernel dispatches, exactly so that a model
loaded once at application-load time can be reused per inference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import GpuMemoryError

DEFAULT_GLOBAL_BYTES = 4 * 1024 * 1024
DEFAULT_LDS_BYTES = 64 * 1024

#: Check-folding sentinel for the all-lanes-active fast paths.  A lane
#: address is legal iff it is 4-aligned and its word index is in range.
#: ``(addr >> 2) | ((addr & 3) * _MISALIGN)`` maps any misaligned
#: address to an index >= 2**30, so for memories of at most 2**30 words
#: (4 GiB) a single numpy fancy-index — which validates every index
#: before reading or writing — performs both checks for free, and the
#: hot path needs no reductions at all.  On the rare IndexError the
#: precise checks re-run in the interpreter's order to pick the exact
#: error message.
_MISALIGN = np.uint32(1 << 30)
_FOLD_LIMIT = 1 << 30


class GlobalMemory:
    """Flat byte-addressed device memory with a bump allocator."""

    def __init__(self, size_bytes: int = DEFAULT_GLOBAL_BYTES) -> None:
        if size_bytes % 4:
            raise GpuMemoryError("global memory size must be word aligned")
        self.size_bytes = size_bytes
        self._words = np.zeros(size_bytes // 4, dtype=np.uint32)
        self._fold_checks = len(self._words) <= _FOLD_LIMIT
        self._next_free = 0

    # -- allocation ----------------------------------------------------

    def alloc(self, nbytes: int, align: int = 64) -> int:
        """Reserve a region; returns its base address."""
        if nbytes <= 0:
            raise GpuMemoryError("allocation must be positive")
        base = (self._next_free + align - 1) // align * align
        if base + nbytes > self.size_bytes:
            raise GpuMemoryError(
                f"out of device memory ({base + nbytes} > {self.size_bytes})"
            )
        self._next_free = base + nbytes
        return base

    # -- scalar access ---------------------------------------------------

    def _word_index(self, address: int) -> int:
        if address % 4:
            raise GpuMemoryError(f"unaligned word access at {address:#x}")
        index = address // 4
        if not 0 <= index < len(self._words):
            raise GpuMemoryError(f"global access out of range: {address:#x}")
        return index

    def load_u32(self, address: int) -> int:
        # Hot on the s_load_dword path: same checks as _word_index,
        # inlined (plain-int arithmetic, no helper call).
        if address & 3:
            raise GpuMemoryError(f"unaligned word access at {address:#x}")
        index = address >> 2
        if not 0 <= index < len(self._words):
            raise GpuMemoryError(f"global access out of range: {address:#x}")
        return int(self._words[index])

    def store_u32(self, address: int, value: int) -> None:
        self._words[self._word_index(address)] = np.uint32(value & 0xFFFFFFFF)

    # -- vectorized lane access (used by the VMEM unit) -------------------

    def _raise_lane_fault(self, addresses: np.ndarray, kind: str) -> None:
        """Diagnose a folded-check miss: alignment first, like the
        explicit path, so the error message is identical."""
        if (addresses & 3).any():
            raise GpuMemoryError(f"unaligned lane {kind}")
        raise GpuMemoryError(f"lane {kind} out of range")

    def gather_all_u32(self, addresses: np.ndarray) -> np.ndarray:
        """Per-lane loads with every lane active (compiled fast path)."""
        if self._fold_checks:
            try:
                return self._words[
                    (addresses >> 2) | ((addresses & 3) * _MISALIGN)
                ]
            except IndexError:
                self._raise_lane_fault(addresses, "load")
        if (addresses & 3).any():
            raise GpuMemoryError("unaligned lane load")
        index = addresses >> 2
        if (index >= len(self._words)).any():
            raise GpuMemoryError("lane load out of range")
        return self._words[index]

    def scatter_all_u32(self, addresses: np.ndarray, values: np.ndarray) -> None:
        """Per-lane stores with every lane active (compiled fast path)."""
        if self._fold_checks:
            try:
                self._words[
                    (addresses >> 2) | ((addresses & 3) * _MISALIGN)
                ] = values
                return
            except IndexError:
                self._raise_lane_fault(addresses, "store")
        if (addresses & 3).any():
            raise GpuMemoryError("unaligned lane store")
        index = addresses >> 2
        if (index >= len(self._words)).any():
            raise GpuMemoryError("lane store out of range")
        self._words[index] = values

    def gather_u32(self, addresses: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Per-lane loads; inactive lanes return 0."""
        if mask.all():
            return self.gather_all_u32(addresses)
        out = np.zeros(len(addresses), dtype=np.uint32)
        active = np.nonzero(mask)[0]
        if active.size:
            addr = addresses[active]
            if (addr & 3).any():
                raise GpuMemoryError("unaligned lane load")
            index = addr >> 2
            if (index >= len(self._words)).any():
                raise GpuMemoryError("lane load out of range")
            out[active] = self._words[index]
        return out

    def scatter_u32(
        self, addresses: np.ndarray, values: np.ndarray, mask: np.ndarray
    ) -> None:
        """Per-lane stores (later lanes win on address collisions)."""
        if mask.all():
            self.scatter_all_u32(addresses, values)
            return
        active = np.nonzero(mask)[0]
        if active.size:
            addr = addresses[active]
            if (addr & 3).any():
                raise GpuMemoryError("unaligned lane store")
            index = addr >> 2
            if (index >= len(self._words)).any():
                raise GpuMemoryError("lane store out of range")
            self._words[index] = values[active]

    # -- bulk host access (DMA / TX engine) ------------------------------

    def write_block(self, address: int, data: np.ndarray) -> None:
        """Host DMA write of a uint32 array."""
        data = np.ascontiguousarray(data, dtype=np.uint32)
        index = self._word_index(address)
        if index + data.size > len(self._words):
            raise GpuMemoryError("block write out of range")
        self._words[index:index + data.size] = data

    def read_block(self, address: int, nwords: int) -> np.ndarray:
        index = self._word_index(address)
        if index + nwords > len(self._words):
            raise GpuMemoryError("block read out of range")
        return self._words[index:index + nwords].copy()

    def write_f32(self, address: int, data: np.ndarray) -> None:
        self.write_block(
            address, np.ascontiguousarray(data, dtype=np.float32).view(np.uint32)
        )

    def read_f32(self, address: int, count: int) -> np.ndarray:
        return self.read_block(address, count).view(np.float32).copy()


class LocalMemory:
    """Per-CU local data share (word addressed internally)."""

    def __init__(self, size_bytes: int = DEFAULT_LDS_BYTES) -> None:
        if size_bytes % 4:
            raise GpuMemoryError("LDS size must be word aligned")
        self.size_bytes = size_bytes
        self._words = np.zeros(size_bytes // 4, dtype=np.uint32)
        self._fold_checks = len(self._words) <= _FOLD_LIMIT

    def _check(self, index: np.ndarray) -> None:
        # index comes from uint32 addresses, so it can never be
        # negative; the upper-bound test is the whole check.
        if (index >= len(self._words)).any():
            raise GpuMemoryError("LDS access out of range")

    def _raise_lds_fault(self, addresses: np.ndarray, kind: str) -> None:
        if (addresses & 3).any():
            raise GpuMemoryError(f"unaligned LDS {kind}")
        raise GpuMemoryError("LDS access out of range")

    def gather_all_u32(self, addresses: np.ndarray) -> np.ndarray:
        """Per-lane LDS loads with every lane active (compiled path)."""
        if self._fold_checks:
            try:
                return self._words[
                    (addresses >> 2) | ((addresses & 3) * _MISALIGN)
                ]
            except IndexError:
                self._raise_lds_fault(addresses, "load")
        if (addresses & 3).any():
            raise GpuMemoryError("unaligned LDS load")
        index = addresses >> 2
        self._check(index)
        return self._words[index]

    def scatter_all_u32(self, addresses: np.ndarray, values: np.ndarray) -> None:
        """Per-lane LDS stores with every lane active (compiled path)."""
        if self._fold_checks:
            try:
                self._words[
                    (addresses >> 2) | ((addresses & 3) * _MISALIGN)
                ] = values
                return
            except IndexError:
                self._raise_lds_fault(addresses, "store")
        if (addresses & 3).any():
            raise GpuMemoryError("unaligned LDS store")
        index = addresses >> 2
        self._check(index)
        self._words[index] = values

    def gather_u32(self, addresses: np.ndarray, mask: np.ndarray) -> np.ndarray:
        if mask.all():
            return self.gather_all_u32(addresses)
        out = np.zeros(len(addresses), dtype=np.uint32)
        active = np.nonzero(mask)[0]
        if active.size:
            addr = addresses[active]
            if (addr & 3).any():
                raise GpuMemoryError("unaligned LDS load")
            index = addr >> 2
            self._check(index)
            out[active] = self._words[index]
        return out

    def scatter_u32(
        self, addresses: np.ndarray, values: np.ndarray, mask: np.ndarray
    ) -> None:
        if mask.all():
            self.scatter_all_u32(addresses, values)
            return
        active = np.nonzero(mask)[0]
        if active.size:
            addr = addresses[active]
            if (addr & 3).any():
                raise GpuMemoryError("unaligned LDS store")
            index = addr >> 2
            self._check(index)
            self._words[index] = values[active]

    def atomic_add_u32(
        self, addresses: np.ndarray, values: np.ndarray, mask: np.ndarray
    ) -> None:
        """Per-lane atomic adds; colliding lanes all accumulate."""
        active = np.nonzero(mask)[0]
        if active.size:
            addr = addresses[active]
            if (addr & 3).any():
                raise GpuMemoryError("unaligned LDS atomic")
            index = addr >> 2
            self._check(index)
            np.add.at(self._words, index, values[active].astype(np.uint32))

    # -- host preload (model weights) ------------------------------------

    def write_block(self, address: int, data: np.ndarray) -> None:
        data = np.ascontiguousarray(data, dtype=np.uint32)
        if address % 4:
            raise GpuMemoryError("unaligned LDS block write")
        index = address // 4
        if index + data.size > len(self._words):
            raise GpuMemoryError("LDS block write out of range")
        self._words[index:index + data.size] = data

    def write_f32(self, address: int, data: np.ndarray) -> None:
        self.write_block(
            address, np.ascontiguousarray(data, dtype=np.float32).view(np.uint32)
        )

    def read_block(self, address: int, nwords: int) -> np.ndarray:
        if address % 4:
            raise GpuMemoryError("unaligned LDS block read")
        index = address // 4
        if index + nwords > len(self._words):
            raise GpuMemoryError("LDS block read out of range")
        return self._words[index:index + nwords].copy()

    def read_f32(self, address: int, count: int) -> np.ndarray:
        return self.read_block(address, count).view(np.float32).copy()

    def clear(self) -> None:
        self._words[:] = 0
