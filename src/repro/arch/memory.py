"""Device memory: a flat global address space with a bump allocator.

The simulator keeps the allocated device memory as one NumPy byte
image so cache-line fills, NoC payloads and instruction fetches can read
real bit contents. Buffers are aligned, contiguous slices of the image,
and the image is exactly as long as the allocator's extent: it grows
with each allocation, up to the device capacity, so an access past the
last allocation is out of range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DeviceBuffer", "GlobalMemory", "LINE_BYTES"]

LINE_BYTES = 128


@dataclass(frozen=True)
class DeviceBuffer:
    """A named, aligned allocation in device memory."""

    name: str
    base: int
    nbytes: int

    @property
    def end(self) -> int:
        return self.base + self.nbytes

    def addr(self, element_index, element_bytes: int = 4):
        """Byte address(es) of the given element index(es)."""
        idx = np.asarray(element_index, dtype=np.int64)
        return self.base + idx * element_bytes

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end


class GlobalMemory:
    """The device's flat memory image plus its allocator.

    ``size`` is the device capacity, the bound on allocation; ``image``
    holds only the allocated extent, so the next buffer starts at
    ``image.size``.
    """

    def __init__(self, size_bytes: int = 8 << 20, align: int = LINE_BYTES):
        self.size = size_bytes
        self.align = align
        # One unused block keeps address 0 unmapped to catch bugs.
        self.image = np.zeros(align, dtype=np.uint8)
        self.buffers = {}

    @classmethod
    def from_image(cls, image: np.ndarray) -> "GlobalMemory":
        """A memory whose allocated extent is a copy of ``image``
        (a :meth:`snapshot`); its capacity is that extent."""
        mem = cls(size_bytes=image.size)
        mem.image = np.array(image, dtype=np.uint8)
        return mem

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def alloc(self, nbytes: int, name: str) -> DeviceBuffer:
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        if name in self.buffers:
            raise ValueError(f"duplicate buffer name {name!r}")
        base = self.image.size
        padded = -(-nbytes // self.align) * self.align
        if base + padded > self.size:
            raise MemoryError(
                f"device memory exhausted allocating {name!r} "
                f"({nbytes} bytes; {self.size - base} free)"
            )
        self.image = np.concatenate(
            [self.image, np.zeros(padded, dtype=np.uint8)])
        buf = DeviceBuffer(name, base, nbytes)
        self.buffers[name] = buf
        return buf

    def alloc_array(self, values, name: str) -> DeviceBuffer:
        """Allocate a buffer initialised from a NumPy array."""
        arr = np.ascontiguousarray(values)
        buf = self.alloc(arr.nbytes, name)
        self.image[buf.base:buf.base + arr.nbytes] = arr.view(np.uint8).ravel()
        return buf

    # ------------------------------------------------------------------
    # Word access (little-endian uint32)
    # ------------------------------------------------------------------

    def read_u32(self, addresses) -> np.ndarray:
        addrs = np.asarray(addresses, dtype=np.int64)
        self._check(addrs, 4)
        gathered = self.image[addrs[..., None] + np.arange(4, dtype=np.int64)]
        return np.ascontiguousarray(gathered).view(np.uint32).reshape(addrs.shape)

    def write_u32(self, addresses, values, mask=None) -> None:
        addrs = np.asarray(addresses, dtype=np.int64)
        vals = np.asarray(values, dtype=np.uint32)
        if mask is not None:
            keep = np.asarray(mask, dtype=bool)
            addrs = addrs[keep]
            vals = vals[keep]
        if addrs.size == 0:
            return
        self._check(addrs, 4)
        as_bytes = np.ascontiguousarray(vals).view(np.uint8).reshape(-1, 4)
        # Fancy-index scatter: rows assign in order, so duplicate
        # addresses keep the loop's last-write-wins semantics.
        self.image[addrs.reshape(-1, 1) + np.arange(4, dtype=np.int64)] = as_bytes

    def read_u64(self, address: int) -> int:
        self._check(np.asarray([address]), 8)
        return int(self.image[address:address + 8].view(np.uint64)[0])

    def write_u64(self, address: int, value: int) -> None:
        self._check(np.asarray([address]), 8)
        self.image[address:address + 8] = np.uint64(value).reshape(1).view(np.uint8)

    # ------------------------------------------------------------------
    # Line access
    # ------------------------------------------------------------------

    def read_line(self, line_address: int,
                  line_bytes: int = LINE_BYTES) -> np.ndarray:
        """Copy of one cache line's bytes."""
        return self.read_lines(np.asarray([line_address]), line_bytes)[0]

    def read_lines(self, line_addrs: np.ndarray,
                   line_bytes: int = LINE_BYTES) -> np.ndarray:
        """Copy of the given lines' bytes as one ``(n_lines, line_bytes)``
        block."""
        addrs = np.asarray(line_addrs, dtype=np.int64)
        if (addrs % line_bytes).any():
            raise ValueError("line address must be line-aligned")
        self._check(addrs, line_bytes)
        return self.image[addrs[:, None]
                          + np.arange(line_bytes, dtype=np.int64)]

    def line_view(self, line_bytes: int = LINE_BYTES) -> np.ndarray:
        """The image's whole lines as a writable ``(lines, line_bytes)``
        view: row ``r`` is the line at address ``r * line_bytes``."""
        n_lines = self.image.size // line_bytes
        return self.image[:n_lines * line_bytes].reshape(n_lines, line_bytes)

    def snapshot(self) -> np.ndarray:
        """Copy of the allocated extent; :meth:`from_image` turns it
        back into a memory for the replay phase."""
        return self.image.copy()

    def to_numpy(self, buf: DeviceBuffer, dtype=np.uint32) -> np.ndarray:
        """View a buffer's current contents as a typed array."""
        raw = self.image[buf.base:buf.base + buf.nbytes]
        return np.ascontiguousarray(raw).view(dtype)

    def _check(self, addrs: np.ndarray, width: int) -> None:
        if addrs.size == 0:
            return
        lo = int(addrs.min())
        hi = int(addrs.max()) + width
        if lo < 0 or hi > self.image.size:
            raise IndexError(
                f"device access out of range: [{lo}, {hi}) of "
                f"{self.image.size} allocated bytes"
            )
