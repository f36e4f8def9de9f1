"""Asynchronous log / snapshot persistence model.

The paper's §8.1 compares ZooKeeper/ZKCanopus writing logs and snapshots to
an in-memory filesystem versus an SSD and finds throughput unchanged with a
median completion-time increase below 0.5 ms.  This module models that
storage path: appends are asynchronous (they never block the commit path)
but add device latency before a request is considered durable, which the
storage-sensitivity benchmark measures.

Nothing reads a record back, so the model keeps no records: an append
count and a byte count stand for the log, and each append's durable time
is returned to the caller.
"""

from __future__ import annotations

import enum

__all__ = ["StorageDevice", "PersistenceModel"]


class StorageDevice(enum.Enum):
    """Storage backends with their characteristic append latencies."""

    MEMORY = "memory"
    SSD = "ssd"
    HDD = "hdd"

    @property
    def append_latency_s(self) -> float:
        return {
            StorageDevice.MEMORY: 2e-6,
            # Intel S3700-class SSD sync write latency (~60 us) plus
            # filesystem overhead; the paper reports < 0.5 ms added median.
            StorageDevice.SSD: 3e-4,
            StorageDevice.HDD: 6e-3,
        }[self]


class PersistenceModel:
    """Models an append-only log with asynchronous group flushes."""

    def __init__(self, device: StorageDevice = StorageDevice.MEMORY, group_size: int = 32) -> None:
        self.device = device
        self.group_size = group_size
        self._appends = 0
        self._bytes = 0

    def append(self, now: float, size_bytes: int) -> float:
        """Append a record at time ``now``; returns when it becomes durable."""
        # Group commit: every ``group_size`` appends share one device write.
        flush_position = self._appends % self.group_size
        self._appends += 1
        self._bytes += size_bytes
        return now + self.device.append_latency_s * (1 + flush_position / self.group_size)

    @property
    def flushes(self) -> int:
        """Device writes issued so far (full groups)."""
        return self._appends // self.group_size

    def added_latency(self) -> float:
        """Average extra latency per append relative to the memory device."""
        return self.device.append_latency_s - StorageDevice.MEMORY.append_latency_s

    def total_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return self._appends
