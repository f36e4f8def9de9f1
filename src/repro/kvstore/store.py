"""The replicated key-value map every protocol applies committed writes to.

Each replica owns one :class:`KVStore`.  Writes arrive in the order the
consensus layer committed them, so two replicas that applied the same
writes in the same order hold equal :meth:`KVStore.snapshot` maps.
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = ["KVStore"]


class KVStore:
    """One replica's flat ``key -> value`` map."""

    def __init__(self) -> None:
        self._data: Dict[str, str] = {}

    def write(self, key: str, value: str) -> str:
        """Upsert ``key``; returns the value written."""
        self._data[key] = value
        return value

    def read(self, key: str) -> Optional[str]:
        """The value of ``key``, or ``None`` when it was never written."""
        return self._data.get(key)

    def snapshot(self) -> Dict[str, str]:
        """A copy of the whole map, for comparing replicas."""
        return dict(self._data)
