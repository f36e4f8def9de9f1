"""Key selection for generated requests.

The paper draws keys uniformly from one million 16-byte keys (§8.1).
"""

from __future__ import annotations

import random
from typing import List, Optional

__all__ = ["Keyspace"]


class Keyspace:
    """Uniform key popularity over a fixed key count."""

    def __init__(self, key_count: int = 1_000_000, rng: Optional[random.Random] = None) -> None:
        if key_count < 1:
            raise ValueError("key_count must be >= 1")
        self.key_count = key_count
        self.rng = rng or random.Random(0)

    def next_key(self) -> str:
        """Draw the next key uniformly."""
        return f"k{self.rng.randrange(self.key_count):07d}"

    def next_value(self, size: int = 8) -> str:
        """A value string of roughly ``size`` bytes (16-byte KV pairs overall)."""
        return f"v{self.rng.randrange(10 ** (size - 1)):0{size - 1}d}"

    def next_txn_keys(self, span: int, pool: Optional[int] = None) -> List[str]:
        """``span`` distinct keys from the transaction key range.

        Multi-key operations draw from a dedicated ``t``-prefixed range so
        the single-key history stays cleanly separable for per-shard
        linearizability checking (transactional writes have no client-side
        invocation interval — 2PC applies them when the decision commits).
        """
        pool = pool if pool is not None else min(self.key_count, 4096)
        if span > pool:
            raise ValueError(f"span {span} exceeds transaction key pool {pool}")
        return [f"t{index:05d}" for index in self.rng.sample(range(pool), span)]
