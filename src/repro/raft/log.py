"""The replicated log used by Raft."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

__all__ = ["LogEntry", "RaftLog"]


@dataclass(frozen=True, slots=True)
class LogEntry:
    """One entry of the replicated log."""

    term: int
    index: int
    command: Any
    #: False for an *unacknowledged append* (``RaftNode.propose(command,
    #: acknowledged=False)``): applied wherever it is appended, when it is
    #: appended, and passed over when the commit index reaches it.
    acknowledged: bool = True

    def wire_size(self) -> int:
        inner = getattr(self.command, "wire_size", None)
        return (int(inner()) if callable(inner) else 64) + 16


class RaftLog:
    """1-indexed append-only log with the consistency-check helpers Raft needs."""

    def __init__(self) -> None:
        self._entries: List[LogEntry] = []

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def last_index(self) -> int:
        return len(self._entries)

    @property
    def last_term(self) -> int:
        return self._entries[-1].term if self._entries else 0

    def entry(self, index: int) -> LogEntry:
        """Return the entry at 1-based ``index``."""
        if index < 1 or index > len(self._entries):
            raise IndexError(f"log index {index} out of range 1..{len(self._entries)}")
        return self._entries[index - 1]

    def term_at(self, index: int) -> int:
        if index == 0:
            return 0
        return self.entry(index).term

    def entries_from(self, index: int) -> Tuple[LogEntry, ...]:
        """Entries with log index >= ``index``."""
        if index < 1:
            index = 1
        return tuple(self._entries[index - 1 :])

    # ------------------------------------------------------------------
    def append_new(self, term: int, command: Any, acknowledged: bool = True) -> LogEntry:
        """Append a new command as the leader."""
        entry = LogEntry(term, self.last_index + 1, command, acknowledged)
        self._entries.append(entry)
        return entry

    def matches(self, prev_log_index: int, prev_log_term: int) -> bool:
        """AppendEntries consistency check."""
        if prev_log_index == 0:
            return True
        if prev_log_index > self.last_index:
            return False
        return self.term_at(prev_log_index) == prev_log_term

    def merge(self, prev_log_index: int, entries: Sequence[LogEntry]) -> List[LogEntry]:
        """Apply follower-side entry reconciliation (Raft figure 2, step 3-4).

        Returns the entries this call added to the log, in log order.
        """
        added: List[LogEntry] = []
        insert_at = prev_log_index
        for entry in entries:
            insert_at += 1
            if insert_at <= self.last_index:
                if self.entry(insert_at).term == entry.term:
                    continue
                # Conflict: truncate everything from here on.
                del self._entries[insert_at - 1 :]
            self._entries.append(entry)
            added.append(entry)
        return added

    def commands(self, start: int, end: int) -> List[Any]:
        """Commands for indices ``start..end`` inclusive."""
        return [self.entry(i).command for i in range(start, end + 1)]
