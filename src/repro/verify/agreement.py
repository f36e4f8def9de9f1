"""Agreement, total-order and FIFO checks over commit logs."""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

from repro.verify.history import History

__all__ = [
    "check_agreement",
    "check_cycle_agreement",
    "check_prefix_consistency",
    "check_fifo_client_order",
]


def check_agreement(orders: Dict[str, Sequence[int]]) -> Tuple[bool, str]:
    """All nodes that committed the same number of requests agree exactly.

    ``orders`` maps node id to its committed request-id sequence.  Nodes may
    trail behind (prefix), but no two nodes may disagree on a committed
    position (the Agreement property of §6).
    """
    ok, message = check_prefix_consistency(orders)
    if not ok:
        return ok, message
    return True, "agreement holds"


def check_cycle_agreement(
    logs: Dict[str, Iterable[Tuple[int, Sequence[int]]]]
) -> Tuple[bool, str]:
    """Every cycle committed at two nodes committed the same requests there.

    ``logs`` maps node id to its commit log as ``(cycle id, request ids)``
    pairs.  :func:`check_agreement` compares flat request-id sequences, so a
    node's last cycle committed empty passes it as a prefix of another
    node's log that committed that cycle with requests; this check does not.
    """
    first: Dict[int, Tuple[str, Tuple[int, ...]]] = {}
    for node, log in logs.items():
        for cycle_id, request_ids in log:
            request_ids = tuple(request_ids)
            seen_at, seen = first.setdefault(cycle_id, (node, request_ids))
            if seen != request_ids:
                return (
                    False,
                    f"cycle {cycle_id}: node {node} committed {list(request_ids)}, "
                    f"node {seen_at} committed {list(seen)}",
                )
    return True, "cycle agreement holds"


def check_prefix_consistency(orders: Dict[str, Sequence[int]]) -> Tuple[bool, str]:
    """Every committed sequence is a prefix of the longest one."""
    if not orders:
        return True, "no nodes"
    longest_node = max(orders, key=lambda node: len(orders[node]))
    reference = list(orders[longest_node])
    for node, sequence in orders.items():
        for position, request_id in enumerate(sequence):
            if position >= len(reference) or reference[position] != request_id:
                return (
                    False,
                    f"node {node} disagrees at position {position}: "
                    f"{request_id} != {reference[position] if position < len(reference) else 'missing'}",
                )
    return True, "prefix consistency holds"


def check_fifo_client_order(history: History) -> Tuple[bool, str]:
    """Per client, operations complete in the order they were invoked (§6)."""
    for client_id, operations in history.by_client().items():
        ordered = sorted(operations, key=lambda op: op.invoked_at)
        completions = [op.completed_at for op in ordered]
        if completions != sorted(completions):
            return False, f"client {client_id} observed out-of-order completions"
    return True, "FIFO client order holds"
