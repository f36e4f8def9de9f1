"""Correctness verification utilities.

These implement checks for the properties of §6:

* **Agreement / total order** — every node that completes a cycle commits
  the same ordered set of requests (:mod:`repro.verify.agreement`;
  :func:`~repro.verify.agreement.check_cycle_agreement` compares cycle by
  cycle).
* **Linearizability** — the observed history of client operations on each
  key admits a legal sequential ordering consistent with real time
  (:mod:`repro.verify.linearizability`).
* **FIFO client order** — per-client operations complete in submission
  order (:func:`repro.verify.agreement.check_fifo_client_order`).
"""

from repro.verify.history import History, Operation
from repro.verify.agreement import (
    check_agreement,
    check_cycle_agreement,
    check_fifo_client_order,
    check_prefix_consistency,
)
from repro.verify.linearizability import check_linearizable_history, check_linearizable_key

__all__ = [
    "History",
    "Operation",
    "check_agreement",
    "check_cycle_agreement",
    "check_prefix_consistency",
    "check_fifo_client_order",
    "check_linearizable_history",
    "check_linearizable_key",
]
