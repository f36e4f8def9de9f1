"""Per-run request bookkeeping and steady-state summaries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.verify.history import History

from repro.metrics.stats import percentile
from repro.runtime.messages import ClientReply, ClientRequest, RequestType

__all__ = ["RequestRecord", "RunSummary", "MetricsCollector"]


@dataclass(slots=True)
class RequestRecord:
    """Lifecycle of one client request (one per op: slotted, no ``__dict__``)."""

    request_id: int
    op: RequestType
    submitted_at: float
    completed_at: Optional[float] = None
    server_id: str = ""
    #: Operation identity, kept so completed runs can be replayed into a
    #: :class:`repro.verify.history.History` for linearizability checking.
    client_id: str = ""
    key: str = ""
    value: Optional[str] = None

    @property
    def completion_time(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at


@dataclass
class RunSummary:
    """Summary of one measurement run (one rate point of one system)."""

    requests_submitted: int
    requests_completed: int
    duration_s: float
    throughput_rps: float
    median_completion_s: float
    p95_completion_s: float
    p99_completion_s: float
    read_median_s: float
    write_median_s: float
    read_p95_s: float = 0.0
    read_p99_s: float = 0.0
    write_p95_s: float = 0.0
    write_p99_s: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "requests_submitted": self.requests_submitted,
            "requests_completed": self.requests_completed,
            "duration_s": self.duration_s,
            "throughput_rps": self.throughput_rps,
            "median_completion_ms": self.median_completion_s * 1000,
            "p95_completion_ms": self.p95_completion_s * 1000,
            "p99_completion_ms": self.p99_completion_s * 1000,
            "read_median_ms": self.read_median_s * 1000,
            "write_median_ms": self.write_median_s * 1000,
            "read_p95_ms": self.read_p95_s * 1000,
            "read_p99_ms": self.read_p99_s * 1000,
            "write_p95_ms": self.write_p95_s * 1000,
            "write_p99_ms": self.write_p99_s * 1000,
        }


class MetricsCollector:
    """Collects request lifecycles; shared by all clients of one run."""

    def __init__(self) -> None:
        self.records: Dict[int, RequestRecord] = {}

    # ------------------------------------------------------------------
    def record_submit(self, request: ClientRequest) -> None:
        self.records[request.request_id] = RequestRecord(
            request_id=request.request_id,
            op=request.op,
            submitted_at=request.submitted_at,
            client_id=request.client_id,
            key=request.key,
            value=request.value,
        )

    def record_reply(self, reply: ClientReply, completed_at: float) -> None:
        record = self.records.get(reply.request_id)
        if record is None or reply.error is not None:
            return  # a refusal completes nothing: the request stays unanswered
        record.completed_at = completed_at
        record.server_id = reply.server_id
        # Reads learn their value from the reply; writes keep what they sent.
        if record.op is RequestType.READ:
            record.value = reply.value

    # ------------------------------------------------------------------
    def completed_records(self) -> List[RequestRecord]:
        return [record for record in self.records.values() if record.completed_at is not None]

    def summarize(self, window_start: float, window_end: float) -> RunSummary:
        """Summary over requests *completed* within the steady-state window.

        The paper discards the first and last five seconds of each run; the
        caller picks the equivalent window for the scaled-down simulations.
        """
        duration = max(window_end - window_start, 1e-9)
        submitted = [
            record
            for record in self.records.values()
            if window_start <= record.submitted_at <= window_end
        ]
        completed = [
            record
            for record in self.completed_records()
            if window_start <= record.completed_at <= window_end
        ]
        completion_times = [record.completion_time for record in completed]
        read_times = [r.completion_time for r in completed if r.op is RequestType.READ]
        write_times = [r.completion_time for r in completed if r.op is RequestType.WRITE]
        return RunSummary(
            requests_submitted=len(submitted),
            requests_completed=len(completed),
            duration_s=duration,
            throughput_rps=len(completed) / duration,
            median_completion_s=percentile(completion_times, 0.5),
            p95_completion_s=percentile(completion_times, 0.95),
            p99_completion_s=percentile(completion_times, 0.99),
            read_median_s=percentile(read_times, 0.5),
            write_median_s=percentile(write_times, 0.5),
            read_p95_s=percentile(read_times, 0.95),
            read_p99_s=percentile(read_times, 0.99),
            write_p95_s=percentile(write_times, 0.95),
            write_p99_s=percentile(write_times, 0.99),
        )

    def to_history(self) -> "History":
        """Completed operations as a :class:`repro.verify.history.History`.

        Only completed operations enter the history — linearizability is
        checked over what clients actually observed.
        """
        from repro.verify.history import History

        history = History()
        for record in self.completed_records():
            if not record.key:
                continue
            history.add(
                client_id=record.client_id,
                kind="read" if record.op is RequestType.READ else "write",
                key=record.key,
                value=record.value,
                invoked_at=record.submitted_at,
                completed_at=record.completed_at,
                request_id=record.request_id,
            )
        return history

    def reset(self) -> None:
        self.records.clear()
