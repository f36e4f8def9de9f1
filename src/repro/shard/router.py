"""Client-facing routing and cross-shard transactions.

:class:`ShardRouter` is the client library of the sharded deployment:

* **Single-key operations** go straight to the owning shard's intake
  replica (consistent-hash partitioner + deterministic per-key replica
  choice) — no coordination, full per-shard throughput.

* **Multi-key operations** run two-phase commit *over the shards' own
  consensus logs*.  The coordinator never keeps any decision only in its
  own memory: every prepare record and every commit/abort decision is an
  ordinary replicated write (key ``__txn__/p/<txid>`` resp.
  ``__txn__/c/<txid>``) that commits through the participant shard's
  consensus protocol before the coordinator acts on it.  A coordinator
  crash therefore leaves the full recovery state in the shards:
  :meth:`ShardRouter.recover` reads the markers back *through consensus*
  and completes the transaction — commit everywhere if any participant
  logged a commit decision, presumed-abort otherwise.

The prepare record's value is a JSON blob carrying the transaction id, the
full participant list and the shard's own writes, so any recovering
coordinator can finish the transaction from the shards alone.  Transaction
control records live under the reserved ``__txn__/`` key prefix; data keys
must not use it.

2PC alone gives *atomicity* (all participants converge on one outcome, and
data writes are applied exactly when that outcome is commit), not
isolation: between the per-shard commit applications a reader could observe
one shard's writes before another's.  The router closes that window with
**per-key fences** derived from the replicated prepare markers: from the
moment a commit decision is submitted until every participant acked the
decision and its data writes (the *decide window*), the transaction's keys
are fenced.  Single-key operations on a fenced key are deferred until the
fence lifts; decide windows of key-overlapping transactions serialize in
FIFO order, so each key's apply order matches the coordinator's completion
order; and :meth:`ShardRouter.read_txn` returns a multi-key *snapshot
read* — a cut consistent with 2PC commit order, guaranteed by holding read
fences that delay conflicting decides while the component reads are in
flight.  ``ShardRouter(..., isolation=False)`` restores the pre-fence
behaviour (kept so the fractured-read regression tests can reproduce the
bug the isolation checker exists to catch).

The router records every committed transaction (in completion order) in
:attr:`ShardRouter.committed_txn_order` and every finished snapshot read in
:attr:`ShardRouter.snapshot_reads`, ready for
:func:`repro.verify.atomicity.check_read_isolation`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.runtime.messages import ClientReply, ClientRequest, RequestType
from repro.shard.cluster import ShardedCluster

__all__ = ["ShardRouter", "TXN_PREPARE_PREFIX", "TXN_COMMIT_PREFIX", "txn_marker_kind"]

#: Reserved key prefixes of the transaction control records.
TXN_PREPARE_PREFIX = "__txn__/p/"
TXN_COMMIT_PREFIX = "__txn__/c/"


def txn_marker_kind(key: str) -> Optional[str]:
    """``"prepare"`` / ``"decision"`` when ``key`` is a txn control record."""
    if key.startswith(TXN_PREPARE_PREFIX):
        return "prepare"
    if key.startswith(TXN_COMMIT_PREFIX):
        return "decision"
    return None


@dataclass
class _Txn:
    """Coordinator-side state of one multi-key transaction."""

    txid: str
    client_id: str
    writes_by_shard: Dict[str, Dict[str, str]]
    participants: List[str]
    phase: str = "prepare"  # prepare -> decide -> done
    outcome: Optional[str] = None  # "commit" | "abort"
    prepared: Set[str] = field(default_factory=set)
    pending_acks: int = 0

    def keys(self) -> List[str]:
        return [key for writes in self.writes_by_shard.values() for key in writes]

    def all_writes(self) -> Dict[str, str]:
        merged: Dict[str, str] = {}
        for writes in self.writes_by_shard.values():
            merged.update(writes)
        return merged


@dataclass
class _ReadTxn:
    """Coordinator-side state of one in-flight multi-key snapshot read."""

    read_id: str
    client_id: str
    keys: List[str]
    values: Dict[str, Optional[str]] = field(default_factory=dict)
    reads_pending: int = 0
    on_done: Optional[Callable[[str, Dict[str, Optional[str]]], None]] = None


@dataclass
class _Recovery:
    """State of one in-flight :meth:`ShardRouter.recover` pass."""

    txid: str
    phase: str = "read"  # read -> complete -> done
    prepare_values: Dict[str, Optional[str]] = field(default_factory=dict)
    decision_values: Dict[str, Optional[str]] = field(default_factory=dict)
    reads_pending: int = 0
    pending_acks: int = 0
    outcome: Optional[str] = None
    on_done: Optional[Callable[[str, Optional[str]], None]] = None


class ShardRouter:
    """Routes client operations onto a :class:`ShardedCluster`."""

    def __init__(
        self,
        cluster: ShardedCluster,
        name: str = "router",
        on_transaction_complete: Optional[Callable[[str, str], None]] = None,
        isolation: bool = True,
    ) -> None:
        self.cluster = cluster
        self.name = name
        self.on_transaction_complete = on_transaction_complete
        #: Per-key decide-window fencing (snapshot reads).  ``False``
        #: restores the pre-fence router: atomic but not isolated.
        self.isolation = isolation
        self.crashed = False
        self._txn_counter = 0
        self._read_counter = 0
        self._txns: Dict[str, _Txn] = {}
        self._reads: Dict[str, _ReadTxn] = {}
        self._recoveries: Dict[str, _Recovery] = {}
        #: request id -> (kind, txid, shard); kinds: prepare, decide, data,
        #: read, recover-prepare, recover-decision, recover-ack.
        self._tracked: Dict[int, Tuple[str, str, str]] = {}
        # -- fence state (all empty when isolation is off) --------------
        #: key -> txid of the transaction holding the decide-window fence.
        self._key_fences: Dict[str, str] = {}
        #: key -> number of in-flight snapshot reads covering it.
        self._read_fences: Dict[str, int] = {}
        #: key -> number of *waiting* commit windows needing it.  New
        #: snapshot reads queue behind these, so a continuous read stream
        #: cannot starve a commit out of its decide window.
        self._pending_commit_keys: Dict[str, int] = {}
        #: FIFO of commits waiting for their keys' fences to clear.
        self._waiting_commits: List[_Txn] = []
        #: FIFO of snapshot reads waiting for decide windows to close.
        self._waiting_reads: List[_ReadTxn] = []
        #: Single-key requests parked behind a fenced key, in arrival order.
        self._deferred_ops: List[ClientRequest] = []
        self._flushing = False
        self._flush_pending = False
        #: Committed transactions ``(txid, {key: value})`` in completion
        #: order — the per-key version order the isolation checker uses.
        self.committed_txn_order: List[Tuple[str, Dict[str, str]]] = []
        #: Finished snapshot reads ``{key: observed value}``.
        self.snapshot_reads: List[Dict[str, Optional[str]]] = []
        self.stats: Dict[str, int] = {
            "single_key_ops": 0,
            "txns_started": 0,
            "txns_committed": 0,
            "txns_aborted": 0,
            "txns_recovered": 0,
            "control_writes": 0,
            "read_txns_started": 0,
            "read_txns_completed": 0,
            "ops_fenced": 0,
            "reads_fenced": 0,
            "commits_fenced": 0,
        }
        #: Observability hook (repro.obs.Tracer); None = off, one attribute
        #: load per instrumented point.  2PC phases are recorded under the
        #: protocol label "2pc" keyed by txid.
        self._obs = None
        cluster.add_reply_listener(self._on_reply)

    # ------------------------------------------------------------------
    # Single-key path
    # ------------------------------------------------------------------
    def submit(self, request: ClientRequest) -> str:
        """Route one single-key request; returns the owning shard id.

        While a committed transaction's decide window is open on
        ``request.key`` the request is parked and routed when the fence
        lifts, so no reader can observe one participant's applied writes
        before another's (writes are parked too, keeping each key's apply
        order equal to the coordinator's completion order).
        """
        if txn_marker_kind(request.key) is not None:
            raise ValueError(f"{request.key!r} uses the reserved __txn__/ prefix")
        if self.isolation and request.key in self._key_fences:
            self.stats["ops_fenced"] += 1
            self._deferred_ops.append(request)
            return self.cluster.shard_of(request.key)
        self.stats["single_key_ops"] += 1
        return self.cluster.submit(request)

    def target_for_key(self, key: str) -> str:
        """Intake node for ``key`` (workload clients send over the network)."""
        return self.cluster.target_for_key(key)

    # ------------------------------------------------------------------
    # Multi-key transactions
    # ------------------------------------------------------------------
    def submit_transaction(self, writes: Dict[str, str], client_id: str = "txn") -> str:
        """Atomically apply ``writes`` (a ``{key: value}`` map); returns the txid.

        Single-shard transactions skip 2PC — one consensus log already
        orders them atomically.  Cross-shard transactions run the prepare /
        decide protocol described in the module docstring.
        """
        if not writes:
            raise ValueError("transaction must contain at least one write")
        for key in writes:
            if txn_marker_kind(key) is not None:
                raise ValueError(f"{key!r} uses the reserved __txn__/ prefix")
        txid = f"{self.name}-t{self._txn_counter}"
        self._txn_counter += 1
        grouped = self.cluster.partitioner.group_by_shard(writes)
        writes_by_shard = {
            shard: {key: writes[key] for key in keys} for shard, keys in grouped.items()
        }
        txn = _Txn(
            txid=txid,
            client_id=client_id,
            writes_by_shard=writes_by_shard,
            participants=sorted(writes_by_shard),
        )
        self._txns[txid] = txn
        self.stats["txns_started"] += 1

        if len(txn.participants) == 1:
            # Fast path: a single shard's log is already atomic; the commit
            # window (fences + data writes, no 2PC markers) opens at once.
            self._decide(txn, "commit")
            return txid

        if self._obs is not None:
            self._obs.phase_begin("2pc", "prepare", self.name, key=txid)
        for shard in txn.participants:
            record = json.dumps(
                {
                    "txid": txid,
                    "participants": txn.participants,
                    "writes": writes_by_shard[shard],
                },
                sort_keys=True,
            )
            self._submit_tracked(
                shard, txid, "prepare", RequestType.WRITE, TXN_PREPARE_PREFIX + txid, record, txn.client_id
            )
        return txid

    def abort(self, txid: str) -> None:
        """Abort a transaction that has not yet reached a decision."""
        txn = self._txns[txid]
        if txn.phase != "prepare":
            raise ValueError(f"transaction {txid} already decided ({txn.outcome})")
        self._decide(txn, "abort")

    def crash(self) -> None:
        """Simulate a coordinator crash: stop reacting to replies.

        Prepare records already submitted keep committing in the shards'
        consensus logs — exactly the dangling state :meth:`recover` exists
        to resolve.
        """
        self.crashed = True

    def pending_transactions(self) -> List[str]:
        return [txid for txid, txn in self._txns.items() if txn.phase != "done"]

    def transaction_ids(self) -> List[str]:
        """Ids of every transaction this coordinator has started."""
        return list(self._txns)

    # ------------------------------------------------------------------
    # Multi-key snapshot reads
    # ------------------------------------------------------------------
    def read_txn(
        self,
        keys: List[str],
        client_id: str = "reader",
        on_done: Optional[Callable[[str, Dict[str, Optional[str]]], None]] = None,
    ) -> str:
        """Read ``keys`` across their shards as one consistent cut.

        The read waits for any open decide window touching its keys, then
        holds per-key read fences while the component reads are in flight —
        a conflicting transaction cannot open its decide window until the
        read completes, so the returned values always reflect a prefix of
        the 2PC commit order (no fractured reads).  ``on_done(read_id,
        {key: value})`` fires when every component read has answered; the
        cut is also appended to :attr:`snapshot_reads`.  With ``isolation``
        off the reads are issued immediately (the pre-fix behaviour).
        """
        ordered = list(dict.fromkeys(keys))
        if not ordered:
            raise ValueError("read_txn needs at least one key")
        for key in ordered:
            if txn_marker_kind(key) is not None:
                raise ValueError(f"{key!r} uses the reserved __txn__/ prefix")
        read_id = f"{self.name}-r{self._read_counter}"
        self._read_counter += 1
        read = _ReadTxn(read_id=read_id, client_id=client_id, keys=ordered, on_done=on_done)
        self._reads[read_id] = read
        self.stats["read_txns_started"] += 1
        if self.isolation and any(
            key in self._key_fences or key in self._pending_commit_keys for key in ordered
        ):
            self.stats["reads_fenced"] += 1
            self._waiting_reads.append(read)
        else:
            self._start_read(read)
        return read_id

    def _start_read(self, read: _ReadTxn) -> None:
        if self.isolation:
            for key in read.keys:
                self._read_fences[key] = self._read_fences.get(key, 0) + 1
        # Pre-arm the full count: a shard may answer synchronously (e.g. a
        # local-mode read served by the intake replica itself).
        read.reads_pending = len(read.keys)
        for key in read.keys:
            shard = self.cluster.shard_of(key)
            self._submit_tracked(shard, read.read_id, "read", RequestType.READ, key, None, read.client_id)

    def _finish_read(self, read: _ReadTxn) -> None:
        self._reads.pop(read.read_id, None)
        self.stats["read_txns_completed"] += 1
        self.snapshot_reads.append(dict(read.values))
        if self.isolation:
            for key in read.keys:
                self._decrement(self._read_fences, key)
        if read.on_done is not None:
            read.on_done(read.read_id, dict(read.values))
        self._flush_waiters()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(
        self, txid: str, on_done: Optional[Callable[[str, Optional[str]], None]] = None
    ) -> None:
        """Resolve ``txid`` from the shards' replicated state.

        Reads every shard's prepare and decision markers *through the
        consensus protocols*, then completes the transaction: if any
        participant logged a commit decision the transaction commits
        everywhere (the original coordinator only decides commit once every
        participant's prepare committed, so every participant holds a
        prepare record with its writes); otherwise the transaction is
        presumed aborted and abort markers are logged at every prepared
        shard.  Run the simulator after calling this; ``on_done(txid,
        outcome)`` fires when recovery completes (outcome ``None`` when no
        shard ever saw the transaction).
        """
        # A coordinator that crashed mid-decide may still hold fences for
        # this transaction; recovery supersedes that window entirely.
        self._release_fences(txid)
        for txn in [txn for txn in self._waiting_commits if txn.txid == txid]:
            self._waiting_commits.remove(txn)
            for key in txn.keys():
                self._decrement(self._pending_commit_keys, key)
        recovery = _Recovery(txid=txid, on_done=on_done)
        self._recoveries[txid] = recovery
        # Counted before the first goes out: a shard may answer a read
        # inside the submitting call.
        recovery.reads_pending = 2 * len(self.cluster.shard_ids)
        for shard in self.cluster.shard_ids:
            for kind, key_prefix in (
                ("recover-prepare", TXN_PREPARE_PREFIX),
                ("recover-decision", TXN_COMMIT_PREFIX),
            ):
                self._submit_tracked(
                    shard, txid, kind, RequestType.READ, key_prefix + txid, None, self.name
                )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _submit_tracked(
        self,
        shard: str,
        txid: str,
        kind: str,
        op: RequestType,
        key: str,
        value: Optional[str],
        client_id: str,
    ) -> None:
        request = ClientRequest(client_id=client_id, op=op, key=key, value=value)
        self._tracked[request.request_id] = (kind, txid, shard)
        if op is RequestType.WRITE and txn_marker_kind(key) is not None:
            self.stats["control_writes"] += 1
        # All of a transaction's requests at one shard go to the *same*
        # intake replica (keyed by txid), so the decision marker enters the
        # consensus log before the data writes it authorizes.
        node = self.cluster.intake_node(shard, txid)
        self.cluster.shards[shard].submit(request, node_id=node)

    def _on_reply(self, shard: str, reply: ClientReply) -> None:
        if self.crashed:
            return
        info = self._tracked.pop(reply.request_id, None)
        if info is None or reply.error is not None:
            return  # refused: as good as lost, and no value to act on
        kind, txid, reply_shard = info
        if kind.startswith("recover"):
            self._on_recovery_reply(kind, txid, reply_shard, reply)
            return
        if kind == "read":
            read = self._reads.get(txid)
            if read is not None:
                read.values[reply.key] = reply.value
                read.reads_pending -= 1
                if read.reads_pending == 0:
                    self._finish_read(read)
            return
        txn = self._txns.get(txid)
        if txn is None or txn.phase == "done":
            return
        if kind == "prepare":
            txn.prepared.add(reply_shard)
            if txn.phase == "prepare" and txn.prepared == set(txn.participants):
                self._decide(txn, "commit")
        elif kind in ("decide", "data"):
            txn.pending_acks -= 1
            if txn.pending_acks == 0:
                self._finish(txn)

    def _decide(self, txn: _Txn, outcome: str) -> None:
        txn.phase = "decide"
        txn.outcome = outcome
        if self._obs is not None:
            # No-op on the single-shard fast path, which never prepared.
            self._obs.phase_end("2pc", "prepare", self.name, key=txn.txid)
        if outcome == "abort":
            # Aborts apply no data writes, so nothing a reader could
            # fracture on: log the decision markers without fencing.
            txn.pending_acks += len(txn.participants)
            for shard in txn.participants:
                self._submit_tracked(
                    shard, txn.txid, "decide", RequestType.WRITE,
                    TXN_COMMIT_PREFIX + txn.txid, outcome, txn.client_id,
                )
            return
        if self.isolation and self._commit_must_wait(txn):
            self.stats["commits_fenced"] += 1
            if self._obs is not None:
                self._obs.phase_begin("2pc", "fence-wait", self.name, key=txn.txid)
            self._waiting_commits.append(txn)
            for key in txn.keys():
                self._pending_commit_keys[key] = self._pending_commit_keys.get(key, 0) + 1
            return
        self._open_commit_window(txn)

    def _commit_must_wait(self, txn: _Txn) -> bool:
        """A commit window waits for overlapping windows *and* reads."""
        return any(
            key in self._key_fences or key in self._read_fences for key in txn.keys()
        )

    def _open_commit_window(self, txn: _Txn) -> None:
        """Fence the transaction's keys and submit its decision + writes.

        Cross-shard transactions log the commit decision marker before the
        data writes it authorizes (same intake replica, so the markers
        enter the consensus log first); the single-shard fast path skips
        the markers — one consensus log already orders it atomically.
        """
        if self._obs is not None:
            self._obs.phase_end("2pc", "fence-wait", self.name, key=txn.txid)
            self._obs.phase_begin("2pc", "decide", self.name, key=txn.txid)
        if self.isolation:
            for key in txn.keys():
                self._key_fences[key] = txn.txid
        cross_shard = len(txn.participants) > 1
        txn.pending_acks += sum(
            (1 if cross_shard else 0) + len(txn.writes_by_shard[shard])
            for shard in txn.participants
        )
        for shard in txn.participants:
            if cross_shard:
                self._submit_tracked(
                    shard, txn.txid, "decide", RequestType.WRITE,
                    TXN_COMMIT_PREFIX + txn.txid, txn.outcome, txn.client_id,
                )
            for key, value in txn.writes_by_shard[shard].items():
                self._submit_tracked(
                    shard, txn.txid, "data", RequestType.WRITE, key, value, txn.client_id
                )

    def _finish(self, txn: _Txn) -> None:
        txn.phase = "done"
        if self._obs is not None:
            self._obs.phase_end("2pc", "decide", self.name, key=txn.txid)
        outcome = txn.outcome or "commit"
        self.stats["txns_committed" if outcome == "commit" else "txns_aborted"] += 1
        if outcome == "commit":
            self.committed_txn_order.append((txn.txid, txn.all_writes()))
        self._release_fences(txn.txid)
        if self.on_transaction_complete is not None:
            self.on_transaction_complete(txn.txid, outcome)
        self._flush_waiters()

    # -- fence bookkeeping ---------------------------------------------
    def _release_fences(self, txid: str) -> None:
        for key in [key for key, holder in self._key_fences.items() if holder == txid]:
            del self._key_fences[key]

    @staticmethod
    def _decrement(counter: Dict[str, int], key: str) -> None:
        """Decrement a per-key count, dropping the entry at zero."""
        remaining = counter.get(key, 0) - 1
        if remaining > 0:
            counter[key] = remaining
        else:
            counter.pop(key, None)

    def _flush_waiters(self) -> None:
        """Re-dispatch work parked behind fences that may have lifted.

        Replies can arrive synchronously (a local-mode read served by the
        intake replica itself), so a flush can re-enter through
        :meth:`_finish` / :meth:`_finish_read`; the ``_flushing`` latch
        collapses nested flushes into one loop.
        """
        if self._flushing:
            self._flush_pending = True
            return
        self._flushing = True
        try:
            while True:
                self._flush_pending = False
                self._flush_once()
                if not self._flush_pending:
                    break
        finally:
            self._flushing = False

    def _flush_once(self) -> None:
        # 1. Parked single-key operations whose key fence lifted.
        if self._deferred_ops:
            still: List[ClientRequest] = []
            for request in self._deferred_ops:
                if request.key in self._key_fences:
                    still.append(request)
                else:
                    self.stats["single_key_ops"] += 1
                    self.cluster.submit(request)
            self._deferred_ops = still
        # 2. Waiting commit windows, FIFO — before new reads, so a stream
        #    of snapshot reads cannot starve writers.
        progressed = True
        while progressed:
            progressed = False
            for txn in list(self._waiting_commits):
                if not self._commit_must_wait(txn):
                    self._waiting_commits.remove(txn)
                    for key in txn.keys():
                        self._decrement(self._pending_commit_keys, key)
                    self._open_commit_window(txn)
                    progressed = True
        # 3. Waiting snapshot reads whose decide windows all closed.
        if self._waiting_reads:
            still_reads: List[_ReadTxn] = []
            for read in self._waiting_reads:
                if any(
                    key in self._key_fences or key in self._pending_commit_keys
                    for key in read.keys
                ):
                    still_reads.append(read)
                else:
                    self._start_read(read)
            self._waiting_reads = still_reads

    # -- recovery state machine ----------------------------------------
    def _on_recovery_reply(self, kind: str, txid: str, shard: str, reply: ClientReply) -> None:
        recovery = self._recoveries.get(txid)
        if recovery is None or recovery.phase == "done":
            return
        if kind == "recover-ack":
            recovery.pending_acks -= 1
            if recovery.pending_acks == 0:
                self._finish_recovery(recovery)
            return
        if kind == "recover-prepare":
            recovery.prepare_values[shard] = reply.value
        else:
            recovery.decision_values[shard] = reply.value
        recovery.reads_pending -= 1
        if recovery.reads_pending == 0:
            self._complete_recovery(recovery)

    def _complete_recovery(self, recovery: _Recovery) -> None:
        recovery.phase = "complete"
        prepared = {
            shard: json.loads(value)
            for shard, value in recovery.prepare_values.items()
            if value is not None
        }
        if not prepared:
            # No shard ever logged a prepare: nothing to resolve.
            self._finish_recovery(recovery)
            return
        participants = sorted(next(iter(prepared.values()))["participants"])
        committed = any(value == "commit" for value in recovery.decision_values.values())
        # Presumed abort: the coordinator is gone and no participant holds a
        # commit decision, so no participant can ever have applied the writes.
        recovery.outcome = "commit" if committed else "abort"
        if self.isolation and recovery.outcome == "commit":
            # Recovery re-opens the commit's decide window: fence the keys
            # so snapshot reads issued mid-recovery cannot observe one
            # participant's recovered writes before another's.  (Recovery
            # does not wait for in-flight snapshot reads — it is resolving
            # a crashed coordinator, not racing a live workload.)
            for record in prepared.values():
                for key in record["writes"]:
                    self._key_fences[key] = recovery.txid
        for shard in participants:
            if recovery.decision_values.get(shard) == recovery.outcome:
                continue  # this shard already holds the decision
            if recovery.outcome == "abort" and shard not in prepared:
                # A participant whose prepare never committed holds nothing
                # to undo; logging a decision there would fabricate a
                # marker at a shard that never voted (atomicity property 3).
                continue
            self._submit_tracked(
                shard, recovery.txid, "recover-ack", RequestType.WRITE,
                TXN_COMMIT_PREFIX + recovery.txid, recovery.outcome, self.name,
            )
            recovery.pending_acks += 1
            if recovery.outcome == "commit":
                record = prepared.get(shard)
                for key, value in (record["writes"] if record else {}).items():
                    self._submit_tracked(
                        shard, recovery.txid, "recover-ack", RequestType.WRITE, key, value, self.name
                    )
                    recovery.pending_acks += 1
        if recovery.pending_acks == 0:
            self._finish_recovery(recovery)

    def _finish_recovery(self, recovery: _Recovery) -> None:
        recovery.phase = "done"
        self._release_fences(recovery.txid)
        self.stats["txns_recovered"] += 1
        if recovery.outcome == "commit":
            self.stats["txns_committed"] += 1
            writes: Dict[str, str] = {}
            for value in recovery.prepare_values.values():
                if value is not None:
                    writes.update(json.loads(value)["writes"])
            self.committed_txn_order.append((recovery.txid, writes))
        elif recovery.outcome == "abort":
            self.stats["txns_aborted"] += 1
        if recovery.on_done is not None:
            recovery.on_done(recovery.txid, recovery.outcome)
        self._flush_waiters()


# ----------------------------------------------------------------------
# Atomicity snapshot extraction (feeds repro.verify.atomicity)
# ----------------------------------------------------------------------
def collect_txn_states(
    cluster: ShardedCluster,
    txids: List[str],
    settle_s: float = 2.0,
):
    """Snapshot every shard's durable view of ``txids``, via consensus reads.

    Issues READ requests for each transaction's prepare and decision
    markers on *every* shard, runs the simulator to quiescence, then reads
    the data keys named by the discovered prepare records.  Everything goes
    through the shard protocols' normal read paths, so the snapshot works
    for any registry protocol and reflects exactly what a recovering
    coordinator could learn.  Returns ``{txid: {shard_id: ShardTxnState}}``
    ready for :func:`repro.verify.atomicity.check_cross_shard_atomicity`.

    Only usable on a simulated topology (it drives the simulator); the
    asyncio substrate would need an awaiting variant.
    """
    from repro.verify.atomicity import ShardTxnState

    simulator = cluster.topology.simulator
    states: Dict[str, Dict[str, "ShardTxnState"]] = {
        txid: {shard: ShardTxnState() for shard in cluster.shard_ids} for txid in txids
    }
    values: Dict[int, Optional[str]] = {}

    def listen(_shard: str, reply: ClientReply) -> None:
        if reply.request_id in expected:
            values[reply.request_id] = reply.value

    expected: Dict[int, Tuple[str, str, str]] = {}
    cluster.add_reply_listener(listen)

    def read(shard: str, key: str, tag: Tuple[str, str, str]) -> None:
        request = ClientRequest(client_id="txn-inspect", op=RequestType.READ, key=key)
        expected[request.request_id] = tag
        cluster.shards[shard].submit(request, node_id=cluster.intake_node(shard, key))

    # Round 1: control markers everywhere.
    for txid in txids:
        for shard in cluster.shard_ids:
            read(shard, TXN_PREPARE_PREFIX + txid, (txid, shard, "prepare"))
            read(shard, TXN_COMMIT_PREFIX + txid, (txid, shard, "decision"))
    simulator.run_until(simulator.now + settle_s)
    for request_id, (txid, shard, kind) in list(expected.items()):
        value = values.get(request_id)
        if kind == "prepare":
            states[txid][shard].prepare = value
        else:
            states[txid][shard].decision = value

    # Round 2: the data keys each prepare record names.
    expected.clear()
    for txid in txids:
        for shard, state in states[txid].items():
            if state.prepare is None:
                continue
            for key in json.loads(state.prepare)["writes"]:
                read(shard, key, (txid, shard, key))
    simulator.run_until(simulator.now + settle_s)
    for request_id, (txid, shard, key) in expected.items():
        states[txid][shard].data[key] = values.get(request_id)
    cluster.remove_reply_listener(listen)
    return states
