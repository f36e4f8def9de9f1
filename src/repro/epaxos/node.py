"""EPaxos replica state machine, at the paper's 0 % command interference.

Each replica acts as the command leader for the clients attached to it.
Client requests (reads *and* writes — EPaxos sends reads over the network,
which is the key contrast with Canopus) are buffered for the configured
batching duration, then proposed as one instance:

* **PreAccept** is sent to the other replicas of the fast quorum with the
  leader's sequence number.
* Each replica records the instance and replies; once a fast quorum has
  replied the leader commits on the **fast path**, after one round trip.
* **Commit** is broadcast to every replica; each replica executes the batch
  and the command leader answers its clients.

The contract is the paper's setting (§8): commands do not interfere.
Interfering commands are outside this implementation.  It keeps no
dependencies, so it has no Accept (slow) phase, and each replica applies
an instance when its commit arrives.  ROADMAP "EPaxos reports a commit
order no replica applied" records what that leaves out.

Latency probing (pick the closest quorum) and the thrifty optimization
(send PreAccept only to a quorum rather than everyone) are implemented as
configuration switches to match the paper's setup (§8.2: probing on,
thrifty off).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.epaxos.messages import Commit, InstanceId, PreAccept, PreAcceptOK
from repro.kvstore.store import KVStore
from repro.runtime.base import Runtime, Timer
from repro.runtime.messages import ClientReply, ClientRequest, RequestType

__all__ = ["EPaxosConfig", "EPaxosNode"]


@dataclass
class EPaxosConfig:
    """EPaxos tuning knobs used by the paper's evaluation."""

    #: Requests are delayed up to this long to form larger batches (§8.1
    #: evaluates 5 ms and 2 ms).
    batch_duration_s: float = 0.005
    #: Maximum number of commands per instance.
    max_batch_size: int = 1000
    #: Send PreAccept only to a bare quorum (paper disables this).
    thrifty: bool = False
    #: Prefer the lowest-latency replicas when choosing the quorum.
    latency_probing: bool = True
    #: Probe interval for latency estimation.
    probe_interval_s: float = 0.5


@dataclass(slots=True)
class _Instance:
    instance: InstanceId
    commands: Tuple[ClientRequest, ...]
    seq: int
    status: str = "preaccepted"  # preaccepted -> committed -> executed
    #: PreAcceptOKs counted by the command leader; stays 0 at an acceptor.
    preaccept_oks: int = 0
    leader: str = ""


@dataclass(slots=True)
class _Probe:
    sender: str
    sent_at: float

    def wire_size(self) -> int:
        return 16


@dataclass(slots=True)
class _ProbeReply:
    sender: str
    echoed_at: float

    def wire_size(self) -> int:
        return 16


class EPaxosNode:
    """One EPaxos replica."""

    def __init__(
        self,
        runtime: Runtime,
        replicas: Sequence[str],
        config: Optional[EPaxosConfig] = None,
        on_reply: Optional[Callable[[ClientReply], None]] = None,
    ) -> None:
        self.runtime = runtime
        self.transport = runtime.transport
        self.node_id = runtime.node_id
        self.replicas = list(replicas)
        if self.node_id not in self.replicas:
            raise ValueError(f"{self.node_id} is not in the replica set")
        self.config = config or EPaxosConfig()
        self.on_reply = on_reply

        #: The replica executed commands are applied to.
        self.store = KVStore()

        self.instances: Dict[InstanceId, _Instance] = {}
        self.next_slot = 0
        self.max_seq = 0

        self.pending: List[Tuple[str, ClientRequest]] = []
        self._batch_timer: Optional[Timer] = None
        self.request_senders: Dict[int, str] = {}

        #: Replica set minus self, fixed at init: the shared fan-out group
        #: every broadcast reuses (``Transport.broadcast`` memoizes the
        #: filtered destination list per tuple).
        self._peers: Tuple[str, ...] = tuple(r for r in self.replicas if r != self.node_id)
        self.rtt_estimates: Dict[str, float] = {peer: 0.001 for peer in self._peers}
        #: rtt-sorted peers, rebuilt only after an estimate changes (the
        #: sort order decides per-destination send order, which the
        #: modelled CPU/link schedule — and hence the digests — depend on).
        self._sorted_peers: Optional[Tuple[str, ...]] = None
        self._probe_timer: Optional[Timer] = None

        self.stats = {
            "instances_committed": 0,
            "fast_path": 0,
            "commands_executed": 0,
            "reads_served": 0,
        }
        self.running = False
        self.crashed = False
        #: Observability hook (repro.obs.Tracer) + the protocol label its
        #: phase spans carry; None = off, costing one attribute load per
        #: instrumented point.  Installed by ``repro.obs.attach_tracer``.
        self._obs = None
        self._obs_proto = "epaxos"
        #: Per-type handler table; replaces the isinstance chain on the
        #: delivery hot path (exact-type dispatch is safe because protocol
        #: messages are concrete final classes).
        self._dispatch: Dict[type, Callable[[str, object], None]] = {
            ClientRequest: self._on_client_request,
            PreAccept: self._on_preaccept,
            PreAcceptOK: self._on_preaccept_ok,
            Commit: self._on_commit,
            _Probe: self._on_probe,
            _ProbeReply: self._on_probe_reply,
        }
        runtime.set_handler(self.on_message)

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.running:
            return
        self.running = True
        if self.config.latency_probing:
            self._probe_timer = self.runtime.periodic(self.config.probe_interval_s, self._send_probes)
            self._send_probes()

    def stop(self) -> None:
        self.running = False
        if self._batch_timer is not None:
            self._batch_timer.cancel()
            self._batch_timer = None
        if self._probe_timer is not None:
            self._probe_timer.cancel()
            self._probe_timer = None

    # ------------------------------------------------------------------
    def peers(self) -> Tuple[str, ...]:
        return self._peers

    def fast_quorum_size(self) -> int:
        """Fast-quorum size F + floor((F+1)/2) with N = 2F+1 replicas."""
        failures = (len(self.replicas) - 1) // 2
        return failures + (failures + 1) // 2

    def _quorum_peers(self, size: int) -> Tuple[str, ...]:
        peers = self._peers
        if self.config.latency_probing:
            peers = self._sorted_peers
            if peers is None:
                estimates = self.rtt_estimates
                peers = self._sorted_peers = tuple(
                    sorted(self._peers, key=lambda p: estimates.get(p, 1.0))
                )
        if self.config.thrifty:
            return peers[:size]
        return peers

    # ------------------------------------------------------------------
    # Client intake and batching
    # ------------------------------------------------------------------
    def submit(self, request: ClientRequest, sender: Optional[str] = None) -> None:
        self._on_client_request(sender or self.node_id, request)

    def _on_client_request(self, sender: str, request: ClientRequest) -> None:
        request.submitted_at = request.submitted_at or self.runtime.now()
        self.request_senders[request.request_id] = sender
        self.pending.append((sender, request))
        if len(self.pending) >= self.config.max_batch_size:
            self._flush_batch()
        elif self._batch_timer is None:
            self._batch_timer = self.runtime.after(self.config.batch_duration_s, self._flush_batch)

    def _flush_batch(self) -> None:
        if self._batch_timer is not None:
            self._batch_timer.cancel()
            self._batch_timer = None
        if not self.pending or self.crashed:
            return
        batch, self.pending = self.pending, []
        commands = tuple(request for _, request in batch)
        self._propose(commands)

    # ------------------------------------------------------------------
    # Leader side
    # ------------------------------------------------------------------
    def _propose(self, commands: Tuple[ClientRequest, ...]) -> None:
        self.next_slot += 1
        instance_id = InstanceId(replica=self.node_id, slot=self.next_slot)
        self.max_seq += 1
        seq = self.max_seq
        instance = _Instance(instance=instance_id, commands=commands, seq=seq, leader=self.node_id)
        self.instances[instance_id] = instance
        if self._obs is not None:
            self._obs.phase_begin(
                self._obs_proto, "preaccept", self.node_id, key=instance_id,
                request_ids=[command.request_id for command in commands],
            )
        message = PreAccept(instance=instance_id, commands=commands, seq=seq)
        self.transport.broadcast(
            self._quorum_peers(self.fast_quorum_size()), message, message.wire_size()
        )
        if len(self.replicas) == 1:
            self._commit_instance(instance)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def on_message(self, sender: str, message: object) -> None:
        if self.crashed:
            return
        handler = self._dispatch.get(message.__class__)
        if handler is not None:
            handler(sender, message)

    def _on_probe(self, sender: str, message: _Probe) -> None:
        reply = _ProbeReply(sender=self.node_id, echoed_at=message.sent_at)
        self.transport.send(sender, reply, reply.wire_size())

    def _on_probe_reply(self, sender: str, message: _ProbeReply) -> None:
        rtt = self.runtime.now() - message.echoed_at
        previous = self.rtt_estimates.get(sender, rtt)
        self.rtt_estimates[sender] = 0.8 * previous + 0.2 * rtt
        self._sorted_peers = None  # rtt order may have changed

    # -- Acceptor side ---------------------------------------------------
    def _on_preaccept(self, sender: str, message: PreAccept) -> None:
        # The leader's sequence number stands; this replica only raises its
        # own, so the instances it leads later order after this one.
        seq = message.seq
        if seq > self.max_seq:
            self.max_seq = seq
        instance_id = message.instance
        self.instances[instance_id] = _Instance(
            instance=instance_id, commands=message.commands, seq=seq, leader=sender
        )
        reply = PreAcceptOK(instance=instance_id)
        self.transport.send(sender, reply, reply.wire_size())

    def _on_preaccept_ok(self, sender: str, message: PreAcceptOK) -> None:
        instance = self.instances.get(message.instance)
        if instance is None or instance.status != "preaccepted" or instance.leader != self.node_id:
            return
        instance.preaccept_oks += 1
        if instance.preaccept_oks < self.fast_quorum_size():
            return
        self.stats["fast_path"] += 1
        self._commit_instance(instance)

    # -- Commit / execute -------------------------------------------------
    def _commit_instance(self, instance: _Instance) -> None:
        if instance.status == "committed":
            return
        instance.status = "committed"
        self.stats["instances_committed"] += 1
        obs = self._obs
        if obs is not None:
            proto = self._obs_proto
            obs.phase_end(proto, "preaccept", self.node_id, key=instance.instance)
            obs.phase_point(
                proto, "commit", self.node_id, key=instance.instance,
                request_ids=[command.request_id for command in instance.commands],
            )
        # One interned Commit for the whole fan-out: the message object, its
        # wire size, and the network-level packet schedule are shared.
        commit = Commit(instance=instance.instance, commands=instance.commands, seq=instance.seq)
        self.transport.broadcast(self._peers, commit, commit.wire_size())
        self._execute(instance, reply_to_clients=True)

    def _on_commit(self, sender: str, message: Commit) -> None:
        instance = self.instances.get(message.instance)
        if instance is None:
            instance = _Instance(
                instance=message.instance,
                commands=message.commands,
                seq=message.seq,
                leader=message.instance.replica,
            )
            self.instances[message.instance] = instance
        instance.status = "committed"
        self._execute(instance, reply_to_clients=False)

    def _execute(self, instance: _Instance, reply_to_clients: bool) -> None:
        if instance.status == "executed":
            return
        instance.status = "executed"
        apply = self._apply
        reads = 0
        for command in instance.commands:
            value = apply(command)
            if command.op is RequestType.READ:
                reads += 1
            if reply_to_clients:
                sender = self.request_senders.pop(command.request_id, None)
                reply = ClientReply(
                    request_id=command.request_id,
                    client_id=command.client_id,
                    op=command.op,
                    key=command.key,
                    value=value,
                    committed_cycle=instance.instance.slot,
                    completed_at=self.runtime.now(),
                    server_id=self.node_id,
                )
                if self.on_reply is not None:
                    self.on_reply(reply)
                if sender is not None and sender != self.node_id:
                    self.transport.send(sender, reply, reply.wire_size())
        stats = self.stats
        stats["commands_executed"] += len(instance.commands)
        stats["reads_served"] += reads

    # ------------------------------------------------------------------
    def _apply(self, command: ClientRequest) -> Optional[str]:
        if command.is_write():
            return self.store.write(command.key, command.value or "")
        return self.store.read(command.key)

    def _send_probes(self) -> None:
        if self.crashed:
            return
        probe = _Probe(sender=self.node_id, sent_at=self.runtime.now())
        self.transport.broadcast(self._peers, probe, probe.wire_size())

    def executed_commands(self) -> List[int]:
        """Request ids of the executed instances' commands, instances sorted
        by ``(seq, instance)``.

        That is not the order this replica applied them in (it applies each
        instance when its commit arrives), and it is not append-only: see
        ROADMAP "EPaxos reports a commit order no replica applied".
        """
        ids: List[int] = []
        for instance in sorted(self.instances.values(), key=lambda i: (i.seq, i.instance)):
            if instance.status == "executed":
                ids.extend(command.request_id for command in instance.commands)
        return ids
