"""EPaxos replica state machine.

Each replica acts as the command leader for the clients attached to it.
Client requests (reads *and* writes — EPaxos sends reads over the network,
which is the key contrast with Canopus) are buffered for the configured
batching duration, then proposed as one instance:

* **PreAccept** is sent to the other replicas of the fast quorum with the
  leader's dependency/sequence attributes.
* Each replica merges the attributes with its own interference records and
  replies; if no replica changed them (guaranteed at the paper's 0% command
  interference) the **fast path** commits after one round trip.
* Otherwise the leader runs the **Accept** phase with the union attributes
  and commits after a second majority round trip (slow path).
* **Commit** is broadcast to every replica; each replica executes the batch
  and the command leader answers its clients.

Latency probing (pick the closest quorum) and the thrifty optimization
(send PreAccept only to a quorum rather than everyone) are implemented as
configuration switches to match the paper's setup (§8.2: probing on,
thrifty off).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.canopus.messages import ClientReply, ClientRequest, RequestType
from repro.epaxos.messages import Accept, AcceptOK, Commit, InstanceId, PreAccept, PreAcceptOK
from repro.runtime.base import Runtime, Timer
from repro.sim.topology import Topology

__all__ = ["EPaxosConfig", "EPaxosNode", "EPaxosCluster", "build_epaxos_sim_cluster"]

#: Shared empty dependency set: at 0% interference every instance carries
#: it, so one interned object serves the whole run.
_EMPTY_DEPS: FrozenSet["InstanceId"] = frozenset()


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
    #: Track per-key interference when computing dependencies.  The paper
    #: evaluates EPaxos with 0% command interference, so the default is off
    #: (every instance takes the fast path); enabling it exercises the
    #: Accept (slow) path under conflicting writes.
    conflict_tracking: bool = False


@dataclass(slots=True)
class _Instance:
    instance: InstanceId
    commands: Tuple[ClientRequest, ...]
    seq: int
    deps: FrozenSet[InstanceId]
    status: str = "preaccepted"  # preaccepted -> accepted -> committed -> executed
    #: Command-leader bookkeeping, created by the code that reads it (the
    #: first PreAcceptOK, the slow path) and dropped at commit.  Every
    #: replica keeps every instance, and acceptors never hold either.
    preaccept_replies: Optional[List[PreAcceptOK]] = None
    accept_oks: Optional[Set[str]] = None
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
        apply_command: Optional[Callable[[ClientRequest], Optional[str]]] = None,
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

        self._store: Dict[str, str] = {}
        self.apply_command = apply_command or self._default_apply

        self.instances: Dict[InstanceId, _Instance] = {}
        self.next_slot = 0
        #: Most recent interfering instance per key, used to compute deps.
        self.key_deps: Dict[str, InstanceId] = {}
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
            "slow_path": 0,
            "commands_executed": 0,
            "reads_served": 0,
        }
        self.running = False
        self.crashed = False
        #: Observability hook (repro.obs.Tracer) + the protocol label its
        #: phase spans carry; None = off, costing one attribute load per
        #: instrumented point.  Installed next to the dispatch table by
        #: ConsensusProtocol.attach_tracer.
        self._obs = None
        self._obs_proto = "epaxos"
        #: Per-type handler table; replaces the isinstance chain on the
        #: delivery hot path (exact-type dispatch is safe because protocol
        #: messages are concrete final classes).
        self._dispatch: Dict[type, Callable[[str, object], None]] = {
            ClientRequest: self._on_client_request,
            PreAccept: self._on_preaccept,
            PreAcceptOK: self._on_preaccept_ok,
            Accept: self._on_accept,
            AcceptOK: self._on_accept_ok,
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

    def crash(self) -> None:
        self.crashed = True
        self.stop()

    # ------------------------------------------------------------------
    def peers(self) -> Tuple[str, ...]:
        return self._peers

    def fast_quorum_size(self) -> int:
        """Fast-quorum size F + floor((F+1)/2) with N = 2F+1 replicas."""
        failures = (len(self.replicas) - 1) // 2
        return failures + (failures + 1) // 2

    def slow_quorum_size(self) -> int:
        return len(self.replicas) // 2

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
        deps = self._compute_deps(commands)
        self.max_seq += 1
        seq = self.max_seq
        instance = _Instance(
            instance=instance_id, commands=commands, seq=seq, deps=deps, leader=self.node_id
        )
        self.instances[instance_id] = instance
        self._record_interference(instance_id, commands)
        if self._obs is not None:
            self._obs.phase_begin(
                self._obs_proto, "preaccept", self.node_id, key=instance_id,
                request_ids=[command.request_id for command in commands],
            )
        message = PreAccept(instance=instance_id, commands=commands, seq=seq, deps=deps)
        self.transport.broadcast(
            self._quorum_peers(self.fast_quorum_size()), message, message.wire_size()
        )
        if len(self.replicas) == 1:
            self._commit_instance(instance)

    def _compute_deps(self, commands: Tuple[ClientRequest, ...]) -> FrozenSet[InstanceId]:
        if not self.config.conflict_tracking:
            return _EMPTY_DEPS
        deps: Set[InstanceId] = set()
        for command in commands:
            if command.is_write():
                existing = self.key_deps.get(command.key)
                if existing is not None:
                    deps.add(existing)
        return frozenset(deps)

    def _record_interference(self, instance_id: InstanceId, commands: Tuple[ClientRequest, ...]) -> None:
        if not self.config.conflict_tracking:
            return
        for command in commands:
            if command.is_write():
                self.key_deps[command.key] = instance_id

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
        deps = message.deps
        if self.config.conflict_tracking:
            key_deps = self.key_deps
            local_deps = set(deps)
            for command in message.commands:
                if command.op is RequestType.WRITE:
                    existing = key_deps.get(command.key)
                    if existing is not None:
                        local_deps.add(existing)
            local_deps.discard(message.instance)
            # Value comparison between set and frozenset; when nothing was
            # added or discarded the leader's frozenset is reused as-is
            # (no rebuild) — the dominant case at 0% interference.
            changed = local_deps != deps
            if changed:
                deps = frozenset(local_deps)
        else:
            # No interference tracking: this replica never adds deps, and
            # the leader never lists an instance in its own deps, so the
            # attributes pass through untouched.
            changed = False
        # The sequence number only grows when this replica knows of
        # interfering commands the leader missed (EPaxos §4.3.1); with the
        # paper's 0% interference workload it never changes.
        seq = max(message.seq, self.max_seq + 1) if changed else message.seq
        if seq > self.max_seq:
            self.max_seq = seq
        instance_id = message.instance
        instance = _Instance(
            instance=instance_id,
            commands=message.commands,
            seq=seq,
            deps=deps,
            status="preaccepted",
            leader=sender,
        )
        self.instances[instance_id] = instance
        if self.config.conflict_tracking:
            self._record_interference(instance_id, message.commands)
        reply = PreAcceptOK(
            instance=instance_id,
            replica=self.node_id,
            seq=seq,
            deps=deps,
            changed=changed,
        )
        self.transport.send(sender, reply, reply.wire_size())

    def _on_preaccept_ok(self, sender: str, message: PreAcceptOK) -> None:
        instance = self.instances.get(message.instance)
        if instance is None or instance.status != "preaccepted" or instance.leader != self.node_id:
            return
        replies = instance.preaccept_replies
        if replies is None:
            replies = instance.preaccept_replies = []
        replies.append(message)
        needed = self.fast_quorum_size()
        if len(replies) < needed:
            return
        fast = True
        for i in range(needed):
            if replies[i].changed:
                fast = False
                break
        if fast:
            self.stats["fast_path"] += 1
            self._commit_instance(instance)
        else:
            replies = replies[:needed]
            # Slow path: union attributes and run the Accept phase.
            union_deps: Set[InstanceId] = set(instance.deps)
            seq = instance.seq
            for reply in replies:
                union_deps |= set(reply.deps)
                seq = max(seq, reply.seq)
            instance.deps = frozenset(union_deps)
            instance.seq = seq
            instance.status = "accepted"
            instance.accept_oks = set()
            if self._obs is not None:
                self._obs.phase_end(self._obs_proto, "preaccept", self.node_id, key=instance.instance)
                self._obs.phase_begin(self._obs_proto, "accept", self.node_id, key=instance.instance)
            message_out = Accept(
                instance=instance.instance, commands=instance.commands, seq=seq, deps=instance.deps
            )
            self.transport.broadcast(
                self._quorum_peers(self.slow_quorum_size()), message_out, message_out.wire_size()
            )

    def _on_accept(self, sender: str, message: Accept) -> None:
        instance = self.instances.get(message.instance)
        if instance is None:
            instance = _Instance(
                instance=message.instance,
                commands=message.commands,
                seq=message.seq,
                deps=message.deps,
                leader=sender,
            )
            self.instances[message.instance] = instance
        instance.seq = message.seq
        instance.deps = message.deps
        instance.status = "accepted"
        reply = AcceptOK(instance=message.instance, replica=self.node_id)
        self.transport.send(sender, reply, reply.wire_size())

    def _on_accept_ok(self, sender: str, message: AcceptOK) -> None:
        instance = self.instances.get(message.instance)
        if instance is None or instance.status != "accepted" or instance.leader != self.node_id:
            return
        instance.accept_oks.add(message.replica)
        if len(instance.accept_oks) >= self.slow_quorum_size():
            self.stats["slow_path"] += 1
            self._commit_instance(instance)

    # -- Commit / execute -------------------------------------------------
    def _commit_instance(self, instance: _Instance) -> None:
        if instance.status == "committed":
            return
        instance.status = "committed"
        instance.preaccept_replies = instance.accept_oks = None
        self.stats["instances_committed"] += 1
        obs = self._obs
        if obs is not None:
            proto = self._obs_proto
            obs.phase_end(proto, "preaccept", self.node_id, key=instance.instance)
            obs.phase_end(proto, "accept", self.node_id, key=instance.instance)
            obs.phase_point(
                proto, "commit", self.node_id, key=instance.instance,
                request_ids=[command.request_id for command in instance.commands],
            )
        # One interned Commit for the whole fan-out: the message object, its
        # wire size, and the network-level packet schedule are shared.
        commit = Commit(
            instance=instance.instance,
            commands=instance.commands,
            seq=instance.seq,
            deps=instance.deps,
        )
        self.transport.broadcast(self._peers, commit, commit.wire_size())
        self._execute(instance, reply_to_clients=True)

    def _on_commit(self, sender: str, message: Commit) -> None:
        instance = self.instances.get(message.instance)
        if instance is None:
            instance = _Instance(
                instance=message.instance,
                commands=message.commands,
                seq=message.seq,
                deps=message.deps,
                leader=message.instance.replica,
            )
            self.instances[message.instance] = instance
        instance.status = "committed"
        self._execute(instance, reply_to_clients=False)

    def _execute(self, instance: _Instance, reply_to_clients: bool) -> None:
        if instance.status == "executed":
            return
        instance.status = "executed"
        apply_command = self.apply_command
        reads = 0
        for command in instance.commands:
            value = apply_command(command)
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
    def _default_apply(self, command: ClientRequest) -> Optional[str]:
        if command.is_write():
            self._store[command.key] = command.value or ""
            return command.value
        return self._store.get(command.key)

    def _send_probes(self) -> None:
        if self.crashed:
            return
        probe = _Probe(sender=self.node_id, sent_at=self.runtime.now())
        self.transport.broadcast(self._peers, probe, probe.wire_size())

    def executed_commands(self) -> List[int]:
        """Request ids of executed commands (order is per-replica arrival)."""
        ids: List[int] = []
        for instance in sorted(self.instances.values(), key=lambda i: (i.seq, i.instance)):
            if instance.status == "executed":
                ids.extend(command.request_id for command in instance.commands)
        return ids


@dataclass
class EPaxosCluster:
    """A set of EPaxos replicas."""

    nodes: Dict[str, EPaxosNode] = field(default_factory=dict)
    config: EPaxosConfig = field(default_factory=EPaxosConfig)

    def start(self) -> None:
        for node in self.nodes.values():
            node.start()

    def stop(self) -> None:
        for node in self.nodes.values():
            node.stop()

    def node(self, node_id: str) -> EPaxosNode:
        return self.nodes[node_id]

    def node_ids(self) -> List[str]:
        return list(self.nodes.keys())


def build_epaxos_sim_cluster(
    topology: Topology,
    config: Optional[EPaxosConfig] = None,
    on_reply: Optional[Callable[[ClientReply], None]] = None,
) -> EPaxosCluster:
    """Place one EPaxos replica on every server host of ``topology``."""
    config = config or EPaxosConfig()
    replicas = topology.server_hosts
    cluster = EPaxosCluster(config=config)
    for node_id in replicas:
        runtime = topology.make_runtime(node_id)
        cluster.nodes[node_id] = EPaxosNode(runtime, replicas, config=config, on_reply=on_reply)
    return cluster
