"""The Canopus node state machine (§4–§7).

A :class:`CanopusNode` is purely reactive: all state transitions happen in
response to a delivered message or a timer.  The node participates in a
sequence of *consensus cycles*; each cycle runs ``h`` rounds (h = LOT
height):

* **Round 1** — the node reliably broadcasts a proposal carrying its
  pending client writes, its pending membership updates and a fresh random
  proposal number to its super-leaf peers.  When proposals from every live
  peer have been delivered, the node merges them into the state of the
  super-leaf's parent vnode.  A *void* proposal (nothing pending) is sent
  without agreement: it adds nothing to the state, so peers need not agree
  on whether they saw it.
* **Round i > 1** — super-leaf representatives fetch the states of the
  sibling vnodes under the node's height-*i* ancestor from one of their
  emulators (a pnode in that subtree) and pass them on locally, again
  without agreement — a vnode has one state per cycle, whoever serves it;
  once all children states are present, the node merges them into the
  height-*i* ancestor's state.  The requests leave when round *i-1* starts;
  the emulator holds them until it has computed the state.
* After round *h* the root state is the total order of every write received
  anywhere in the group during the previous cycle.  Cycles commit strictly
  in order; on commit, writes are applied to the local replica, pending
  reads whose linearization point has passed are answered locally, and
  membership updates are applied to the emulation table.

Self-synchronization (§4.4), pipelining (§7.1) and read linearization by
delay (§5) are implemented here, delegating bookkeeping to the sibling
modules.  The write-lease read optimization (§7.2) is not: every read
waits for the commit of the last cycle the node started, or needs none.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.broadcast.raft_broadcast import RaftBroadcast
from repro.canopus.config import PROPOSAL_NUMBER_BITS, REPRESENTATIVES_PER_SUPER_LEAF, CanopusConfig
from repro.canopus.cycle import CycleState, FetchState
from repro.canopus.linearizer import ReadLinearizer
from repro.canopus.lot import EmulationTable, LeafOnlyTree
from repro.canopus.membership import FailureDetector, Heartbeat, JoinRequest, MembershipManager
from repro.canopus.messages import MembershipUpdate, Proposal, ProposalRequest
from repro.canopus.proposal import merge_proposals
from repro.runtime.base import TIMER_SLACK_S, Runtime, Timer
from repro.runtime.messages import NOT_IN_VIEW, ClientReply, ClientRequest

__all__ = ["CanopusNode", "CommittedCycle"]


class CommittedCycle:
    """Record of one committed consensus cycle (the unit of the commit log)."""

    __slots__ = ("cycle_id", "requests", "committed_at")

    def __init__(self, cycle_id: int, requests: Tuple[ClientRequest, ...], committed_at: float) -> None:
        self.cycle_id = cycle_id
        self.requests = requests
        self.committed_at = committed_at

    def __repr__(self) -> str:
        return f"<CommittedCycle {self.cycle_id} |reqs|={len(self.requests)}>"


class CanopusNode:
    """One Canopus participant (a pnode of the LOT)."""

    def __init__(
        self,
        runtime: Runtime,
        lot: LeafOnlyTree,
        config: Optional[CanopusConfig] = None,
        apply_write: Optional[Callable[[ClientRequest], Optional[str]]] = None,
        apply_read: Optional[Callable[[ClientRequest], Optional[str]]] = None,
        on_reply: Optional[Callable[[ClientReply], None]] = None,
    ) -> None:
        self.runtime = runtime
        self.transport = runtime.transport
        self.node_id = runtime.node_id
        self.lot = lot
        self.config = config or CanopusConfig()
        self.config.validate()

        self.super_leaf = lot.super_leaf_of(self.node_id)
        self.parent_vnode = self.super_leaf.parent_vnode
        self.emulation_table: EmulationTable = lot.new_emulation_table()
        self.live_members: Set[str] = set(self.super_leaf.members)

        # Replicated-state-machine hooks.  By default the node keeps a
        # plain dict replica so it is usable standalone.
        self._default_store: Dict[str, str] = {}
        self.apply_write = apply_write or self._default_apply_write
        self.apply_read = apply_read or self._default_apply_read
        self.on_reply = on_reply

        # Request intake.
        self.pending_writes: List[ClientRequest] = []
        #: Clients with a write in ``pending_writes`` (see :meth:`_handle_read`).
        self._pending_write_clients: Set[str] = set()
        self.request_senders: Dict[int, str] = {}
        self.linearizer = ReadLinearizer()
        #: Reads that arrived while the view lease was lapsed, ``(sender,
        #: request)`` by request id; see :meth:`_hold_read`.
        self._reads_out_of_view: Dict[int, Tuple[str, ClientRequest]] = {}

        # Consensus cycle state.
        self.cycles: Dict[int, CycleState] = {}
        self.last_started_cycle = 0
        self.last_committed_cycle = 0
        self.commit_log: List[CommittedCycle] = []

        # Statistics used by benchmarks.
        self.stats: Dict[str, int] = {
            "reads_served": 0,
            "writes_committed": 0,
            "cycles_committed": 0,
            "proposal_requests_sent": 0,
            "proposal_requests_served": 0,
            "fetch_retries": 0,
            "empty_cycles": 0,
        }

        # Membership machinery.
        self.membership = MembershipManager(self.super_leaf.name)
        self.failure_detector = FailureDetector(
            runtime=runtime,
            peers=self.super_leaf.peers_of(self.node_id),
            heartbeat_interval_s=self.config.heartbeat_interval_s,
            failure_timeout_s=self.config.failure_timeout_s(),
            on_failure=self._on_peer_failure,
            on_in_view=self._readmit_reads,
        )

        # Reliable broadcast within the super-leaf.
        self.broadcast = RaftBroadcast(
            runtime,
            self.super_leaf.members,
            self._on_broadcast_delivery,
            self._on_broadcast_first_sight,
        )

        self._cycle_timer: Optional[Timer] = None
        #: Earliest start of the next locally initiated cycle (non-pipelined).
        self._next_cycle_at = 0.0
        self.running = False
        self.crashed = False

        #: Observability hook (repro.obs.Tracer) + the protocol label its
        #: phase spans carry ("canopus" / "zkcanopus", set by the adapter's
        #: attach_tracer); None = off, one attribute load per point.
        self._obs = None
        self._obs_proto = "canopus"

        #: Per-type handler table, the one route a delivery takes: the
        #: broadcast layer's classes go straight to it.  A class listed
        #: nowhere is ignored.
        self._dispatch = {
            ClientRequest: self._on_client_request,
            ProposalRequest: self._on_proposal_request,
            # Direct (non-broadcast) proposal: a reply to a proposal-request.
            Proposal: self._on_fetched_proposal,
            Heartbeat: self.failure_detector.on_message,
            JoinRequest: self._on_join_request,
            **dict.fromkeys(self.broadcast.message_types, self.broadcast.on_message),
        }
        #: The detector's last-seen map, stored into by :meth:`on_message`.
        self._last_seen = self.failure_detector.last_seen
        #: Round r >= 2 merges the children of this node's height-r ancestor
        #: (a vnode above height 1 always has some): ``(ancestor, children)``
        #: by round.  The LOT's shape never changes; membership changes only
        #: the emulation table.
        self._round_vnodes: Dict[int, Tuple[str, Tuple[str, ...]]] = {}
        for round_number in range(2, lot.rounds() + 1):
            ancestor = lot.ancestor_at_height(self.node_id, round_number)
            self._round_vnodes[round_number] = (ancestor, tuple(lot.children_of(ancestor)))

        runtime.set_handler(self.on_message)

    # ==================================================================
    # Lifecycle
    # ==================================================================
    def start(self) -> None:
        """Start background timers (failure detector, pipelining clock)."""
        if self.running:
            return
        self.running = True
        self.failure_detector.start()
        if self.config.pipelining:
            self._cycle_timer = self.runtime.periodic(self.config.cycle_interval_s, self._on_cycle_timer)

    def stop(self) -> None:
        self.running = False
        self.failure_detector.stop()
        if self._cycle_timer is not None:
            self._cycle_timer.cancel()
            self._cycle_timer = None
        self.broadcast.stop()

    # ==================================================================
    # Representatives
    # ==================================================================
    def representatives(self, cycle_id: int) -> List[str]:
        """This super-leaf's representatives in ``cycle_id`` (§4.5).

        Duty rotates over the live members with the cycle id; because every
        member has the same live view at cycle boundaries, this needs no
        extra communication.
        """
        return LeafOnlyTree.representatives(
            cycle_id, self.live_members, REPRESENTATIVES_PER_SUPER_LEAF
        )

    def is_representative(self, cycle_id: int) -> bool:
        return self.node_id in self.representatives(cycle_id)

    # ==================================================================
    # Message handling
    # ==================================================================
    def on_message(self, sender: str, message: Any) -> None:
        """Single entry point for every message delivered to this node."""
        if self.crashed:
            return
        self._last_seen[sender] = self.runtime.now()  # any message is evidence of liveness
        handler = self._dispatch.get(message.__class__)
        if handler is not None:
            handler(sender, message)
        # Unknown messages are ignored (forward compatibility).

    # ------------------------------------------------------------------
    # Client requests
    # ------------------------------------------------------------------
    def submit(self, request: ClientRequest, sender: Optional[str] = None) -> None:
        """Submit a client request locally (bypasses the network).

        Replies are delivered through the ``on_reply`` callback; no network
        reply is sent unless an explicit ``sender`` host is given.
        """
        self._on_client_request(sender or self.node_id, request)

    def _on_client_request(self, sender: str, request: ClientRequest) -> None:
        request.submitted_at = request.submitted_at or self.runtime.now()
        if request.is_write():
            # Acknowledged at commit, maybe cycles from now; a read's sender
            # travels with the read (:class:`PendingRead`).
            self.request_senders[request.request_id] = sender
            self.pending_writes.append(request)
            self._pending_write_clients.add(request.client_id)
            if len(self.pending_writes) >= self.config.max_batch_size:
                self._maybe_start_next_cycle(reason="batch-full")
            else:
                self._prompt_cycle()
        else:
            self._handle_read(sender, request)

    def _prompt_cycle(self) -> None:
        """A request now waits for a cycle this node has not started (§4.4):
        start it, unless the batching tick or the pipelining clock will."""
        if not self.config.pipelining or self.last_started_cycle == self.last_committed_cycle:
            self._maybe_start_next_cycle(reason="client-request")

    def _handle_read(self, sender: str, request: ClientRequest) -> None:
        if not self.failure_detector.in_view():
            self._hold_read(sender, request)
            return
        # §5: a read waits for the commit of a cycle that orders every write
        # acknowledged before it, and the last cycle this node started is
        # one while the node is in its super-leaf's view: a write
        # acknowledged anywhere committed in a cycle whose root state holds
        # this node's round-1 proposal — nobody finishes round 1 without it
        # or without excluding this node, and the view lease says nobody has
        # — and this node has broadcast none beyond last_started_cycle.
        # That commit may be behind us: then there is nothing to wait for.
        # The next cycle is needed only by a client whose own write is still
        # waiting here to be proposed (per-client FIFO).
        release_cycle = self.last_started_cycle
        if request.client_id in self._pending_write_clients:
            release_cycle += 1
        if release_cycle <= self.last_committed_cycle:
            self._answer_read(sender, request)
            return
        if self._obs is not None:
            self._obs.phase_begin(
                self._obs_proto, "read_delay", self.node_id, key=request.request_id,
                request_ids=(request.request_id,),
            )
        self.linearizer.defer(request, sender, self.runtime.now(), release_cycle)

    def _answer_read(self, sender: str, request: ClientRequest) -> None:
        """Answer from committed state, in the turn the read arrived."""
        if self._obs is not None:
            self._obs.phase_point(
                self._obs_proto, "read_local", self.node_id, key=request.request_id,
                request_ids=(request.request_id,),
            )
        self._reply_read(sender, request, committed_cycle=self.last_committed_cycle)

    # Out of view — the lease lapsed — the node's peers may have gone on
    # without it, any number of cycles ahead of what it goes on to commit:
    # no cycle of its own bounds what was acknowledged elsewhere.  The read
    # is kept until the view is back, which takes an echo that was late or
    # the commit of a silent peer's delete, and is then judged afresh.  A
    # node that was excluded, or saw every peer deleted, never gets there;
    # after a failure timeout the client is told to ask elsewhere.
    def _hold_read(self, sender: str, request: ClientRequest) -> None:
        self._reads_out_of_view[request.request_id] = (sender, request)
        self.runtime.after(self.config.failure_timeout_s(), lambda: self._refuse_read(request.request_id))
        if self.membership.has_pending:
            self._prompt_cycle()  # the silent peer's delete may be all that is missing

    def _readmit_reads(self) -> None:
        """``FailureDetector.on_in_view``: the lease holds again."""
        held, self._reads_out_of_view = self._reads_out_of_view, {}
        for sender, request in held.values():
            self._handle_read(sender, request)

    def _refuse_read(self, request_id: int) -> None:
        held = self._reads_out_of_view.pop(request_id, None)
        if held is not None:
            self._send_reply(*held, value=None, committed_cycle=None, error=NOT_IN_VIEW)

    def _reply_read(self, sender: str, request: ClientRequest, committed_cycle: int) -> None:
        value = self.apply_read(request)
        self.stats["reads_served"] += 1
        self._send_reply(sender, request, value, committed_cycle)

    def _send_reply(
        self, sender: str, request: ClientRequest, value: Optional[str], committed_cycle: Optional[int],
        error: Optional[str] = None,
    ) -> None:
        reply = ClientReply(
            request_id=request.request_id,
            client_id=request.client_id,
            op=request.op,
            key=request.key,
            value=value,
            committed_cycle=committed_cycle,
            completed_at=self.runtime.now(),
            server_id=self.node_id,
            error=error,
        )
        if self.on_reply is not None:
            self.on_reply(reply)
        if sender and sender != self.node_id:
            self.transport.send(sender, reply, reply.wire_size())

    # ------------------------------------------------------------------
    # Default replica (plain dict) when no external state machine is wired.
    # ------------------------------------------------------------------
    def _default_apply_write(self, request: ClientRequest) -> Optional[str]:
        self._default_store[request.key] = request.value or ""
        return request.value

    def _default_apply_read(self, request: ClientRequest) -> Optional[str]:
        return self._default_store.get(request.key)

    # ==================================================================
    # Consensus cycle management
    # ==================================================================
    def _on_cycle_timer(self) -> None:
        """The cycle clock: periodic when pipelining (§7.1), else the one-shot
        armed by :meth:`_maybe_start_next_cycle` for the rest of the interval."""
        if not self.config.pipelining:
            self._cycle_timer = None
        if not self.running:
            return
        has_work = bool(self.pending_writes) or self.linearizer.pending_count() > 0
        in_progress = self.last_started_cycle > self.last_committed_cycle
        if has_work or in_progress:
            self._maybe_start_next_cycle(reason="timer")

    def _maybe_start_next_cycle(self, reason: str) -> None:
        if self.crashed:
            return
        if self.config.pipelining:
            inflight = self.last_started_cycle - self.last_committed_cycle
            if inflight >= self.config.max_inflight_cycles:
                return
        else:
            if self.last_started_cycle > self.last_committed_cycle:
                return
            # §8.2: a new cycle every cycle_interval_s or once the batch is
            # full.  Requests that arrive sooner wait for the clock, so a
            # faster cycle yields lower latency rather than more cycles.
            wait = self._next_cycle_at - self.runtime.now()
            if wait > TIMER_SLACK_S and reason != "batch-full":
                if self._cycle_timer is None:
                    self._cycle_timer = self.runtime.after(wait, self._on_cycle_timer)
                return
        self._start_cycle(self.last_started_cycle + 1)

    def _start_cycle(self, cycle_id: int) -> None:
        """Start ``cycle_id`` (must be the next cycle in sequence)."""
        if cycle_id != self.last_started_cycle + 1:
            return
        self.last_started_cycle = cycle_id
        state = self.cycles.get(cycle_id)
        if state is None:
            state = self._new_cycle_state(cycle_id)
            self.cycles[cycle_id] = state
        else:
            state.expected_members = set(self.live_members)
        state.started_at = self.runtime.now()
        self._next_cycle_at = state.started_at + self.config.cycle_interval_s

        # Batch pending writes and membership updates into this cycle.
        batch, self.pending_writes = self.pending_writes, []
        self._pending_write_clients.clear()
        updates = tuple(self.membership.take_pending())
        state.own_requests = tuple(batch)
        state.own_membership_updates = updates
        if not batch:
            self.stats["empty_cycles"] += 1
        if self._obs is not None:
            self._obs.phase_begin(
                self._obs_proto, "cycle", self.node_id, key=cycle_id,
                request_ids=[request.request_id for request in batch],
            )

        proposal = Proposal(
            cycle_id=cycle_id,
            round_number=1,
            vnode_id=self.node_id,
            sender=self.node_id,
            proposal_number=self.runtime.rng.getrandbits(PROPOSAL_NUMBER_BITS),
            requests=tuple(batch),
            membership_updates=updates,
        )
        self._enter_round(state, 1)
        # Peers must agree on which requests and updates the cycle orders;
        # a proposal with neither decides nothing and goes out as one copy
        # per peer.  Either way no peer finishes round 1 without this
        # node's copy or excluding this node.
        self.broadcast.broadcast(proposal, agreed=proposal.is_void())
        self._check_round_completion(state)

    def _new_cycle_state(self, cycle_id: int) -> CycleState:
        return CycleState(
            cycle_id=cycle_id,
            total_rounds=self.lot.rounds(),
            expected_members=set(self.live_members),
            started_at=self.runtime.now(),
        )

    def _cycle_state(self, cycle_id: int) -> CycleState:
        """Cycle state for ``cycle_id``, creating a placeholder if needed.

        A placeholder is created when messages for a future cycle arrive
        before this node started that cycle (self-synchronization, §4.4).
        """
        state = self.cycles.get(cycle_id)
        if state is None:
            state = self._new_cycle_state(cycle_id)
            self.cycles[cycle_id] = state
        return state

    def _self_synchronize(self, observed_cycle: int) -> None:
        """React to evidence that a newer cycle is under way (§4.4, §7.1).

        Cycles are always started in sequence: observing cycle ``j >= i+2``
        still only starts cycle ``i+1``.
        """
        while self.last_started_cycle < observed_cycle:
            next_cycle = self.last_started_cycle + 1
            # Bounded in both modes: peers keep a cycle's state for
            # 4 x max_inflight_cycles, so a super-leaf that runs further
            # ahead of a stalled one can no longer serve its fetches.
            inflight = self.last_started_cycle - self.last_committed_cycle
            if inflight >= self.config.max_inflight_cycles:
                break
            self._start_cycle(next_cycle)
            if self.last_started_cycle != next_cycle:
                break

    # ------------------------------------------------------------------
    # Broadcast deliveries (round-1 proposals and fetched states passed on)
    # ------------------------------------------------------------------
    def _on_broadcast_first_sight(self, payload: Any) -> None:
        """A peer's payload arrived but is not yet deliverable (§4.4).

        Only ever starts a cycle sooner; what the cycle orders is decided
        by deliveries.
        """
        if isinstance(payload, Proposal) and payload.cycle_id > self.last_started_cycle:
            self._self_synchronize(payload.cycle_id)

    def _on_broadcast_delivery(self, origin: str, payload: Any) -> None:
        if self.crashed or not isinstance(payload, Proposal):
            return
        proposal = payload
        if proposal.cycle_id <= self.last_committed_cycle:
            return  # a late or repeated copy: the cycle is decided (maybe pruned)
        if proposal.cycle_id > self.last_started_cycle:
            self._self_synchronize(proposal.cycle_id)
        state = self.cycles.get(proposal.cycle_id)
        if state is None:
            state = self._cycle_state(proposal.cycle_id)
        if proposal.round_number == 1:
            if state.record_round1(proposal):
                self._check_round_completion(state)
        else:
            if state.record_vnode_state(proposal):
                self._serve_buffered_requests(state, proposal.vnode_id)
                self._check_round_completion(state)

    # ------------------------------------------------------------------
    # Proposal requests (remote super-leaves asking for vnode state)
    # ------------------------------------------------------------------
    def _pruned(self, cycle_id: int) -> bool:
        """``cycle_id`` committed here and its state is gone: a message for
        it must not bring it back, as nothing would complete or prune it."""
        return cycle_id <= self.last_committed_cycle and cycle_id not in self.cycles

    def _on_proposal_request(self, sender: str, request: ProposalRequest) -> None:
        if self._pruned(request.cycle_id):
            return
        if request.cycle_id > self.last_started_cycle:
            self._self_synchronize(request.cycle_id)
        state = self._cycle_state(request.cycle_id)
        vnode_id = request.vnode_id
        available = state.vnode_states.get(vnode_id)
        if available is not None:
            self._send_vnode_state(sender, state, available)
        else:
            # Buffer until this node finishes the round that computes it
            # (event 3 in Figure 2).
            state.buffer_request(vnode_id, sender)

    def _send_vnode_state(self, requester: str, state: CycleState, vnode_state: Proposal) -> None:
        cached = state.reply_cache.get(vnode_state.vnode_id)
        if cached is None:
            reply = Proposal(
                cycle_id=state.cycle_id,
                round_number=max(2, vnode_state.round_number),
                vnode_id=vnode_state.vnode_id,
                sender=self.node_id,
                proposal_number=vnode_state.proposal_number,
                requests=vnode_state.requests,
                membership_updates=vnode_state.membership_updates,
            )
            cached = state.reply_cache[vnode_state.vnode_id] = (reply, reply.wire_size())
        self.stats["proposal_requests_served"] += 1
        self.transport.send(requester, cached[0], cached[1])

    def _serve_buffered_requests(self, state: CycleState, vnode_id: str) -> None:
        vnode_state = state.vnode_states.get(vnode_id)
        if vnode_state is None:
            return
        for requester in state.drain_buffered(vnode_id):
            self._send_vnode_state(requester, state, vnode_state)

    # ------------------------------------------------------------------
    # Fetched proposals (replies to this node's proposal-requests)
    # ------------------------------------------------------------------
    def _on_fetched_proposal(self, sender: str, proposal: Proposal) -> None:
        if self._obs is not None:
            self._obs.phase_end(
                self._obs_proto, "fetch", self.node_id, key=(proposal.cycle_id, proposal.vnode_id)
            )
        if self._pruned(proposal.cycle_id):
            return
        if proposal.cycle_id > self.last_started_cycle:
            self._self_synchronize(proposal.cycle_id)
        state = self._cycle_state(proposal.cycle_id)
        fetch = state.fetches.get(proposal.vnode_id)
        if fetch is not None and not fetch.satisfied:
            fetch.satisfied = True
            if fetch.timer is not None:
                fetch.timer.cancel()
        if state.has_vnode_state(proposal.vnode_id):
            return
        # Pass the fetched state on to the super-leaf peers.  §4.2 says
        # "reliably broadcast", but there is nothing left to agree on: this
        # is the one state of that vnode in this cycle, whichever emulator
        # served it and whichever peer relays it, so one copy per peer is
        # enough and each member acts on it on arrival (so does this node:
        # the broadcast delivers to the sender).  If this node dies
        # mid-send, whoever inherits the fetch sends it again
        # (:meth:`_begin_fetch_round`).
        self.broadcast.broadcast(proposal, agreed=True)

    # ------------------------------------------------------------------
    # Round progression
    # ------------------------------------------------------------------
    def _check_round_completion(self, state: CycleState) -> None:
        """Advance through as many rounds as the available state allows."""
        progressed = True
        while progressed and not state.completed:
            progressed = False
            round_number = state.current_round
            if round_number == 1:
                if state.round1_complete() and state.round1_proposals:
                    self._complete_round1(state)
                    progressed = True
            else:
                ancestor, children = self._round_vnodes[round_number]
                vnode_states = state.vnode_states
                for child in children:
                    if child not in vnode_states:
                        break
                else:
                    self._complete_round(state, round_number, ancestor, children)
                    progressed = True

    def _complete_round1(self, state: CycleState) -> None:
        proposals = list(state.round1_proposals.values())
        merged = merge_proposals(
            cycle_id=state.cycle_id,
            round_number=2,
            vnode_id=self.parent_vnode,
            sender=self.node_id,
            proposals=proposals,
        )
        state.record_vnode_state(merged)
        self._serve_buffered_requests(state, self.parent_vnode)
        if self.lot.rounds() == 1 or self.parent_vnode == self.lot.ROOT_ID:
            self._finish_rounds(state)
            return
        self._enter_round(state, 2)
        self._check_round_completion(state)

    def _complete_round(
        self, state: CycleState, round_number: int, ancestor: str, children: Tuple[str, ...]
    ) -> None:
        merged = merge_proposals(
            cycle_id=state.cycle_id,
            round_number=round_number + 1,
            vnode_id=ancestor,
            sender=self.node_id,
            proposals=[state.vnode_state(child) for child in children],
        )
        state.record_vnode_state(merged)
        self._serve_buffered_requests(state, ancestor)
        if round_number >= state.total_rounds or ancestor == self.lot.ROOT_ID:
            self._finish_rounds(state)
            return
        self._enter_round(state, round_number + 1)

    def _enter_round(self, state: CycleState, round_number: int) -> None:
        """Start ``round_number`` and send the requests of the round after it.

        A vnode state is asked for one round ahead of its use: the emulator
        buffers the request until it has computed the state (event 3 in
        Figure 2), so the request's hop is off the cycle's critical path.
        """
        if self._obs is not None:
            # round<r> spans tile the cycle; a "fetch" span runs from the
            # request (sent a round early) to the state's arrival, so it
            # overlaps the round before the one that waits on it.
            if round_number > 1:
                self._obs.phase_end(
                    self._obs_proto, f"round{round_number - 1}", self.node_id, key=state.cycle_id
                )
            self._obs.phase_begin(
                self._obs_proto, f"round{round_number}", self.node_id, key=state.cycle_id
            )
        state.current_round = round_number
        if round_number < state.total_rounds:
            self._begin_fetch_round(state, round_number + 1)

    def _finish_rounds(self, state: CycleState) -> None:
        """The last round is done: the cycle commits once its predecessors have."""
        if self._obs is not None:
            self._obs.phase_end(
                self._obs_proto, f"round{state.current_round}", self.node_id, key=state.cycle_id
            )
        state.completed = True
        state.completed_at = self.runtime.now()
        self._try_commit()

    def _begin_fetch_round(self, state: CycleState, round_number: int, inherited: bool = False) -> None:
        """Issue this node's share of the proposal-requests of ``round_number``.

        Also re-run (``inherited``) when the live view changes: the plan is
        a function of the view, so a survivor may inherit a failed peer's
        fetch.  Fetches already issued here are left to their retry timer.
        An inherited fetch whose state this node already holds is answered
        from here: the failed peer passed the state on without agreement,
        so this node may be one of a minority it reached, and the others
        wait for exactly this copy.
        """
        plan = self.lot.fetch_plan(
            self.node_id,
            round_number,
            state.cycle_id,
            self.live_members,
            REPRESENTATIVES_PER_SUPER_LEAF,
            self.config.redundant_fetches,
        )
        for vnode_id, fetchers in plan.items():
            if self.node_id not in fetchers or vnode_id in state.fetches:
                continue
            rank = fetchers.index(self.node_id)
            held = state.vnode_states.get(vnode_id)
            if held is None:
                self._issue_fetch(state, vnode_id, attempt=1, rank=rank)
            elif inherited:
                state.fetches[vnode_id] = FetchState(
                    vnode_id=vnode_id, emulator="", issued_at=self.runtime.now(), rank=rank,
                    satisfied=True,
                )
                self.broadcast.broadcast(held, agreed=True)

    def _issue_fetch(self, state: CycleState, vnode_id: str, attempt: int, rank: int) -> None:
        if state.has_vnode_state(vnode_id) or self.crashed:
            return
        emulators = [
            node
            for node in self.emulation_table.emulators(vnode_id)
            if not self.failure_detector.is_suspected(node)
        ]
        if not emulators:
            # No live emulator known: the consensus process stalls for this
            # super-leaf (§6); retry later in case the table was stale.
            timer = self.runtime.after(
                self.config.fetch_timeout_s,
                lambda: self._issue_fetch(state, vnode_id, attempt + 1, rank),
            )
            state.fetches[vnode_id] = FetchState(
                vnode_id=vnode_id, emulator="", issued_at=self.runtime.now(), attempts=attempt,
                rank=rank, timer=timer,
            )
            return
        emulator = self.lot.emulator_for(
            vnode_id, self.node_id, state.cycle_id, rank + attempt - 1, emulators
        )
        request = ProposalRequest(cycle_id=state.cycle_id, vnode_id=vnode_id, requester=self.node_id)
        if self._obs is not None:
            self._obs.phase_begin(
                self._obs_proto, "fetch", self.node_id, key=(state.cycle_id, vnode_id)
            )
        self.stats["proposal_requests_sent"] += 1
        if attempt > 1:
            self.stats["fetch_retries"] += 1
        self.transport.send(emulator, request, request.wire_size())
        timer = self.runtime.after(
            self.config.fetch_timeout_s,
            lambda: self._on_fetch_timeout(state, vnode_id),
        )
        state.fetches[vnode_id] = FetchState(
            vnode_id=vnode_id,
            emulator=emulator,
            issued_at=self.runtime.now(),
            attempts=attempt,
            rank=rank,
            timer=timer,
        )

    def _on_fetch_timeout(self, state: CycleState, vnode_id: str) -> None:
        fetch = state.fetches.get(vnode_id)
        if fetch is None or fetch.satisfied or state.has_vnode_state(vnode_id) or self.crashed:
            return
        self._issue_fetch(state, vnode_id, attempt=fetch.attempts + 1, rank=fetch.rank)

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def _try_commit(self) -> None:
        """Commit completed cycles strictly in cycle order (§7.1)."""
        while True:
            next_cycle = self.last_committed_cycle + 1
            state = self.cycles.get(next_cycle)
            if state is None or not state.completed or state.committed:
                break
            self._commit_cycle(state)

    def _commit_cycle(self, state: CycleState) -> None:
        root_vnode = self.lot.ROOT_ID if self.lot.rounds() > 1 else self.parent_vnode
        root_state = state.root_state(root_vnode) or state.root_state(self.parent_vnode)
        requests = root_state.requests if root_state is not None else ()
        now = self.runtime.now()
        cycle_id = state.cycle_id

        # Apply writes in the agreed total order.  Every request is a write:
        # reads never enter pending_writes, so no proposal carries one.
        apply_write = self.apply_write
        pop_sender = self.request_senders.pop
        send_reply = self._send_reply
        for request in requests:
            value = apply_write(request)
            sender = pop_sender(request.request_id, None)
            if sender is not None:
                send_reply(sender, request, value, cycle_id)
        self.stats["writes_committed"] += len(requests)

        state.committed = True
        self.last_committed_cycle = cycle_id
        self.commit_log.append(CommittedCycle(cycle_id, tuple(requests), now))
        self.stats["cycles_committed"] += 1
        if self._obs is not None:
            self._obs.phase_end(self._obs_proto, "cycle", self.node_id, key=cycle_id)
            self._obs.phase_point(
                self._obs_proto, "commit", self.node_id, key=cycle_id,
                request_ids=[request.request_id for request in requests],
            )

        # Membership updates agreed in this cycle take effect now (§4.6); a
        # delete may hand reads kept out of view back to _handle_read.
        if root_state is not None and root_state.membership_updates:
            self._apply_membership_updates(root_state.membership_updates)

        # Release reads linearized by this commit (§5).
        for pending in self.linearizer.release_up_to(cycle_id):
            rid = pending.request.request_id
            if self._obs is not None:
                self._obs.phase_end(self._obs_proto, "read_delay", self.node_id, key=rid)
            self._reply_read(pending.sender, pending.request, committed_cycle=cycle_id)

        # Keep the cycle map bounded.
        stale = cycle_id - 4 * self.config.max_inflight_cycles
        if stale in self.cycles:
            del self.cycles[stale]

        # If work accumulated while this cycle ran and no newer cycle is in
        # flight, keep the pipeline moving (§4.2 "initiates the next cycle").
        if self.last_started_cycle == self.last_committed_cycle:
            if self.pending_writes or self.linearizer.pending_count() > 0:
                self._maybe_start_next_cycle(reason="post-commit")

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def _apply_membership_updates(self, updates: Tuple[MembershipUpdate, ...]) -> None:
        self.membership.apply_committed(updates, self.emulation_table, self.live_members)
        for update in updates:
            if update.super_leaf != self.super_leaf.name:
                continue
            if update.action == "delete":
                self.broadcast.remove_peer(update.node_id)
                self.failure_detector.remove_peer(update.node_id)
            elif update.action == "add" and update.node_id != self.node_id:
                self.broadcast.add_peer(update.node_id)
                self.failure_detector.add_peer(update.node_id)

    def _on_peer_failure(self, peer: str) -> None:
        """A super-leaf peer stopped responding: exclude it and queue the update."""
        if peer not in self.live_members:
            return
        self.live_members.discard(peer)
        self.membership.note_failure(peer)
        self.broadcast.remove_peer(peer)
        # Stop waiting for the failed peer in any in-flight round 1, and
        # take over the fetches the new live view assigns to this node —
        # in the cycles this node has finished too: the peer may have died
        # half-way through passing a state on, and a survivor that lacks it
        # is stuck in a cycle this node left behind.
        for state in list(self.cycles.values()):
            if not state.completed:
                state.exclude_member(peer)
                self._check_round_completion(state)
            if state.cycle_id <= self.last_started_cycle:
                # Every round whose requests have gone out: up to the one
                # after the round under way (see _enter_round).
                ahead = min(state.current_round + 1, state.total_rounds)
                for round_number in range(2, ahead + 1):
                    self._begin_fetch_round(state, round_number, inherited=True)
        if self._reads_out_of_view:
            self._prompt_cycle()  # they wait for this peer's delete to commit

    def _on_join_request(self, sender: str, request: JoinRequest) -> None:
        """A node (re)joins this super-leaf; effective after the carrying cycle commits.

        Until then it stays suspected: no heartbeat goes to it, so nothing
        here acknowledges a node that no cycle waits for (see
        :meth:`FailureDetector.in_view`).
        """
        if request.super_leaf != self.super_leaf.name:
            return
        self.membership.note_join(request.node_id)

    def request_join(self) -> None:
        """Ask the live members of our super-leaf to re-admit this node."""
        request = JoinRequest(node_id=self.node_id, super_leaf=self.super_leaf.name)
        self.transport.broadcast(self.super_leaf.peers_of(self.node_id), request, request.wire_size())

    # ==================================================================
    # Introspection
    # ==================================================================
    def committed_requests(self) -> List[ClientRequest]:
        """Flat list of committed requests in total order (for verification)."""
        return [request for cycle in self.commit_log for request in cycle.requests]

    def committed_order(self) -> List[int]:
        """Committed request ids in total order."""
        return [request.request_id for request in self.committed_requests()]

    def __repr__(self) -> str:
        return (
            f"<CanopusNode {self.node_id} leaf={self.super_leaf.name} "
            f"started={self.last_started_cycle} committed={self.last_committed_cycle}>"
        )
