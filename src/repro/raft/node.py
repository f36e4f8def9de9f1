"""A Raft consensus node (leader election + log replication).

The implementation follows the Raft paper's Figure 2 rules, with one
addition outside them: :meth:`RaftNode.propose` can make an *unacknowledged
append*, an entry applied where and when it is appended rather than when it
commits, for commands that need the log's transport and repair but not its
agreement.  A node is a transport-agnostic state machine driven through
:meth:`RaftNode.on_message` and timer callbacks scheduled on a
:class:`repro.runtime.base.Runtime`.

Multiple :class:`RaftNode` instances can share one runtime endpoint by
giving each a distinct ``group_id`` — messages are tagged and the owner
demultiplexes by that tag (:meth:`RaftNode.handles` tests it).  Its one
user is Canopus' super-leaf reliable broadcast
(:mod:`repro.broadcast.raft_broadcast`, §4.3), which runs one group per
super-leaf member.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.raft.log import LogEntry, RaftLog
from repro.raft.messages import AppendEntries, AppendEntriesReply, RequestVote, RequestVoteReply
from repro.runtime.base import TIMER_SLACK_S, Runtime, Timer

__all__ = ["Role", "RaftConfig", "RaftNode"]


class Role(enum.Enum):
    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    LEADER = "leader"


@dataclass
class RaftConfig:
    """Timing parameters; defaults suit a rack-local group."""

    heartbeat_interval_s: float = 0.02
    election_timeout_min_s: float = 0.1
    election_timeout_max_s: float = 0.2
    #: If set, this node starts as the group's leader without an election.
    #: Canopus uses this: each super-leaf member is the initial leader of
    #: its own broadcast group (§4.3).
    initial_leader: Optional[str] = None


class RaftNode:
    """One member of one Raft group."""

    def __init__(
        self,
        runtime: Runtime,
        group_id: str,
        members: Sequence[str],
        apply: Callable[[LogEntry], None],
        config: Optional[RaftConfig] = None,
    ) -> None:
        self.runtime = runtime
        self.transport = runtime.transport
        self.node_id = runtime.node_id
        self.group_id = group_id
        self.members: List[str] = list(members)
        if self.node_id not in self.members:
            raise ValueError(f"{self.node_id} is not a member of group {group_id}")
        #: ``members`` without this node, kept in step by add/remove_member.
        self._peers: List[str] = [m for m in self.members if m != self.node_id]
        self.apply = apply
        self.config = config or RaftConfig()

        # Persistent state.
        self.current_term = 0
        self.voted_for: Optional[str] = None
        self.log = RaftLog()

        # Volatile state.
        self.role = Role.FOLLOWER
        self.commit_index = 0
        self.last_applied = 0
        self.leader_id: Optional[str] = None
        self.next_index: Dict[str, int] = {}
        self.match_index: Dict[str, int] = {}
        self._votes: set = set()

        self._election_timer: Optional[Timer] = None
        #: When the election fires unless reset again, and when the live
        #: timer fires; the timer re-arms itself for the difference.
        self._election_deadline = 0.0
        self._election_timer_at = 0.0
        self._heartbeat_timer: Optional[Timer] = None
        self.stopped = False
        #: Per-type handler table replacing the delivery isinstance chain.
        self._dispatch = {
            RequestVote: self._on_request_vote,
            RequestVoteReply: self._on_request_vote_reply,
            AppendEntries: self._on_append_entries,
            AppendEntriesReply: self._on_append_entries_reply,
        }

        if self.config.initial_leader == self.node_id:
            self._become_leader(initial=True)
        else:
            self._reset_election_timer()
            if self.config.initial_leader is not None:
                self.leader_id = self.config.initial_leader

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def is_leader(self) -> bool:
        return self.role is Role.LEADER

    def peers(self) -> List[str]:
        """The other members, in ``members`` order (shared list: do not mutate)."""
        return self._peers

    def majority(self) -> int:
        return len(self.members) // 2 + 1

    def propose(self, command: Any, acknowledged: bool = True) -> Optional[LogEntry]:
        """Append ``command`` if leader; returns the entry or ``None``.

        ``acknowledged=False`` is an *unacknowledged append*, for a command
        whose content needs no agreement (the caller vouches that every
        copy of it anywhere is the same and that acting on it early is
        safe).  It is applied here at once and at each follower the moment
        the follower appends it, and it costs one message per follower: the
        entry is shipped without ``probe``, so a follower that accepts it
        stays silent.  It is still an entry of the log: the commit index
        passes it with the next acknowledged entry or heartbeat (applying
        nothing a second time), and a follower that missed it fails the
        next consistency check and is resent it like any other entry.  What
        it gives up: an entry held by a minority can be lost with its
        leader, after that minority has applied it.
        """
        if self.stopped or not self.is_leader:
            return None
        entry = self.log.append_new(self.current_term, command, acknowledged)
        self.match_index[self.node_id] = entry.index
        self._replicate_to_all(silent=not acknowledged)
        if not acknowledged:
            self.apply(entry)  # after shipping: applying may propose again
        if len(self.members) == 1:
            self._advance_commit_index()
        return entry

    def handles(self, message: Any) -> bool:
        return message.__class__ in self._dispatch and message.group_id == self.group_id

    def stop(self) -> None:
        """Stop timers; used on shutdown or when the group is disbanded."""
        self.stopped = True
        if self._election_timer:
            self._election_timer.cancel()
        if self._heartbeat_timer:
            self._heartbeat_timer.cancel()

    def remove_member(self, member: str) -> None:
        """Drop a crashed member from the group view."""
        if member in self.members and member != self.node_id:
            self.members.remove(member)
            self._peers.remove(member)
            self.next_index.pop(member, None)
            self.match_index.pop(member, None)
            if self.is_leader:
                self._advance_commit_index()

    def add_member(self, member: str) -> None:
        """Admit a (re)joined member; it is caught up from the log's end."""
        if member not in self.members:
            self.members.append(member)
            self._peers.append(member)
            self.next_index[member] = self.log.last_index + 1
            self.match_index[member] = 0

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def on_message(self, sender: str, message: Any) -> None:
        if self.stopped:
            return
        handler = self._dispatch.get(message.__class__)
        if handler is not None:
            handler(message)

    # -- Elections ------------------------------------------------------
    def _reset_election_timer(self) -> None:
        # One live timer and a deadline: a follower resets on every
        # AppendEntries, and a cancel + re-arm per reset would leave that
        # many dead long timers in the event queue.  The timer is only
        # replaced when the new deadline falls before it.
        # random.uniform(low, high), spelled out to save its frame: the same
        # draw from the node's stream, which Canopus proposal numbers share.
        low = self.config.election_timeout_min_s
        timeout = low + (self.config.election_timeout_max_s - low) * self.runtime.rng.random()
        self._election_deadline = self.runtime.now() + timeout
        if self._election_timer is not None:
            if self._election_timer_at <= self._election_deadline:
                return
            self._election_timer.cancel()
        self._arm_election_timer(timeout)

    def _arm_election_timer(self, delay: float) -> None:
        self._election_timer_at = self.runtime.now() + delay
        self._election_timer = self.runtime.after(delay, self._on_election_timeout)

    def _on_election_timeout(self) -> None:
        self._election_timer = None
        if self.stopped or self.is_leader:
            return
        remaining = self._election_deadline - self.runtime.now()
        if remaining > TIMER_SLACK_S:
            self._arm_election_timer(remaining)
            return
        self._start_election()

    def _start_election(self) -> None:
        self.role = Role.CANDIDATE
        self.current_term += 1
        self.voted_for = self.node_id
        self._votes = {self.node_id}
        self.leader_id = None
        self._reset_election_timer()
        if len(self.members) == 1 or len(self._votes) >= self.majority():
            self._become_leader()
            return
        request = RequestVote(
            group_id=self.group_id,
            term=self.current_term,
            candidate_id=self.node_id,
            last_log_index=self.log.last_index,
            last_log_term=self.log.last_term,
        )
        self.transport.broadcast(self.peers(), request, request.wire_size())

    def _on_request_vote(self, message: RequestVote) -> None:
        if message.term > self.current_term:
            self._step_down(message.term)
        grant = False
        if message.term == self.current_term and self.voted_for in (None, message.candidate_id):
            log_ok = (message.last_log_term, message.last_log_index) >= (
                self.log.last_term,
                self.log.last_index,
            )
            if log_ok:
                grant = True
                self.voted_for = message.candidate_id
                self._reset_election_timer()
        reply = RequestVoteReply(
            group_id=self.group_id,
            term=self.current_term,
            voter_id=self.node_id,
            vote_granted=grant,
        )
        self.transport.send(message.candidate_id, reply, reply.wire_size())

    def _on_request_vote_reply(self, message: RequestVoteReply) -> None:
        if message.term > self.current_term:
            self._step_down(message.term)
            return
        if self.role is not Role.CANDIDATE or message.term != self.current_term:
            return
        if message.vote_granted:
            self._votes.add(message.voter_id)
            if len(self._votes) >= self.majority():
                self._become_leader()

    def _become_leader(self, initial: bool = False) -> None:
        self.role = Role.LEADER
        self.leader_id = self.node_id
        if initial and self.current_term == 0:
            self.current_term = 1
        if self._election_timer:
            self._election_timer.cancel()
            self._election_timer = None
        self.next_index = {peer: self.log.last_index + 1 for peer in self.peers()}
        self.match_index = {peer: 0 for peer in self.peers()}
        self.match_index[self.node_id] = self.log.last_index
        self._send_heartbeats()
        self._heartbeat_timer = self.runtime.periodic(
            self.config.heartbeat_interval_s, self._send_heartbeats
        )

    def _step_down(self, term: int) -> None:
        self.current_term = term
        # Unknown until it is heard from, which may be at once (an
        # AppendEntries names its sender right after this).
        self.leader_id = None
        self.voted_for = None
        if self.role is Role.LEADER and self._heartbeat_timer:
            self._heartbeat_timer.cancel()
            self._heartbeat_timer = None
        self.role = Role.FOLLOWER
        self._reset_election_timer()

    # -- Replication ----------------------------------------------------
    def _send_heartbeats(self) -> None:
        if self.stopped or not self.is_leader:
            return
        self._replicate_to_all()

    def _replicate_to_all(self, silent: bool = False) -> None:
        # Consecutive peers that share a next_index (all of them, in the
        # steady state) receive one interned AppendEntries via the
        # broadcast fast path; stragglers with a diverged log get their own
        # tailored message.  Only *runs* are grouped so the per-peer send
        # order — and with it the modelled CPU/link schedule — is exactly
        # that of sequential per-peer sends.
        #
        # next_index advances on send, not on the ack: an entry is shipped
        # to each follower once, and whatever goes out next (the commit
        # notice, a heartbeat, the next proposal) starts after it.  A
        # follower that missed it fails the consistency check and says
        # where the leader should resume.
        #
        # ``silent`` sends without ``probe`` — a commit notice or an
        # unacknowledged append: a follower that accepts it does not reply.
        probe = not silent
        sent_through = self.log.last_index + 1
        next_index = self.next_index
        run: List[str] = []
        run_index = 0
        for peer in self.peers():
            peer_index = next_index.get(peer, sent_through)
            if run and peer_index != run_index:
                message = self._append_entries_for(run_index, probe)
                self.transport.broadcast(run, message, message.wire_size())
                run = []
            run_index = peer_index
            run.append(peer)
            next_index[peer] = sent_through
        if run:
            message = self._append_entries_for(run_index, probe)
            self.transport.broadcast(run, message, message.wire_size())

    def _append_entries_for(self, next_index: int, probe: bool) -> AppendEntries:
        prev_index = next_index - 1
        prev_term = self.log.term_at(prev_index) if prev_index <= self.log.last_index else 0
        return AppendEntries(
            group_id=self.group_id,
            term=self.current_term,
            leader_id=self.node_id,
            prev_log_index=prev_index,
            prev_log_term=prev_term,
            entries=self.log.entries_from(next_index),
            leader_commit=self.commit_index,
            probe=probe,
        )

    def _replicate_to(self, peer: str) -> None:
        next_index = self.next_index.get(peer, self.log.last_index + 1)
        message = self._append_entries_for(next_index, True)
        self.next_index[peer] = self.log.last_index + 1
        self.transport.send(peer, message, message.wire_size())

    def _on_append_entries(self, message: AppendEntries) -> None:
        if message.term > self.current_term:
            self._step_down(message.term)
        success = False
        match_index = 0
        if message.term == self.current_term:
            if self.role is not Role.FOLLOWER:
                self._step_down(message.term)
            self.leader_id = message.leader_id
            self._reset_election_timer()
            log_entries = self.log._entries  # RaftLog's own list
            prev_index = message.prev_log_index
            if prev_index == len(log_entries) and (
                not prev_index or log_entries[-1].term == message.prev_log_term
            ):
                # In step, the steady state: merge would add every entry.
                added = message.entries
                log_entries.extend(added)
            elif self.log.matches(prev_index, message.prev_log_term):
                added = self.log.merge(prev_index, message.entries)
            else:
                # Tell the leader where to resume: nothing past this index
                # can pass the consistency check.
                added = None
                match_index = min(len(log_entries), prev_index - 1)
            if added is not None:
                success = True
                for entry in added:
                    if not entry.acknowledged:
                        self.apply(entry)
                match_index = prev_index + len(message.entries)
                if message.leader_commit > self.commit_index:
                    self.commit_index = min(message.leader_commit, len(log_entries))
                    self._apply_committed()
                if not message.probe:
                    # An accepted commit notice or unacknowledged append
                    # tells the leader nothing it needs: no ack.  A rejected
                    # one is answered, so the leader resends what this log
                    # is missing.
                    return
        reply = AppendEntriesReply(
            group_id=self.group_id,
            term=self.current_term,
            follower_id=self.node_id,
            success=success,
            match_index=match_index,
        )
        self.transport.send(message.leader_id, reply, reply.wire_size())

    def _on_append_entries_reply(self, message: AppendEntriesReply) -> None:
        if message.term > self.current_term:
            self._step_down(message.term)
            return
        if not self.is_leader or message.term != self.current_term:
            return
        follower = message.follower_id
        if message.success:
            if message.match_index > self.match_index.get(follower, 0):
                self.match_index[follower] = message.match_index
                # An ack at or below the commit index gives no uncommitted
                # entry a new replica: nothing can commit.
                if message.match_index > self.commit_index:
                    self._advance_commit_index()
        elif message.match_index >= self.match_index.get(follower, 0):
            # next_index ran ahead of what the follower holds (a lost or
            # overtaken entry, or a log that diverged under an older
            # leader): resend from where the follower says it can match,
            # so a follower one entry behind is sent one entry.  A hint
            # below match_index answers a message older than the last ack.
            self.next_index[follower] = message.match_index + 1
            self._replicate_to(follower)

    def _advance_commit_index(self) -> None:
        for index in range(self.log.last_index, self.commit_index, -1):
            if self.log.term_at(index) != self.current_term:
                continue
            replicas = 1 + len(
                [peer for peer in self.peers() if self.match_index.get(peer, 0) >= index]
            )
            if replicas >= self.majority():
                old_commit = self.commit_index
                self.commit_index = index
                self._apply_committed()
                if self.commit_index != old_commit:
                    # Let followers learn the new commit index promptly; the
                    # paper's broadcast latency depends on it (§4.3).  A
                    # notice asks for no reply.
                    self._replicate_to_all(silent=True)
                break

    def _apply_committed(self) -> None:
        # Re-read per entry: applying may commit more (a one-member group).
        log_entries = self.log._entries
        while self.last_applied < self.commit_index:
            entry = log_entries[self.last_applied]  # log index last_applied + 1
            self.last_applied += 1
            if entry.acknowledged:  # the others were applied when appended
                self.apply(entry)
