"""Wire-size golden table — importable data, one source of truth.

This module holds the golden wire-size rows that ``test_wire_sizes.py``
asserts against *and* the :data:`WIRE_COVERED` coverage map that the
static analyser's ``slots-required`` rule cross-checks (see
``src/repro/analysis/rules/slots.py``).  The linter reads
:data:`WIRE_COVERED` **statically** (``ast.literal_eval`` over this
file's AST), so it must stay a pure literal: no comprehensions, no
function calls, no name references.  ``test_wire_sizes.py`` verifies at
runtime that the literal agrees with the classes the golden factories
actually construct, so the two views cannot drift apart.

Each :data:`GOLDEN` row is ``(name, factory, expected_bytes)``.  Batched
messages are checked at several batch shapes, since their size is a
function of the batch.
"""

from __future__ import annotations

from repro.broadcast.raft_broadcast import _ForwardedBroadcast
from repro.canopus.membership import Heartbeat, JoinRequest
from repro.canopus.messages import MembershipUpdate, Proposal, ProposalRequest
from repro.epaxos.messages import Accept, AcceptOK, Commit, InstanceId, PreAccept, PreAcceptOK
from repro.epaxos.node import _Probe, _ProbeReply
from repro.raft.log import LogEntry
from repro.raft.messages import AppendEntries, AppendEntriesReply, RequestVote, RequestVoteReply
from repro.runtime.messages import ClientReply, ClientRequest, RequestType
from repro.zab.messages import WriteForward, ZabAck, ZabCommit, ZabInform, ZabProposal


def _request(**overrides):
    defaults = dict(client_id="c", op=RequestType.WRITE, key="k", value="v")
    defaults.update(overrides)
    return ClientRequest(**defaults)


def _reply():
    return ClientReply(
        request_id=1, client_id="c", op=RequestType.READ, key="k", value="v", committed_cycle=1
    )


def _requests(count):
    return tuple(_request() for _ in range(count))


def _deps(count):
    return frozenset(InstanceId(replica=f"n{i}", slot=i) for i in range(count))


def _instance():
    return InstanceId(replica="n0", slot=1)


GOLDEN = [
    # -- workload / client plane (shared by every protocol) --------------
    ("client-request", lambda: _request(), 48),
    ("client-request-read", lambda: _request(op=RequestType.READ, value=None), 48),
    ("client-reply", lambda: _reply(), 48),
    # -- canopus ---------------------------------------------------------
    ("membership-update", lambda: MembershipUpdate("add", "n1", "sl0"), 32),
    ("proposal-empty", lambda: Proposal(1, 1, "v0", "n0", 1), 40),
    ("proposal-3req", lambda: Proposal(1, 1, "v0", "n0", 1, requests=_requests(3)), 40 + 3 * 48),
    (
        "proposal-2req-1member",
        lambda: Proposal(
            1, 2, "v0", "n0", 1, requests=_requests(2),
            membership_updates=(MembershipUpdate("add", "n1", "sl0"),),
        ),
        40 + 2 * 48 + 32,
    ),
    ("proposal-request", lambda: ProposalRequest(1, "v0", "n0"), 24),
    ("heartbeat", lambda: Heartbeat(sent_at=0.5, echo=0.25), 24),
    ("join-request", lambda: JoinRequest(node_id="n1", super_leaf="sl0"), 48),
    ("forwarded-broadcast", lambda: _ForwardedBroadcast("g0", _request()), 48 + 24),
    # -- epaxos ----------------------------------------------------------
    ("preaccept-1cmd", lambda: PreAccept(_instance(), _requests(1), 1, frozenset()), 56 + 48),
    (
        "preaccept-4cmd-2dep",
        lambda: PreAccept(_instance(), _requests(4), 1, _deps(2)),
        56 + 4 * 48 + 2 * 16,
    ),
    ("preaccept-ok", lambda: PreAcceptOK(_instance(), "n1", 1, frozenset(), False), 56),
    ("preaccept-ok-2dep", lambda: PreAcceptOK(_instance(), "n1", 1, _deps(2), True), 56 + 2 * 16),
    ("accept-2cmd", lambda: Accept(_instance(), _requests(2), 1, frozenset()), 56 + 2 * 48),
    ("accept-ok", lambda: AcceptOK(_instance(), "n1"), 56),
    ("commit-3cmd-1dep", lambda: Commit(_instance(), _requests(3), 1, _deps(1)), 56 + 3 * 48 + 16),
    ("epaxos-probe", lambda: _Probe(sender="n0", sent_at=0.5), 16),
    ("epaxos-probe-reply", lambda: _ProbeReply(sender="n1", echoed_at=0.5), 16),
    # -- zab / zookeeper -------------------------------------------------
    ("zab-write-forward-2req", lambda: WriteForward("n1", _requests(2)), 48 + 2 * 48),
    ("zab-proposal-1req", lambda: ZabProposal(1, "n0", _requests(1)), 48 + 48),
    ("zab-ack", lambda: ZabAck(1, "n1"), 48),
    ("zab-commit", lambda: ZabCommit(1), 48),
    ("zab-inform-2req", lambda: ZabInform(1, "n0", _requests(2)), 48 + 2 * 48),
    # -- raft (the consensus core of the canopus super-leaf broadcast) ---
    ("request-vote", lambda: RequestVote("g", 1, "n0", 0, 0), 48),
    ("request-vote-reply", lambda: RequestVoteReply("g", 1, "n1", True), 48),
    ("append-entries-empty", lambda: AppendEntries("g", 1, "n0", 0, 0), 48),
    (
        "append-entries-2cmd",
        lambda: AppendEntries(
            "g", 1, "n0", 0, 0,
            entries=(LogEntry(1, 1, _request()), LogEntry(2, 1, _request())),
        ),
        48 + 2 * (48 + 16),
    ),
    (
        "append-entries-opaque-cmd",
        lambda: AppendEntries("g", 1, "n0", 0, 0, entries=(LogEntry(1, 1, object()),)),
        48 + 64 + 16,
    ),
    ("append-entries-reply", lambda: AppendEntriesReply("g", 1, "n1", True, 1), 48),
]


#: Coverage map consumed statically by the ``slots-required`` lint rule:
#: module path (relative to the repo root, POSIX separators) -> tuple of
#: class names whose ``wire_size`` is pinned by a GOLDEN row, either as a
#: top-level row or as a component of a composite row (e.g. ``LogEntry``
#: inside ``append-entries-2cmd``).  MUST remain a pure literal — the
#: linter reads it with ``ast.literal_eval`` without importing anything.
#: ``test_wire_covered_matches_golden_factories`` keeps it honest.
WIRE_COVERED = {
    "src/repro/broadcast/raft_broadcast.py": ("_ForwardedBroadcast",),
    "src/repro/canopus/membership.py": ("Heartbeat", "JoinRequest"),
    "src/repro/canopus/messages.py": ("MembershipUpdate", "Proposal", "ProposalRequest"),
    "src/repro/epaxos/messages.py": (
        "PreAccept",
        "PreAcceptOK",
        "Accept",
        "AcceptOK",
        "Commit",
    ),
    "src/repro/epaxos/node.py": ("_Probe", "_ProbeReply"),
    "src/repro/raft/log.py": ("LogEntry",),
    "src/repro/raft/messages.py": (
        "RequestVote",
        "RequestVoteReply",
        "AppendEntries",
        "AppendEntriesReply",
    ),
    "src/repro/runtime/messages.py": ("ClientRequest", "ClientReply"),
    "src/repro/zab/messages.py": (
        "WriteForward",
        "ZabProposal",
        "ZabAck",
        "ZabCommit",
        "ZabInform",
    ),
}
