"""Reads at a node its peers may have left behind (one slice of ROADMAP's fault fuzzing).

A read is answered from committed state the moment no started cycle is open
(``CanopusNode._handle_read``), which is only sound while nobody has
excluded the node — the acknowledged view lease of
``FailureDetector.in_view``.  Here one victim of a 3x3 cluster is frozen,
cut off both ways or one way, for durations around the heartbeat interval,
the lease and the failure timeout, while a key is written elsewhere and
read at the victim.  A reply may be late, or a refusal (``NOT_IN_VIEW``,
within a failure timeout); it may not be older than a value acknowledged
before the read was submitted.

The three ways to get the lease wrong that this PR considered are kept as
mutations: each must be found, and shrunk to a script of three steps.
"""

import math

import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st
from hypothesis.errors import NoSuchExample

from repro.runtime.messages import NOT_IN_VIEW
from repro.verify.history import History
from repro.verify.linearizability import check_linearizable_history
from tests.helpers import build_canopus_on_sim, fast_config, read, write

VICTIM = "n2-1"
CONFIG = fast_config()
HEARTBEAT_S = CONFIG.heartbeat_interval_s
TIMEOUT_S = CONFIG.failure_timeout_s()
LEASE_S = TIMEOUT_S - HEARTBEAT_S
#: A write waits this long for its acknowledgement: past the victim's
#: exclusion and one fetch retry (a remote rack may have asked the victim).
STUCK_S = 2 * TIMEOUT_S + CONFIG.fetch_timeout_s
#: Beyond, between and below the three: "for good", the timeout (plus the
#: detector's check period), the lease, a heartbeat.  Hypothesis shrinks
#: towards the front of a ``sampled_from`` and of a ``one_of``, so the
#: bluntest fault — cut off both ways for good — is the simplest.
DURATIONS_S = (2 * STUCK_S, TIMEOUT_S + 1.5 * HEARTBEAT_S, (LEASE_S + TIMEOUT_S) / 2,
               (HEARTBEAT_S + LEASE_S) / 2, HEARTBEAT_S / 2)

steps = st.one_of(
    st.just(("write",)),
    st.just(("read",)),
    st.tuples(st.sampled_from(("cut-both", "cut-out", "cut-in", "freeze", "wait")), st.sampled_from(DURATIONS_S)),
)
scripts = st.lists(steps, min_size=1, max_size=6)
SEARCH = dict(derandomize=True, deadline=None, database=None)


class Faults:
    """Every delivery in the cluster goes through :meth:`deliver`."""

    def __init__(self, sim, protocol):
        self.sim = sim
        self.victim = protocol.nodes[VICTIM]
        self.active = {"freeze": 0, "cut-in": 0, "cut-out": 0}
        self.inbox = []
        self.reached_victim_at = {}  # by request id: a frozen node serves nobody
        for node in protocol.nodes.values():
            node.runtime.set_handler(
                lambda sender, message, node=node: self.deliver(node, sender, message)
            )

    def deliver(self, node, sender, message):
        if node is self.victim:
            if self.active["cut-in"]:
                return
            if self.active["freeze"]:
                self.inbox.append((sender, message))
                return
        elif sender == VICTIM and self.active["cut-out"]:
            return
        node.on_message(sender, message)

    def read_at_victim(self, request):
        if self.active["freeze"]:
            self.inbox.append((None, request))  # it is served when the node wakes up
        else:
            self.submit_at_victim(request)

    def submit_at_victim(self, request):
        self.reached_victim_at[request.request_id] = self.sim.now
        self.victim.submit(request)

    def start(self, kind, duration_s):
        for name in ("cut-in", "cut-out") if kind == "cut-both" else (kind,):
            self.active[name] += 1
            if name == "freeze" and self.active[name] == 1:
                self.victim.failure_detector.stop()  # no heartbeat leaves a frozen node
            self.sim.schedule(duration_s, lambda name=name: self.end(name))

    def end(self, name):
        if not self.active[name]:
            return  # the script ran out first
        self.active[name] -= 1
        if name == "freeze" and not self.active[name]:
            self.victim.failure_detector.start()
            inbox, self.inbox = self.inbox, []
            for sender, message in inbox:
                if sender is None:
                    self.submit_at_victim(message)
                else:
                    self.victim.on_message(sender, message)


def run_script(script, mutate=None):
    """Play ``script``; return ``(wrong, history)`` where ``wrong`` lists the
    reads answered with a value older than one acknowledged before them, or
    refused later than a failure timeout after they reached the victim."""
    sim, _, protocol, replies = build_canopus_on_sim(nodes_per_rack=3, racks=3, config=CONFIG)
    faults = Faults(sim, protocol)
    if mutate is not None:
        mutate(faults.victim)
    sim.run_until(0.05)
    writes, reads = [], []  # (request, submitted_at[, newest value acknowledged by then])
    by_id = {}

    def acknowledged():
        done = [index for index, (request, _) in enumerate(writes) if request.request_id in by_id]
        return max(done, default=-1)

    def settle(until):
        sim.run_until(until)
        by_id.update({reply.request_id: reply for reply in replies})

    for step in script:
        if step[0] == "write":
            request = write("k", f"v{len(writes)}")
            writes.append((request, sim.now))
            protocol.nodes["n0-0"].submit(request)
            # Until it is acknowledged — after the victim's exclusion, if
            # the cycle has to wait for that — or is clearly stuck.
            deadline = sim.now + STUCK_S
            while request.request_id not in by_id and sim.now < deadline:
                settle(sim.now + 0.001)
        elif step[0] == "read":
            request = read("k", client="reader")
            reads.append((request, sim.now, acknowledged()))
            faults.read_at_victim(request)
        elif step[0] == "wait":
            settle(sim.now + step[1])
        else:  # a fault: what follows happens under it, until it ends
            faults.start(*step)
    for name, count in faults.active.items():
        for _ in range(count):
            faults.end(name)
    settle(sim.now + STUCK_S)  # every reply that is coming has come

    history, wrong = History(), []
    for index, (request, submitted_at) in enumerate(writes):
        reply = by_id.get(request.request_id)
        history.add("writer", "write", "k", f"v{index}", submitted_at,
                    reply.completed_at if reply else math.inf)
    for request, submitted_at, newest in reads:
        reply = by_id.get(request.request_id)
        if reply is None:
            wrong.append((request, "never answered", f"v{newest}"))
            continue
        if reply.error is not None:
            # Refusing is safe (§6), if the client is told in bounded time.
            if reply.completed_at > faults.reached_victim_at[request.request_id] + TIMEOUT_S + 1e-9:
                wrong.append((request, "refused late", f"v{newest}"))
            continue
        history.add("reader", "read", "k", reply.value, submitted_at, reply.completed_at)
        seen = -1 if reply.value is None else int(reply.value[1:])
        if seen < newest:
            wrong.append((request, reply.value, f"v{newest}"))
    return wrong, history


def holds(script, mutate=None):
    wrong, history = run_script(script, mutate)
    return not wrong and check_linearizable_history(history)[0]


#: Frozen until its peers drop it, the victim wakes up cycles behind them.
#: What it goes on to commit, catching up alone, they decided long ago: the
#: parent commit released the read at the first such commit, with ``v1``.
WAKES_UP_BEHIND = [("freeze", DURATIONS_S[1]), ("write",), ("write",), ("write",), ("read",)]
#: Cut off, the victim drops both peers by itself and commits their deletes
#: alone: a view nobody else holds must not restore its lease.
DELETES_ITS_PEERS_ALONE = [("cut-both", DURATIONS_S[1]), ("write",), ("write",), ("read",)]
#: The same while both peers still echo: trusting the first delete is not
#: what goes wrong.
DELETES_ITS_PEERS_UNHEARD = [("wait", DURATIONS_S[2]), ("cut-in", DURATIONS_S[2]),
                             ("write",), ("write",), ("read",)]


@settings(max_examples=30, **SEARCH)
@given(scripts)
@example(WAKES_UP_BEHIND)
@example(DELETES_ITS_PEERS_ALONE)
@example(DELETES_ITS_PEERS_UNHEARD)
def test_no_reply_is_older_than_a_value_acknowledged_before_the_read(script):
    wrong, history = run_script(script)
    assert wrong == []
    ok, message = check_linearizable_history(history)
    assert ok, message


# ----------------------------------------------------------------------
# Three ways to get the lease wrong.
# ----------------------------------------------------------------------
def rule_ignores_the_lease(victim):
    victim.failure_detector.in_view = lambda: True


def lease_renewed_by_sending(victim):
    """The parent commit's lease: each heartbeat *sent* while it holds extends it."""
    detector = victim.failure_detector
    detector._in_view_until = detector.runtime.now() + LEASE_S
    send_heartbeats = detector._send_heartbeats

    def send_and_renew():
        if detector.runtime.now() <= detector._in_view_until:
            detector._in_view_until = detector.runtime.now() + LEASE_S
        send_heartbeats()

    detector._send_heartbeats = send_and_renew
    detector.in_view = lambda: detector.runtime.now() <= detector._in_view_until
    detector.stop()  # the periodic timer holds the unpatched method
    detector.start()


def lease_set_shrinks_with_suspicion(victim):
    """Only peers this node still trusts get a say."""
    detector = victim.failure_detector

    def in_view():
        echoes = [echo for peer, echo in detector._echoed.items() if not detector.is_suspected(peer)]
        return not echoes or detector.runtime.now() <= min(echoes) + LEASE_S

    detector.in_view = in_view


# ----------------------------------------------------------------------
# The partition script of the PR's motivation, and the lease it rests on.
# ----------------------------------------------------------------------
PARTITION = [("cut-both", 2 * STUCK_S), ("write",), ("read",)]


@pytest.mark.parametrize(
    "lease, answer", [(None, (None, NOT_IN_VIEW)), (lease_renewed_by_sending, ("old", None))],
    ids=["acknowledged", "renewed-by-sending"],
)
def test_partitioned_node_refuses_a_read_rather_than_answer_it_from_stale_state(lease, answer):
    sim, _, protocol, replies = build_canopus_on_sim(nodes_per_rack=3, racks=3, config=CONFIG)
    faults = Faults(sim, protocol)
    victim = faults.victim
    if lease is not None:
        lease(victim)
    protocol.nodes["n0-0"].submit(write("k", "old"))
    sim.run_until(0.05)
    assert victim.last_committed_cycle == victim.last_started_cycle == 1
    faults.start("cut-both", 1.0)
    sim.run_until(0.05 + TIMEOUT_S - 0.001)
    # Lapsed before anyone can have excluded the victim ...
    assert victim.failure_detector.in_view() == (lease is not None)
    assert all(VICTIM in protocol.nodes[peer].live_members for peer in ("n2-0", "n2-2"))
    sim.run_until(0.05 + TIMEOUT_S + 2 * HEARTBEAT_S)
    assert not any(VICTIM in protocol.nodes[peer].live_members for peer in ("n2-0", "n2-2"))
    new = write("k", "new")
    protocol.nodes["n0-1"].submit(new)
    sim.run_until(sim.now + 0.05)
    assert any(reply.request_id == new.request_id for reply in replies)
    # ... and its own sending renews nothing.  The victim is idle and has
    # heard of no cycle since the cut: the lease is all it has.
    assert victim.last_committed_cycle == victim.last_started_cycle == 1
    request = read("k")
    victim.submit(request)
    assert (lease is None) == (request.request_id in victim._reads_out_of_view)
    sim.run_until(sim.now + TIMEOUT_S)
    (reply,) = [reply for reply in replies if reply.request_id == request.request_id]
    assert (reply.value, reply.error) == answer
    assert victim._reads_out_of_view == {}


def test_peer_crash_turns_at_once_reads_off_until_its_delete_commits():
    """What the lease costs when a peer really dies: from the lapse until the
    survivors have committed its delete, their reads wait for cycles."""
    sim, _, protocol, replies = build_canopus_on_sim(nodes_per_rack=3, racks=3, config=CONFIG)
    survivor = protocol.nodes[VICTIM]
    protocol.nodes["n0-0"].submit(write("k", "old"))
    sim.run_until(0.05)
    protocol.crash("n2-2")

    def answered(request):
        return [reply for reply in replies if reply.request_id == request.request_id]

    sim.run_until(0.05 + HEARTBEAT_S)
    within_the_lease = read("k")
    survivor.submit(within_the_lease)
    assert answered(within_the_lease)

    sim.run_until(0.05 + LEASE_S)  # the dead peer's last echo is older than that
    assert not survivor.failure_detector.in_view()
    assert "n2-2" in survivor.live_members  # not even suspected yet
    lapsed = read("k")
    survivor.submit(lapsed)
    assert not answered(lapsed)
    while not answered(lapsed):
        assert sim.loop.step() and sim.now < 0.05 + TIMEOUT_S + 2 * HEARTBEAT_S + 2 * CONFIG.cycle_interval_s
    (reply,) = answered(lapsed)
    assert reply.value == "old"
    assert "n2-2" not in survivor.failure_detector.peers  # the delete has committed here
    assert survivor.failure_detector.in_view()
    cycles_started = survivor.last_started_cycle
    afterwards = read("k")
    survivor.submit(afterwards)
    assert answered(afterwards) and survivor.last_started_cycle == cycles_started


def test_survivor_of_two_crashes_refuses_reads_in_bounded_time_and_keeps_none():
    """Alone, a node cannot tell its peers' crashes from a partition it sat
    out (``DELETES_ITS_PEERS_ALONE``): it still orders writes, and tells
    every reader within a failure timeout to ask another node."""
    sim, _, protocol, replies = build_canopus_on_sim(nodes_per_rack=3, racks=3, config=CONFIG)
    survivor = protocol.nodes[VICTIM]
    sim.run_until(0.05)
    for peer in ("n2-0", "n2-2"):
        protocol.crash(peer)
    request = write("k", "new")
    survivor.submit(request)
    sim.run_until(0.05 + 2 * TIMEOUT_S)
    assert [reply.value for reply in replies if reply.request_id == request.request_id] == ["new"]
    assert not survivor.failure_detector.in_view()

    reads = [read("k") for _ in range(100)]
    for request in reads:
        survivor.submit(request)
    assert len(survivor._reads_out_of_view) == 100
    asked_at = sim.now
    sim.run_until(asked_at + TIMEOUT_S)
    by_id = {reply.request_id: reply for reply in replies}
    assert all(by_id[request.request_id].error == NOT_IN_VIEW for request in reads)
    # The reads prompted the cycle that committed both deletes; alone is not in view.
    assert survivor.failure_detector.peers == [] and not survivor.failure_detector.in_view()
    assert survivor._reads_out_of_view == {}
    assert survivor.request_senders == {} and survivor.linearizer.pending_count() == 0


# ----------------------------------------------------------------------
# A safety net that cannot fail is vacuous.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "mutate", [rule_ignores_the_lease, lease_renewed_by_sending, lease_set_shrinks_with_suspicion]
)
def test_each_wrong_lease_is_found_and_shrunk_to_three_steps(mutate):
    assert not holds(PARTITION, mutate)
    try:
        minimal = find(
            scripts, lambda script: not holds(script, mutate),
            # No explain phase: it traces every line of each failing run.
            settings=settings(max_examples=400, phases=(Phase.generate, Phase.shrink), **SEARCH),
        )
    except NoSuchExample:
        pytest.fail(f"{mutate.__name__} survives the generated scripts")
    assert len(minimal) <= 3, minimal
    assert holds(minimal)


# ----------------------------------------------------------------------
# The lease assumes clocks that run at nearly the same rate.
# ----------------------------------------------------------------------
class SlowClock:
    """A runtime whose ``now()`` runs at ``rate`` times real (simulated) time."""

    def __init__(self, runtime, rate):
        self._runtime, self._rate = runtime, rate

    def now(self):
        return self._rate * self._runtime.now()

    def __getattr__(self, name):
        return getattr(self._runtime, name)


@pytest.mark.parametrize("rate, answer", [(1.0, NOT_IN_VIEW), (0.9, NOT_IN_VIEW), (0.6, "old")])
def test_lease_outruns_an_exclusion_only_beyond_the_documented_clock_drift(rate, answer):
    """The bound is ``heartbeat_interval_s / failure_timeout_s`` = 25 %, and it
    is tight only in the worst phase: the victim's heartbeat is echoed the
    moment it is sent, the cut follows the echo at once, and nothing else
    the victim sends reaches its peers in between.

    The last condition fixes the cut at 4 heartbeats, not 5: the
    super-leaf's broadcast groups send their Raft heartbeats at 0.1 s, so a
    cut after the 0.0995 s heartbeat's echo lets the victim's group
    heartbeat through at 0.1 s, its peers suspect it one check later (at
    0.2 s, not 0.18 s) and the write commits at 0.2002 s, past the window
    below.  Cut after the 0.0795 s heartbeat's echo, the write commits at
    0.1602 s, 80.7 ms after the echoed stamp: the lease holds it until a
    clock rate of 0.743, so 0.75 is refused and 0.74 answers ``"old"``."""
    assert 0.6 < 1 - HEARTBEAT_S / TIMEOUT_S < 0.9
    sim, _, protocol, replies = build_canopus_on_sim(nodes_per_rack=3, racks=3, config=CONFIG)
    faults = Faults(sim, protocol)
    victim = faults.victim
    detector = victim.failure_detector
    detector.runtime = SlowClock(detector.runtime, rate)
    protocol.nodes["n0-0"].submit(write("k", "old"))
    # The victim's heartbeats leave half a millisecond before its peers'.
    detector.stop()
    sim.run_until(2 * HEARTBEAT_S - 0.0005)
    detector.start()
    sim.run_until(4 * HEARTBEAT_S + 0.001)
    assert detector.in_view()
    faults.start("cut-both", 1.0)
    new = write("k", "new")
    protocol.nodes["n0-1"].submit(new)
    deadline = 4 * HEARTBEAT_S + TIMEOUT_S + 0.01
    while not any(reply.request_id == new.request_id for reply in replies):
        assert sim.now < deadline, f"the write was not answered by {deadline} s"
        assert sim.loop.step()
    assert 4 * HEARTBEAT_S + TIMEOUT_S - 0.001 < sim.now < deadline
    request = read("k")
    victim.submit(request)
    sim.run_until(sim.now + 0.5)
    (reply,) = [reply for reply in replies if reply.request_id == request.request_id]
    assert (reply.error or reply.value) == answer

