"""Pinned fixed-seed behaviour of a multi-super-leaf Canopus deployment.

No perf-ledger point runs Canopus, so no ledger digest covers round 2,
fetch or relay.  This pins a 9-node (3 racks x 3) non-pipelined
deployment of ``canopus`` and ``zkcanopus`` under an open-loop load: the
commit-log digest (``_commit_log_sha256``), the traffic the nodes sent and
the engine events the run executed.  A change that is meant to be
host-only (a representation, a dispatch table, a cheaper clock) must leave
all of them byte-identical.

The failure path is pinned too: the same kind of deployment on the tests'
``fast_config`` with one member crashed mid-load, pinning what the
survivors committed, what they sent, and how long the crash held up
commits everywhere.
"""

from __future__ import annotations

import pytest

from repro.bench.builders import make_single_dc_topology
from repro.bench.runner import _commit_log_sha256
from repro.canopus.config import CanopusConfig
from repro.protocols import build_protocol
from repro.sim.engine import Simulator
from repro.workload.generator import WorkloadConfig, WorkloadGenerator
from tests.helpers import fast_config

#: system -> (write ratio, offered req/s, pinned (digest prefix,
#: messages_sent, bytes_sent, engine events)).
PINNED = {
    "canopus": (0.2, 8000.0, ("364aee44", 4320, 381744, 12433)),
    "zkcanopus": (1.0, 4000.0, ("68ae4f48", 3935, 552576, 9687)),
}

LOAD_S = 0.2
DRAIN_S = 0.1


def pinned_run(system: str, write_ratio: float, rate_hz: float):
    simulator = Simulator(seed=7)
    topology = make_single_dc_topology(simulator, nodes_per_rack=3, racks=3)
    config = CanopusConfig(
        lot_height=2, cycle_interval_s=0.005, pipelining=False
    )
    protocol = build_protocol(system, topology, config=config)
    generator = WorkloadGenerator(
        topology,
        WorkloadConfig(
            client_processes=12, aggregate_rate_hz=rate_hz, write_ratio=write_ratio,
            key_count=1000, seed=7,
        ),
    )
    generator.build()
    protocol.start()
    generator.start()
    simulator.run_until(LOAD_S)
    generator.stop()
    simulator.run_until(LOAD_S + DRAIN_S)
    protocol.stop()
    stats = protocol.stats()
    return (
        _commit_log_sha256(protocol.committed_logs())[:8],
        stats["messages_sent"],
        stats["bytes_sent"],
        simulator.loop.processed_events,
    )


@pytest.mark.parametrize("system", sorted(PINNED))
def test_fixed_seed_behaviour_is_pinned(system):
    write_ratio, rate_hz, expected = PINNED[system]
    observed = pinned_run(system, write_ratio, rate_hz)
    assert observed == expected, (
        f"{system}: (digest, messages_sent, bytes_sent, events) moved from {expected} to "
        f"{observed}.  A host-only change must not move any of them.  If the change is "
        f"meant to alter modelled behaviour, say so in its description, then re-pin by "
        f"copying the observed tuple into PINNED in tests/test_canopus_digest_pin.py."
    )


#: The crash-under-load case: (victim, crash instant), and the pinned
#: (survivors' digest prefix, survivors' messages_sent, crash to next
#: commit at every survivor in microseconds).
CRASH = ("n1-1", 0.1)
PINNED_CRASH = ("0e5cab00", 2420, 100840)


def crash_run():
    victim, crash_at = CRASH
    simulator = Simulator(seed=7)
    topology = make_single_dc_topology(simulator, nodes_per_rack=3, racks=3)
    protocol = build_protocol("canopus", topology, config=fast_config())
    generator = WorkloadGenerator(
        topology,
        WorkloadConfig(
            client_processes=12, aggregate_rate_hz=2000.0, write_ratio=0.5,
            key_count=1000, seed=7,
        ),
    )
    generator.build()
    protocol.start()
    generator.start()
    simulator.run_until(crash_at)
    survivors = [node for node_id, node in protocol.nodes.items() if node_id != victim]
    # No cycle is in flight anywhere, so every survivor's next commit is of
    # a cycle the victim cannot propose in: it waits for the exclusion.
    assert all(node.last_started_cycle == node.last_committed_cycle for node in survivors)
    protocol.crash(victim)
    simulator.run_until(0.4)
    generator.stop()
    simulator.run_until(0.5)
    protocol.stop()
    first_commits = [
        min(cycle.committed_at for cycle in node.commit_log if cycle.committed_at > crash_at)
        for node in survivors
    ]
    logs = {node.node_id: protocol.committed_log(node.node_id) for node in survivors}
    return (
        _commit_log_sha256(logs)[:8],
        sum(node.runtime.transport.messages_sent for node in survivors),
        round((max(first_commits) - crash_at) * 1e6),
    )


def test_crash_under_load_is_pinned():
    """One member of nine crashes between cycles: the survivors' commit log,
    their traffic and the crash-to-next-commit time (the latest, across
    survivors, of the first commit after the crash) are pinned."""
    observed = crash_run()
    assert observed == PINNED_CRASH, (
        f"crash under load: (digest, messages_sent, crash-to-next-commit us) moved from "
        f"{PINNED_CRASH} to {observed}.  Re-pin only for an intended change to the failure "
        f"path, named in the change's description."
    )
