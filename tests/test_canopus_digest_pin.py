"""Pinned fixed-seed behaviour of a multi-super-leaf Canopus deployment.

No perf-ledger point runs Canopus, so no ledger digest covers round 2,
fetch or relay.  This pins a 9-node (3 racks x 3) non-pipelined
deployment of ``canopus`` and ``zkcanopus`` under an open-loop load: the
commit-log digest (``_commit_log_sha256``), the traffic the nodes sent and
the engine events the run executed.  A change that is meant to be
host-only (a representation, a dispatch table, a cheaper clock) must leave
all of them byte-identical.
"""

from __future__ import annotations

import pytest

from repro.bench.builders import make_single_dc_topology
from repro.bench.runner import _commit_log_sha256
from repro.canopus.config import CanopusConfig
from repro.protocols import build_protocol
from repro.sim.engine import Simulator
from repro.workload.generator import WorkloadConfig, WorkloadGenerator

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
