"""The benchmark's workloads: pure data, importable without ``repro``.

Each workload is one deployment (system, size, write mix, protocol
configuration) driven up a three-rung offered-rate ladder.  ``why`` is the
one-line reason the workload exists; README.md has the long form and the
measured knee of each ladder.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Tuple

#: A rung meets the latency limit when the simulated p99 completion time is
#: at most this and at least MIN_COMPLETED_RATIO of the ops submitted in
#: the measure window have a reply by the end of cooldown.
LATENCY_LIMIT_MS = 30.0
MIN_COMPLETED_RATIO = 0.95

#: Open-loop Poisson load shape shared by every workload (the committed
#: ``sim-hotpath`` point uses the same, which the fidelity check relies on).
CLIENT_PROCESSES = 36
KEY_COUNT = 10_000

#: The client-process -> server binding is part of the *deployment*, not of
#: the seeded input: it is drawn once with this seed for every ``--seed``.
#: Left to the run seed, 36 processes choosing among 27 servers load the
#: replicas unevenly in a different way each time, which alone moves the
#: Canopus p50 by 8.7 % (interquartile, ten seeds); pinned, 4.3 %.  At
#: ``--seed 7`` the pinned binding is the one the generator draws itself.
BINDING_SEED = 7


def _canopus_config() -> Any:
    from repro.canopus.config import CanopusConfig

    return CanopusConfig(
        lot_height=2, cycle_interval_s=0.005, broadcast_mode="raft", pipelining=False
    )


def _epaxos_config() -> Any:
    from repro.epaxos.node import EPaxosConfig

    return EPaxosConfig(batch_duration_s=0.002, latency_probing=True, thrifty=False)


def _default_config() -> Any:
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    system: str
    nodes_per_rack: int
    write_ratio: float
    make_config: Callable[[], Any]
    #: Offered aggregate rates (req/s), lowest first; ``ladder[NOMINAL]`` is
    #: the nominal rung and ``ladder[-1]`` the over-saturated top rung.
    ladder: Tuple[int, int, int]
    #: Simulated seconds of warm-up / measure / cooldown.
    windows: Tuple[float, float, float]
    why: str

    NOMINAL = 1
    RACKS = 3

    def smoke(self) -> "Workload":
        """The same deployment shape at a size the tier-1 test can afford."""
        return replace(
            self,
            nodes_per_rack=3,
            ladder=tuple(rate // 10 for rate in self.ladder),
            windows=(0.05, 0.05, 0.05),
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="canopus27_read_heavy",
            system="canopus",
            nodes_per_rack=9,
            write_ratio=0.2,
            make_config=_canopus_config,
            ladder=(24_000, 40_000, 80_000),
            windows=(0.1, 0.3, 0.05),
            why="the paper's headline deployment; the raft+canopus+broadcast handlers outweigh "
            "network delivery, so a handler or batching change shows here",
        ),
        Workload(
            name="zkcanopus27_write_only",
            system="zkcanopus",
            nodes_per_rack=9,
            write_ratio=1.0,
            make_config=_canopus_config,
            ladder=(6_000, 10_000, 18_000),
            # 0.5 s, not the 0.3 s of the others: at 0.3 s the nominal rung has
            # 3 000 samples and its p99 spreads 9.6 % over ten seeds; 4.0 % here.
            windows=(0.1, 0.5, 0.05),
            why="same deployment, writes only: 4x the bytes per op, every write applied to 27 kvstore "
            "replicas, read linearizer idle, so a read gain that costs writes shows here",
        ),
        Workload(
            name="epaxos27_fanout",
            system="epaxos",
            nodes_per_rack=9,
            write_ratio=0.2,
            make_config=_epaxos_config,
            ladder=(4_000, 8_000, 24_000),
            windows=(0.1, 0.3, 0.05),
            why="an N-1 broadcast per command: network delivery is over half the host work and no "
            "Canopus code runs; the top rung is the committed sim-hotpath point",
        ),
        Workload(
            name="zookeeper9_local_reads",
            system="zookeeper",
            nodes_per_rack=3,
            write_ratio=0.2,
            make_config=_default_config,
            ladder=(4_000, 8_000, 24_000),
            windows=(0.1, 1.2, 0.05),
            why="80 % of ops are local reads with no consensus traffic: lowest cost per op, so the "
            "engine, workload and metrics layers take their largest shares here",
        ),
    )
}


def get(name: str, smoke: bool = False) -> Workload:
    workload = WORKLOADS[name]
    return workload.smoke() if smoke else workload
