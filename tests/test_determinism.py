"""Determinism regression tests.

Two simulators with the same seed driving the same registry-built system
must produce identical commit logs and metrics.  This guards the
`fork_rng` fix (seeding from salted `hash()` made "deterministic" streams
differ across processes) and the batched network path (batching must not
introduce ordering sensitivity).  The same runs must also be
byte-identical across processes: a fresh interpreter has a different hash
salt, so a seeded path that iterates a ``set`` of strings or calls salted
``hash()`` gives a different digest there.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from repro.bench.builders import make_single_dc_topology
from repro.protocols import build_protocol, registered_protocols
from repro.sim.engine import Simulator
from repro.workload.generator import WorkloadConfig, WorkloadGenerator


def run_system(name: str, seed: int):
    """Build + drive one registry system under a generated workload."""
    simulator = Simulator(seed=seed)
    topology = make_single_dc_topology(simulator, nodes_per_rack=2, racks=2)
    replies = []
    protocol = build_protocol(name, topology, on_reply=replies.append)
    generator = WorkloadGenerator(
        topology,
        WorkloadConfig(client_processes=8, aggregate_rate_hz=600.0, write_ratio=0.5, seed=seed),
    )
    collector = generator.build()
    protocol.start()
    generator.start()
    simulator.run_until(0.5)
    generator.stop()
    simulator.run_until(0.8)
    protocol.stop()
    summary = collector.summarize(0.05, 0.5)
    # Request ids come from a process-global counter, so two runs in one
    # process are offset by a constant; normalize to the run's smallest id
    # so the comparison is about *behaviour*, not allocator state.
    logs = protocol.committed_logs()
    all_ids = [r.request_id for r in replies] + [i for log in logs.values() for i in log]
    base = min(all_ids) if all_ids else 0
    normalized_logs = {node: [i - base for i in log] for node, log in logs.items()}
    normalized_replies = [r.request_id - base for r in replies]
    return normalized_logs, summary.as_dict(), normalized_replies


@pytest.mark.parametrize("name", registered_protocols())
def test_same_seed_is_bit_identical(name):
    logs_a, summary_a, replies_a = run_system(name, seed=21)
    logs_b, summary_b, replies_b = run_system(name, seed=21)
    assert logs_a == logs_b, f"{name}: commit logs differ between identical runs"
    assert summary_a == summary_b, f"{name}: metrics differ between identical runs"
    assert replies_a == replies_b, f"{name}: reply stream differs between identical runs"


def test_different_seed_changes_the_run():
    _, summary_a, replies_a = run_system("canopus", seed=21)
    _, summary_b, replies_b = run_system("canopus", seed=22)
    assert replies_a != replies_b or summary_a != summary_b


def run_digests(seed: int = 21) -> dict:
    """``{protocol: digest}`` of :func:`run_system` for every registry system."""
    digests = {}
    for name in registered_protocols():
        run = json.dumps(run_system(name, seed), sort_keys=True)
        digests[name] = hashlib.sha256(run.encode("utf-8")).hexdigest()
    return digests


def test_digests_are_identical_across_processes():
    """Guards against salted hashing anywhere on a seeded path.

    ``test_same_seed_is_bit_identical`` runs twice in one interpreter, so
    one hash salt: it cannot see a protocol that iterates a ``set`` of node
    ids.  A fresh interpreter with ``PYTHONHASHSEED`` unset draws another
    salt, so such an iteration order changes the subprocess's digest.
    """
    repo_root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(repo_root / "src"), str(repo_root)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("PYTHONHASHSEED", None)
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import json; from tests.test_determinism import run_digests; print(json.dumps(run_digests()))",
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=repo_root,
        check=True,
    )
    assert json.loads(result.stdout) == run_digests()


class TestForkRng:
    def test_fork_rng_is_label_stable(self):
        # The derived seed must depend only on (seed, label), never on the
        # process's hash salt: crc32 of the label, not hash().
        simulator = Simulator(seed=7)
        expected = (7 * 1_000_003 + zlib.crc32(b"node-1")) & 0x7FFFFFFF
        import random

        assert simulator.fork_rng("node-1").random() == random.Random(expected).random()

    def test_fork_rng_streams_are_independent(self):
        simulator = Simulator(seed=7)
        stream_a = simulator.fork_rng("a")
        stream_b = simulator.fork_rng("b")
        assert [stream_a.random() for _ in range(3)] != [stream_b.random() for _ in range(3)]


class TestEventLoopLiveCount:
    def test_len_is_maintained_not_scanned(self):
        from repro.sim.engine import EventLoop

        loop = EventLoop()
        events = [loop.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert len(loop) == 10
        events[3].cancel()
        events[3].cancel()  # double-cancel must not double-decrement
        assert len(loop) == 9
        loop.run()
        assert len(loop) == 0

    def test_cancel_after_fire_does_not_double_decrement(self):
        # A timer callback cancelling its own (just-fired) timer is the
        # normal batch-flush pattern; it must not corrupt the live count.
        from repro.sim.engine import EventLoop

        loop = EventLoop()
        fired = {}

        def flush():
            fired["event"].cancel()  # cancel the event that is firing

        fired["event"] = loop.schedule(1.0, flush)
        keeper = loop.schedule(2.0, lambda: None)
        loop.run_until(1.5)
        assert len(loop) == 1
        fired["event"].cancel()  # and cancelling again later is a no-op
        assert len(loop) == 1
        keeper.cancel()
        assert len(loop) == 0

    def test_len_tracks_pops_and_run_until(self):
        from repro.sim.engine import EventLoop

        loop = EventLoop()
        loop.schedule(0.5, lambda: None)
        later = loop.schedule(5.0, lambda: None)
        loop.run_until(1.0)
        assert len(loop) == 1
        later.cancel()
        assert len(loop) == 0
        loop.run()
        assert len(loop) == 0
