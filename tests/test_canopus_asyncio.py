"""Canopus on the asyncio transport: the same protocol code, real concurrency."""


from repro.canopus.config import CanopusConfig
from repro.canopus.messages import ClientRequest, RequestType
from repro.protocols import build_protocol
from repro.runtime.asyncio_runtime import AsyncioTopology
from repro.verify.agreement import check_agreement


def asyncio_config(**overrides):
    defaults = dict(
        broadcast_mode="ideal",
        pipelining=False,
        cycle_interval_s=0.02,
        heartbeat_interval_s=0.5,
        fetch_timeout_s=0.5,
    )
    defaults.update(overrides)
    return CanopusConfig(**defaults)


def deploy(rack_map, config, replies):
    """Canopus through the registry on an asyncio topology over ``rack_map``."""
    topology = AsyncioTopology(rack_map)
    protocol = build_protocol("canopus", topology, config=config, on_reply=replies.append)
    return topology, protocol


def write(key, value, client="c"):
    return ClientRequest(client_id=client, op=RequestType.WRITE, key=key, value=value)


def read(key, client="c"):
    return ClientRequest(client_id=client, op=RequestType.READ, key=key)


class TestAsyncioCanopus:
    def test_two_super_leaves_reach_agreement(self):
        replies = []
        topology, protocol = deploy(
            {"rack-a": ["a1", "a2", "a3"], "rack-b": ["b1", "b2", "b3"]},
            asyncio_config(),
            replies,
        )
        topology.cluster.default_latency_s = 0.0005
        protocol.start()
        for index, node in enumerate(protocol.nodes.values()):
            node.submit(write(f"key-{index}", f"value-{index}"))
        topology.cluster.run(topology.cluster.settle(timeout_s=10.0, quiescent_rounds=10))
        topology.cluster.run_for(0.2)
        protocol.stop()
        topology.cluster.close()
        orders = protocol.committed_logs()
        assert {len(order) for order in orders.values()} == {6}
        ok, message = check_agreement(orders)
        assert ok, message

    def test_read_returns_committed_value_over_asyncio(self):
        replies = []
        topology, protocol = deploy(
            {"rack-a": ["a1", "a2", "a3"], "rack-b": ["b1", "b2", "b3"]},
            asyncio_config(),
            replies,
        )
        protocol.start()
        first = next(iter(protocol.nodes.values()))
        last = list(protocol.nodes.values())[-1]
        write_request = write("shared", "42")
        first.submit(write_request)
        topology.cluster.run_for(0.3)
        read_request = read("shared")
        last.submit(read_request)
        topology.cluster.run_for(0.4)
        protocol.stop()
        topology.cluster.close()
        reply = next((r for r in replies if r.request_id == read_request.request_id), None)
        assert reply is not None
        assert reply.value == "42"

    def test_wan_latencies_between_super_leaves(self):
        """Super-leaves separated by injected WAN latency still agree."""
        replies = []
        topology, protocol = deploy(
            {"dc-ireland": ["ir1", "ir2"], "dc-sydney": ["sy1", "sy2"]},
            asyncio_config(cycle_interval_s=0.05),
            replies,
        )
        for a in ("ir1", "ir2"):
            for b in ("sy1", "sy2"):
                topology.cluster.set_latency(a, b, 0.05)
        protocol.start()
        protocol.node("ir1").submit(write("k", "from-ireland"))
        protocol.node("sy1").submit(write("k", "from-sydney"))
        topology.cluster.run_for(1.0)
        protocol.stop()
        topology.cluster.close()
        orders = protocol.committed_logs()
        ok, message = check_agreement(orders)
        assert ok, message
        assert {len(order) for order in orders.values()} == {2}
