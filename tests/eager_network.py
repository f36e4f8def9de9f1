"""The eager reference network: one delivery event per arrival, no lanes.

:class:`EagerNetwork` is the reference the lane-delivery differential
tests compare :class:`repro.sim.network.Network` against.  It shares with
the real network only the link arithmetic (:meth:`Link.transmit`), the
host CPU model (:meth:`Host.receive` and the dispatch queue) and routing.
Everything the lanes do lazily happens here at the arrival instant, through
one :class:`DeliveryQueue` per link:

* a host charges its CPU for a packet at the packet's arrival event;
* a switch forwards a packet at its arrival event, charging the egress
  link as of that instant.

The lanes are still wired by ``add_link`` but nothing is ever pushed into
them, so the drain events, wake-ups and the settle hook have nothing to do.
"""

from repro.sim.engine import SimulationError
from repro.sim.network import DeliveryQueue, Network, Packet


class EagerNetwork(Network):
    """A :class:`Network` that delivers every arrival with its own event."""

    def __init__(self, loop):
        super().__init__(loop)
        #: Link -> the queue that delivers its arrivals to the far end.
        self.arrivals = {}

    def add_link(self, a, b, latency_s, bandwidth_bps):
        super().add_link(a, b, latency_s, bandwidth_bps)
        for src, dst in ((a, b), (b, a)):
            deliver = self._arrive_at(dst)
            self.arrivals[self.links[(src, dst)]] = DeliveryQueue(self.loop, deliver, priority=5)

    def _arrive_at(self, name):
        """The per-arrival callback of element ``name``."""
        if name in self.hosts:
            return self.hosts[name].receive
        switch = self.switches[name]

        def forward(packet):
            switch.packets_forwarded += 1
            self._transmit(self.links[(name, self.next_hop(name, packet.dst))], packet)

        return forward

    def _transmit(self, link, packet, start=None):
        self.arrivals[link].push(link.transmit(packet, start), packet)

    def _deliver_fanout(self, src, items):
        """Inject each item at its CPU-finish instant, one packet at a time."""
        if src not in self.hosts:
            raise SimulationError(f"send requires host endpoints ({src} -> ...)")
        for dst, payload, size_bytes, when in items:
            link = self._first_hop(src, dst)
            if self.hosts[dst].failed:
                self.dropped_packets += 1
                continue
            packet = Packet(src, dst, payload, size_bytes, next(self._packet_ids), when)
            if self._obs is not None:
                self._obs.packet_sent(packet)
            if link is None:
                self._loopback_queue(dst).push(when + self.local_loopback_latency_s, packet)
            else:
                self._transmit(link, packet, when)
