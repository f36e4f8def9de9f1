"""Tests for Canopus message types and wire-size accounting."""

from repro.canopus.messages import MembershipUpdate, Proposal, ProposalRequest
from repro.runtime.base import estimate_size
from repro.runtime.messages import ClientReply, ClientRequest, RequestType


class TestClientRequest:
    def test_request_ids_are_unique_and_increasing(self):
        first = ClientRequest(client_id="c", op=RequestType.READ, key="k")
        second = ClientRequest(client_id="c", op=RequestType.READ, key="k")
        assert second.request_id > first.request_id

    def test_is_write_and_is_read(self):
        write = ClientRequest(client_id="c", op=RequestType.WRITE, key="k", value="v")
        read = ClientRequest(client_id="c", op=RequestType.READ, key="k")
        assert write.is_write() and not write.is_read()
        assert read.is_read() and not read.is_write()

    def test_wire_size_is_fixed(self):
        request = ClientRequest(client_id="c", op=RequestType.WRITE, key="k", value="v")
        assert request.wire_size() == 48

    def test_repr_contains_operation_and_key(self):
        request = ClientRequest(client_id="c", op=RequestType.WRITE, key="mykey", value="v")
        assert "write" in repr(request)
        assert "mykey" in repr(request)


class TestProposal:
    def make_requests(self, count):
        return tuple(
            ClientRequest(client_id="c", op=RequestType.WRITE, key=f"k{i}", value="v")
            for i in range(count)
        )

    def test_wire_size_grows_with_requests(self):
        small = Proposal(cycle_id=1, round_number=1, vnode_id="n", sender="n", proposal_number=1,
                         requests=self.make_requests(1))
        large = Proposal(cycle_id=1, round_number=1, vnode_id="n", sender="n", proposal_number=1,
                         requests=self.make_requests(10))
        assert large.wire_size() > small.wire_size()

    def test_wire_size_includes_membership_updates(self):
        update = MembershipUpdate(action="delete", node_id="x", super_leaf="s")
        bare = Proposal(cycle_id=1, round_number=1, vnode_id="n", sender="n", proposal_number=1)
        with_update = Proposal(cycle_id=1, round_number=1, vnode_id="n", sender="n", proposal_number=1,
                               membership_updates=(update,))
        assert with_update.wire_size() == bare.wire_size() + update.wire_size()

    def test_key_identifies_vnode_state(self):
        proposal = Proposal(cycle_id=3, round_number=2, vnode_id="1.1", sender="a", proposal_number=9)
        assert proposal.key() == (3, 2, "1.1")


class TestProposalRequest:
    def test_names_a_vnode_state_by_cycle_and_vnode_alone(self):
        request = ProposalRequest(cycle_id=3, vnode_id="1.1", requester="a")
        assert (request.cycle_id, request.vnode_id, request.requester) == (3, "1.1", "a")
        assert not hasattr(request, "round_number")

    def test_wire_size_is_small(self):
        request = ProposalRequest(cycle_id=3, vnode_id="1.1", requester="a")
        assert request.wire_size() <= 32


class TestMembershipUpdate:
    def test_updates_are_hashable_and_comparable(self):
        a = MembershipUpdate(action="delete", node_id="x", super_leaf="s")
        b = MembershipUpdate(action="delete", node_id="x", super_leaf="s")
        assert a == b
        assert len({a, b}) == 1


class TestWireSizeHelper:
    def test_uses_wire_size_when_available(self):
        request = ClientRequest(client_id="c", op=RequestType.READ, key="k")
        assert estimate_size(request) == request.wire_size()

    def test_default_for_unknown_objects(self):
        assert estimate_size(object()) == 64

    def test_client_reply_size(self):
        reply = ClientReply(request_id=1, client_id="c", op=RequestType.READ, key="k",
                            value=None, committed_cycle=1)
        assert estimate_size(reply) == 48
