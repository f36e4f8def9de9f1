"""Tests (including property-based) for proposal ordering and merging."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.canopus.messages import MembershipUpdate, Proposal
from repro.canopus.proposal import max_proposal_number, merge_proposals, order_proposals
from repro.runtime.messages import ClientRequest, RequestType


def make_proposal(sender, number, keys=(), cycle=1, round_number=1):
    requests = tuple(
        ClientRequest(client_id=sender, op=RequestType.WRITE, key=key, value="v") for key in keys
    )
    return Proposal(
        cycle_id=cycle,
        round_number=round_number,
        vnode_id=sender,
        sender=sender,
        proposal_number=number,
        requests=requests,
    )


class TestOrdering:
    def test_orders_by_proposal_number(self):
        proposals = [make_proposal("a", 30), make_proposal("b", 10), make_proposal("c", 20)]
        ordered = order_proposals(proposals)
        assert [p.sender for p in ordered] == ["b", "c", "a"]

    def test_ties_broken_by_id(self):
        proposals = [make_proposal("z", 5), make_proposal("a", 5)]
        ordered = order_proposals(proposals)
        assert [p.sender for p in ordered] == ["a", "z"]

    def test_max_proposal_number(self):
        proposals = [make_proposal("a", 3), make_proposal("b", 42)]
        assert max_proposal_number(proposals) == 42
        assert max_proposal_number([]) == 0


class TestMerge:
    def test_merge_concatenates_requests_in_order(self):
        pa = make_proposal("a", 20, keys=("a1", "a2"))
        pb = make_proposal("b", 10, keys=("b1",))
        merged = merge_proposals(1, 2, "1.1", "a", [pa, pb])
        assert [r.key for r in merged.requests] == ["b1", "a1", "a2"]

    def test_merge_takes_largest_proposal_number(self):
        children = [make_proposal("a", 7, keys=("a1",)), make_proposal("b", 99, keys=("b1",))]
        assert merge_proposals(1, 2, "1.1", "a", children).proposal_number == 99

    def test_merge_ignores_a_void_proposal_and_its_number(self):
        """A void proposal is broadcast without agreement: a member that
        missed it must compute the same state as one that counted it."""
        update = MembershipUpdate(action="delete", node_id="x", super_leaf="s")
        carries_update = Proposal(1, 1, "c", "c", 50, membership_updates=(update,))
        assert make_proposal("v", 99).is_void()
        assert not carries_update.is_void() and not make_proposal("a", 7, keys=("a1",)).is_void()
        children = [make_proposal("a", 7, keys=("a1",)), carries_update]
        without = merge_proposals(1, 2, "1.1", "a", children)
        counted = merge_proposals(1, 2, "1.1", "a", children + [make_proposal("v", 99)])
        assert counted == without
        assert counted.proposal_number == 50
        assert merge_proposals(1, 2, "1.1", "a", [make_proposal("v", 99)]).proposal_number == 0

    def test_merge_preserves_intra_proposal_request_order(self):
        proposal = make_proposal("a", 5, keys=("first", "second", "third"))
        merged = merge_proposals(1, 2, "1.1", "a", [proposal])
        assert [r.key for r in merged.requests] == ["first", "second", "third"]

    def test_merge_unions_membership_updates_without_duplicates(self):
        update = MembershipUpdate(action="delete", node_id="x", super_leaf="s")
        pa = Proposal(cycle_id=1, round_number=1, vnode_id="a", sender="a", proposal_number=1,
                      membership_updates=(update,))
        pb = Proposal(cycle_id=1, round_number=1, vnode_id="b", sender="b", proposal_number=2,
                      membership_updates=(update,))
        merged = merge_proposals(1, 2, "1.1", "a", [pa, pb])
        assert merged.membership_updates == (update,)

    def test_merge_sets_identity_fields(self):
        merged = merge_proposals(4, 3, "1.2", "node-x", [make_proposal("a", 1)])
        assert merged.cycle_id == 4
        assert merged.round_number == 3
        assert merged.vnode_id == "1.2"
        assert merged.sender == "node-x"

    def test_merge_of_empty_proposals_yields_empty_requests(self):
        merged = merge_proposals(1, 2, "1.1", "a", [make_proposal("a", 1), make_proposal("b", 2)])
        assert merged.requests == ()


# ----------------------------------------------------------------------
# Property-based tests: the merge result must not depend on the order in
# which child proposals were collected (this is what makes every node in a
# super-leaf compute the same vnode state).
# ----------------------------------------------------------------------
proposal_strategy = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "d", "e"]),
        st.integers(min_value=0, max_value=2 ** 32),
        st.lists(st.sampled_from(["k1", "k2", "k3"]), max_size=3),
    ),
    min_size=1,
    max_size=5,
    unique_by=lambda t: t[0],
)


@given(proposal_strategy, st.randoms())
@settings(max_examples=60, deadline=None)
def test_merge_is_permutation_invariant(spec, rng):
    proposals = [make_proposal(sender, number, keys=tuple(keys)) for sender, number, keys in spec]
    shuffled = list(proposals)
    rng.shuffle(shuffled)
    merged_a = merge_proposals(1, 2, "1.1", "x", proposals)
    merged_b = merge_proposals(1, 2, "1.1", "x", shuffled)
    assert [r.request_id for r in merged_a.requests] == [r.request_id for r in merged_b.requests]
    assert merged_a.proposal_number == merged_b.proposal_number


membership_strategy = st.lists(
    st.builds(
        MembershipUpdate,
        action=st.sampled_from(["add", "delete"]),
        node_id=st.sampled_from(["x", "y"]),
        super_leaf=st.just("s"),
    ),
    max_size=2,
)


@given(
    proposal_strategy,
    st.lists(membership_strategy, min_size=5, max_size=5),
    st.lists(
        st.tuples(st.sampled_from(["v", "w", "a0"]), st.integers(min_value=0, max_value=2 ** 32)),
        max_size=3,
        unique_by=lambda t: t[0],
    ),
    st.randoms(),
)
@settings(max_examples=100, deadline=None)
def test_merge_is_the_same_with_and_without_void_members(spec, updates, void_spec, rng):
    """Requests, membership updates *and* proposal number: the number orders
    this state among its siblings one round up, so a void member's number
    leaking into it would reorder requests at members that counted it."""
    proposals = [
        Proposal(1, 1, sender, sender, number,
                 requests=make_proposal(sender, number, keys=tuple(keys)).requests,
                 membership_updates=tuple(membership))
        for (sender, number, keys), membership in zip(spec, updates)
    ]
    voids = [make_proposal(sender, number) for sender, number in void_spec]
    mixed = proposals + voids
    rng.shuffle(mixed)
    assert merge_proposals(1, 2, "1.1", "x", mixed) == merge_proposals(1, 2, "1.1", "x", proposals)


@given(proposal_strategy)
@settings(max_examples=60, deadline=None)
def test_merge_preserves_every_request_exactly_once(spec):
    proposals = [make_proposal(sender, number, keys=tuple(keys)) for sender, number, keys in spec]
    merged = merge_proposals(1, 2, "1.1", "x", proposals)
    expected = sorted(r.request_id for p in proposals for r in p.requests)
    assert sorted(r.request_id for r in merged.requests) == expected


@given(proposal_strategy)
@settings(max_examples=60, deadline=None)
def test_ordering_is_total_and_stable(spec):
    proposals = [make_proposal(sender, number, keys=tuple(keys)) for sender, number, keys in spec]
    ordered = order_proposals(proposals)
    keys = [(p.proposal_number, p.vnode_id, p.sender) for p in ordered]
    assert keys == sorted(keys)
    assert len(ordered) == len(proposals)
