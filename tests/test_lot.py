"""Tests for the Leaf-Only Tree overlay and emulation table."""

import pytest

from repro.canopus.lot import LeafOnlyTree, SuperLeaf


def make_lot(super_leaf_count=3, members_per_leaf=3, height=2):
    rack_map = {
        f"rack-{i}": [f"n{i}-{j}" for j in range(members_per_leaf)]
        for i in range(super_leaf_count)
    }
    return LeafOnlyTree.from_rack_map(rack_map, height=height)


class TestConstruction:
    def test_pnode_count(self):
        lot = make_lot(3, 3)
        assert len(lot.pnodes) == 9

    def test_each_super_leaf_has_a_height_one_parent(self):
        lot = make_lot(3, 3)
        for leaf in lot.super_leaves.values():
            assert lot.vnodes[leaf.parent_vnode].height == 1

    def test_root_has_height_equal_to_tree_height(self):
        lot = make_lot(3, 3, height=2)
        assert lot.vnodes[LeafOnlyTree.ROOT_ID].height == 2

    def test_rounds_equals_height(self):
        assert make_lot(height=2).rounds() == 2
        assert make_lot(super_leaf_count=9, height=3).rounds() == 3

    def test_height_one_tree_with_single_super_leaf(self):
        lot = make_lot(super_leaf_count=1, height=1)
        leaf = next(iter(lot.super_leaves.values()))
        assert leaf.parent_vnode == LeafOnlyTree.ROOT_ID

    def test_height_three_tree_structure(self):
        lot = make_lot(super_leaf_count=9, members_per_leaf=3, height=3)
        root_children = lot.children_of(LeafOnlyTree.ROOT_ID)
        assert root_children
        for child in root_children:
            assert lot.vnodes[child].height == 2
        # All 9 super-leaves reachable from the root.
        assert len(lot.descendant_super_leaves(LeafOnlyTree.ROOT_ID)) == 9

    def test_invalid_height_rejected(self):
        with pytest.raises(ValueError):
            LeafOnlyTree([SuperLeaf(name="s", parent_vnode="", members=["a"])], height=0)

    def test_empty_tree_rejected(self):
        with pytest.raises(ValueError):
            LeafOnlyTree([], height=2)


class TestQueries:
    def test_super_leaf_of(self):
        lot = make_lot()
        assert lot.super_leaf_of("n1-2").name == "rack-1"

    def test_peers_of_excludes_self(self):
        lot = make_lot()
        peers = lot.super_leaf_of("n0-0").peers_of("n0-0")
        assert "n0-0" not in peers
        assert len(peers) == 2

    def test_ancestors_of_pnode_end_at_root(self):
        lot = make_lot(3, 3, height=2)
        ancestors = lot.ancestors_of_pnode("n0-0")
        assert ancestors[-1] == LeafOnlyTree.ROOT_ID
        assert len(ancestors) == 2

    def test_ancestor_at_height(self):
        lot = make_lot(3, 3, height=2)
        assert lot.ancestor_at_height("n0-0", 2) == LeafOnlyTree.ROOT_ID
        assert lot.vnodes[lot.ancestor_at_height("n0-0", 1)].height == 1

    def test_ancestor_at_missing_height_raises(self):
        lot = make_lot(3, 3, height=2)
        with pytest.raises(KeyError):
            lot.ancestor_at_height("n0-0", 5)

    def test_descendant_pnodes_of_root_is_everyone(self):
        lot = make_lot(3, 3)
        assert sorted(lot.descendant_pnodes(LeafOnlyTree.ROOT_ID)) == sorted(lot.pnodes)

    def test_descendant_pnodes_of_height1_vnode_is_its_super_leaf(self):
        lot = make_lot(3, 3)
        leaf = lot.super_leaf_of("n2-0")
        assert sorted(lot.descendant_pnodes(leaf.parent_vnode)) == sorted(leaf.members)


class TestRequiredVNodes:
    def test_round_one_requires_nothing_remote(self):
        lot = make_lot()
        assert lot.required_vnodes("n0-0", 1) == []

    def test_round_two_requires_sibling_super_leaf_vnodes(self):
        lot = make_lot(3, 3, height=2)
        required = lot.required_vnodes("n0-0", 2)
        own = lot.parent_vnode_of("n0-0")
        assert own not in required
        assert len(required) == 2
        for vnode in required:
            assert lot.vnodes[vnode].height == 1

    def test_required_vnodes_height_three(self):
        lot = make_lot(super_leaf_count=9, height=3)
        required_round2 = lot.required_vnodes("n0-0", 2)
        required_round3 = lot.required_vnodes("n0-0", 3)
        # Round 2 needs sibling height-1 vnodes under the height-2 ancestor;
        # round 3 needs the other height-2 subtrees.
        for vnode in required_round2:
            assert lot.vnodes[vnode].height == 1
        for vnode in required_round3:
            assert lot.vnodes[vnode].height == 2
        assert lot.ancestor_at_height("n0-0", 2) not in required_round3


class TestRepresentativeAssignment:
    def test_assignment_is_deterministic(self):
        reps = ["a", "b"]
        assert LeafOnlyTree.assign_representative(1, reps) == LeafOnlyTree.assign_representative(1, reps)

    def test_assignment_spreads_across_representatives(self):
        reps = ["a", "b"]
        assigned = [LeafOnlyTree.assign_representative(position, reps) for position in range(4)]
        assert assigned == ["a", "b", "a", "b"]

    def test_assignment_requires_representatives(self):
        with pytest.raises(ValueError):
            LeafOnlyTree.assign_representative(0, [])

    def test_single_representative_gets_everything(self):
        assert LeafOnlyTree.assign_representative(2, ["only"]) == "only"


class TestFetchPlan:
    """The round-2 fetch plan: a pure function of (cycle id, live view)."""

    K = 2

    def plan(self, lot, node_id, cycle_id, live=None, redundancy=1):
        live = lot.super_leaf_of(node_id).members if live is None else live
        return lot.fetch_plan(node_id, 2, cycle_id, live, self.K, redundancy)

    def test_representatives_rotate_over_the_live_members(self):
        members = ["c", "a", "b"]
        assert LeafOnlyTree.representatives(0, members, 2) == ["a", "b"]
        assert LeafOnlyTree.representatives(1, members, 2) == ["c", "a"]
        assert LeafOnlyTree.representatives(2, members, 2) == ["b", "c"]
        assert LeafOnlyTree.representatives(0, members, 5) == ["a", "b", "c"]
        assert LeafOnlyTree.representatives(7, [], 2) == []

    def test_every_required_vnode_has_a_fetcher(self):
        lot = make_lot(3, 3)
        for cycle_id in range(1, 10):
            plan = self.plan(lot, "n0-0", cycle_id)
            assert list(plan) == lot.required_vnodes("n0-0", 2)
            assert all(len(fetchers) == 1 for fetchers in plan.values())

    @pytest.mark.parametrize("members_per_leaf", [3, 4, 9])
    def test_every_member_fetches_equally_often(self, members_per_leaf):
        lot = make_lot(3, members_per_leaf)
        members = lot.super_leaf_of("n1-0").members
        duty = {member: 0 for member in members}
        for cycle_id in range(1, members_per_leaf * self.K + 1):
            for fetchers in self.plan(lot, "n1-0", cycle_id).values():
                for fetcher in fetchers:
                    duty[fetcher] += 1
        assert len(set(duty.values())) == 1 and duty[members[0]] > 0, duty

    def test_all_members_compute_the_same_plan(self):
        lot = make_lot(3, 4)
        members = lot.super_leaf_of("n2-0").members
        for cycle_id in range(1, 9):
            plans = [self.plan(lot, member, cycle_id, live=reversed(members)) for member in members]
            assert all(plan == plans[0] for plan in plans)

    def test_removed_member_never_appears(self):
        lot = make_lot(3, 4)
        live = [member for member in lot.super_leaf_of("n0-0").members if member != "n0-2"]
        for cycle_id in range(1, 13):
            for fetchers in self.plan(lot, "n0-0", cycle_id, live=live).values():
                assert "n0-2" not in fetchers

    def test_redundant_fetchers_are_distinct_representatives(self):
        lot = make_lot(3, 4)
        for cycle_id in range(1, 9):
            for fetchers in self.plan(lot, "n0-0", cycle_id, redundancy=2).values():
                assert len(fetchers) == 2 and len(set(fetchers)) == 2
        # No more fetchers than representatives, whatever the redundancy.
        assert all(len(f) == self.K for f in self.plan(lot, "n0-0", 1, redundancy=5).values())

    # Holds whenever a vnode has at least as many emulators as siblings.
    @pytest.mark.parametrize("height, leaves, members", [(2, 3, 3), (2, 5, 4), (3, 9, 3)])
    def test_super_leaves_ask_different_emulators_for_one_vnode(self, height, leaves, members):
        lot = make_lot(leaves, members, height=height)
        table = lot.new_emulation_table()
        for cycle_id in range(1, 8):
            for round_number in range(2, height + 1):
                asked = {}  # (vnode, emulator) -> requesting super-leaf
                for leaf in lot.super_leaves.values():
                    node_id = leaf.members[0]
                    for vnode_id in lot.required_vnodes(node_id, round_number):
                        emulators = table.emulators(vnode_id)
                        emulator = lot.emulator_for(vnode_id, node_id, cycle_id, 0, emulators)
                        assert emulator in emulators
                        assert asked.setdefault((vnode_id, emulator), leaf.name) == leaf.name

    def test_retry_moves_to_another_emulator(self):
        lot = make_lot(3, 3)
        emulators = lot.new_emulation_table().emulators("1.2")
        asked = {lot.emulator_for("1.2", "n0-0", 4, turn, emulators) for turn in range(3)}
        assert asked == set(emulators)


class TestEmulationTable:
    def test_initial_table_maps_vnodes_to_all_descendants(self):
        lot = make_lot(3, 3)
        table = lot.new_emulation_table()
        assert sorted(table.emulators(LeafOnlyTree.ROOT_ID)) == sorted(lot.pnodes)
        leaf = lot.super_leaf_of("n1-0")
        assert sorted(table.emulators(leaf.parent_vnode)) == sorted(leaf.members)

    def test_remove_node_removes_from_every_vnode(self):
        lot = make_lot(3, 3)
        table = lot.new_emulation_table()
        table.remove_node("n1-0")
        assert "n1-0" not in table.emulators(LeafOnlyTree.ROOT_ID)
        assert "n1-0" not in table.emulators(lot.parent_vnode_of("n1-0"))

    def test_add_node_restores_emulator(self):
        lot = make_lot(3, 3)
        table = lot.new_emulation_table()
        table.remove_node("n1-0")
        table.add_node("n1-0")
        assert "n1-0" in table.emulators(LeafOnlyTree.ROOT_ID)

    def test_tables_with_same_history_are_equal(self):
        lot = make_lot(3, 3)
        table_a, table_b = lot.new_emulation_table(), lot.new_emulation_table()
        table_a.remove_node("n2-1")
        table_b.remove_node("n2-1")
        assert table_a == table_b

    def test_tables_with_diverging_history_are_unequal(self):
        lot = make_lot(3, 3)
        table_a, table_b = lot.new_emulation_table(), lot.new_emulation_table()
        table_a.remove_node("n2-1")
        assert table_a != table_b

    def test_snapshot_is_immutable_copy(self):
        lot = make_lot(3, 3)
        table = lot.new_emulation_table()
        snapshot = table.snapshot()
        table.remove_node("n0-0")
        assert "n0-0" in snapshot[LeafOnlyTree.ROOT_ID]
