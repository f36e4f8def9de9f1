"""The Leaf-Only Tree (LOT) overlay (§4.1) and the emulation table (§4.6).

Only leaf nodes (*pnodes*) exist physically; interior nodes (*vnodes*) are
virtual and are emulated by every pnode in their subtree.  Pnodes in the
same rack form a *super-leaf* that shares a common height-1 parent vnode.

VNode identifiers follow the paper's dotted notation: the root is ``"1"``,
its children ``"1.1"``, ``"1.2"`` and so on, and a super-leaf's parent vnode
is the deepest vnode on a pnode's ancestor path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["VNode", "SuperLeaf", "LeafOnlyTree", "EmulationTable"]


@dataclass
class VNode:
    """A virtual interior node of the LOT."""

    vnode_id: str
    height: int
    parent: Optional[str]
    children: List[str] = field(default_factory=list)

    def __repr__(self) -> str:
        return f"<VNode {self.vnode_id} h={self.height}>"


@dataclass
class SuperLeaf:
    """A group of pnodes sharing one rack and one parent vnode."""

    name: str
    parent_vnode: str
    members: List[str] = field(default_factory=list)

    def peers_of(self, node_id: str) -> List[str]:
        return [member for member in self.members if member != node_id]

    def __contains__(self, node_id: str) -> bool:
        return node_id in self.members

    def __len__(self) -> int:
        return len(self.members)


class EmulationTable:
    """Maps each vnode to the pnodes currently believed to emulate it.

    The table is initialized from the full LOT (every vnode maps to every
    descendant pnode) and is subsequently maintained by applying membership
    updates agreed on during consensus cycles (§4.6).
    """

    def __init__(self, tree: "LeafOnlyTree") -> None:
        self._tree = tree
        self._emulators: Dict[str, List[str]] = {}
        for vnode_id in tree.vnodes:
            self._emulators[vnode_id] = list(tree.descendant_pnodes(vnode_id))

    def emulators(self, vnode_id: str) -> List[str]:
        """Live pnodes believed to emulate ``vnode_id`` (initial order)."""
        return list(self._emulators.get(vnode_id, []))

    def remove_node(self, node_id: str) -> None:
        """Remove a failed pnode from every vnode it emulated."""
        for emulator_list in self._emulators.values():
            if node_id in emulator_list:
                emulator_list.remove(node_id)

    def add_node(self, node_id: str) -> None:
        """Add a (re)joined pnode as an emulator of all of its ancestors.

        Nodes unknown to the LOT (assumption A3: the super-leaf structure
        never changes, so a genuinely new machine cannot appear mid-flight)
        are ignored.
        """
        if not self._tree.has_pnode(node_id):
            return
        for vnode_id in self._tree.ancestors_of_pnode(node_id):
            emulator_list = self._emulators.setdefault(vnode_id, [])
            if node_id not in emulator_list:
                emulator_list.append(node_id)

    def snapshot(self) -> Dict[str, Tuple[str, ...]]:
        """Immutable copy used by tests to compare tables across nodes."""
        return {vnode: tuple(nodes) for vnode, nodes in sorted(self._emulators.items())}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EmulationTable):
            return NotImplemented
        return self.snapshot() == other.snapshot()


class LeafOnlyTree:
    """The LOT structure shared (conceptually) by all Canopus nodes.

    The tree is defined by its super-leaves and a target height.  Interior
    vnodes are created by grouping super-leaves into a balanced tree of the
    requested height with a configurable fan-out.
    """

    ROOT_ID = "1"

    def __init__(
        self,
        super_leaves: Sequence[SuperLeaf],
        height: int = 2,
        fanout: Optional[int] = None,
    ) -> None:
        if height < 1:
            raise ValueError("LOT height must be at least 1")
        if not super_leaves:
            raise ValueError("LOT needs at least one super-leaf")
        self.height = height
        self.super_leaves: Dict[str, SuperLeaf] = {}
        self.vnodes: Dict[str, VNode] = {}
        self._pnode_super_leaf: Dict[str, str] = {}
        self._build(list(super_leaves), fanout)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, super_leaves: List[SuperLeaf], fanout: Optional[int]) -> None:
        count = len(super_leaves)
        levels = self.height
        if fanout is None:
            fanout = max(2, math.ceil(count ** (1.0 / max(1, levels - 1)))) if levels > 1 else count
        # Create the vnode skeleton top-down: root at height ``height``.
        root = VNode(vnode_id=self.ROOT_ID, height=self.height, parent=None)
        self.vnodes[root.vnode_id] = root
        frontier = [root]
        # Build interior levels down to height 1 (the super-leaf parents).
        for level in range(self.height - 1, 0, -1):
            new_frontier: List[VNode] = []
            if level == 1:
                # Height-1 vnodes: one per super-leaf, distributed round-robin
                # across the current frontier so the tree stays balanced.
                for index, leaf in enumerate(super_leaves):
                    parent = frontier[index % len(frontier)]
                    vnode_id = f"{parent.vnode_id}.{len(parent.children) + 1}"
                    vnode = VNode(vnode_id=vnode_id, height=1, parent=parent.vnode_id)
                    parent.children.append(vnode_id)
                    self.vnodes[vnode_id] = vnode
                    new_frontier.append(vnode)
                    leaf.parent_vnode = vnode_id
            else:
                needed = min(len(super_leaves), max(1, math.ceil(count / (fanout ** (level - 1)))))
                per_parent = max(1, math.ceil(needed / len(frontier)))
                for parent in frontier:
                    for _ in range(per_parent):
                        if len(new_frontier) >= needed:
                            break
                        vnode_id = f"{parent.vnode_id}.{len(parent.children) + 1}"
                        vnode = VNode(vnode_id=vnode_id, height=level, parent=parent.vnode_id)
                        parent.children.append(vnode_id)
                        self.vnodes[vnode_id] = vnode
                        new_frontier.append(vnode)
            frontier = new_frontier

        if self.height == 1:
            # Degenerate single-level tree: all super-leaves share the root.
            for leaf in super_leaves:
                leaf.parent_vnode = self.ROOT_ID

        for leaf in super_leaves:
            self.super_leaves[leaf.name] = leaf
            for member in leaf.members:
                self._pnode_super_leaf[member] = leaf.name

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def pnodes(self) -> List[str]:
        return list(self._pnode_super_leaf.keys())

    def has_pnode(self, node_id: str) -> bool:
        return node_id in self._pnode_super_leaf

    def super_leaf_of(self, node_id: str) -> SuperLeaf:
        return self.super_leaves[self._pnode_super_leaf[node_id]]

    def parent_vnode_of(self, node_id: str) -> str:
        return self.super_leaf_of(node_id).parent_vnode

    def vnode(self, vnode_id: str) -> VNode:
        return self.vnodes[vnode_id]

    def children_of(self, vnode_id: str) -> List[str]:
        """Children of a vnode: vnode ids, or super-leaf parent vnodes at height 1."""
        return list(self.vnodes[vnode_id].children)

    def ancestors_of_pnode(self, node_id: str) -> List[str]:
        """Vnode ancestors of a pnode from height 1 up to the root."""
        ancestors: List[str] = []
        current: Optional[str] = self.parent_vnode_of(node_id)
        while current is not None:
            ancestors.append(current)
            current = self.vnodes[current].parent
        return ancestors

    def ancestor_at_height(self, node_id: str, height: int) -> str:
        """The pnode's ancestor vnode at the given height (1 <= height <= tree height)."""
        ancestors = self.ancestors_of_pnode(node_id)
        for vnode_id in ancestors:
            if self.vnodes[vnode_id].height == height:
                return vnode_id
        raise KeyError(f"{node_id} has no ancestor at height {height}")

    def descendant_super_leaves(self, vnode_id: str) -> List[SuperLeaf]:
        """All super-leaves in the subtree rooted at ``vnode_id``."""
        vnode = self.vnodes[vnode_id]
        if vnode.height == 1:
            return [leaf for leaf in self.super_leaves.values() if leaf.parent_vnode == vnode_id]
        result: List[SuperLeaf] = []
        for child in vnode.children:
            result.extend(self.descendant_super_leaves(child))
        return result

    def descendant_pnodes(self, vnode_id: str) -> List[str]:
        """All pnodes that emulate ``vnode_id``."""
        return [member for leaf in self.descendant_super_leaves(vnode_id) for member in leaf.members]

    def rounds(self) -> int:
        """Number of rounds in a consensus cycle (= LOT height, §4.2)."""
        return self.height

    # ------------------------------------------------------------------
    # Representative / fetch planning
    # ------------------------------------------------------------------
    def required_vnodes(self, node_id: str, round_number: int) -> List[str]:
        """VNodes whose state a node must obtain to finish ``round_number``.

        In round *i* a node computes the state of its height-*i* ancestor,
        which requires the states of every child of that ancestor.  The
        child corresponding to the node's own height-(i-1) ancestor was
        computed in the previous round, so only the *sibling* subtrees need
        to be fetched remotely (§4.2).
        """
        if round_number <= 1:
            return []
        target = self.ancestor_at_height(node_id, min(round_number, self.height))
        own_branch = (
            self.parent_vnode_of(node_id)
            if round_number == 2
            else self.ancestor_at_height(node_id, round_number - 1)
        )
        return [child for child in self.children_of(target) if child != own_branch]

    # The fetch plan is a pure function of the cycle id and the live view:
    # every member of a super-leaf evaluates it on its own, and the round
    # only completes if they all arrive at the same answer.  Duty rotates
    # with the cycle id so that no member fetches, re-broadcasts and serves
    # in every cycle while its peers idle.
    @staticmethod
    def representatives(cycle_id: int, live_members: Iterable[str], count: int) -> List[str]:
        """The ``count`` live members on fetch duty in ``cycle_id`` (§4.5)."""
        members = sorted(live_members)
        count = min(count, len(members))
        first = cycle_id * count
        return [members[(first + i) % len(members)] for i in range(count)]

    @staticmethod
    def assign_representative(position: int, representatives: Sequence[str]) -> str:
        """The representative that fetches the ``position``-th required vnode.

        The paper assigns vnodes to representatives by taking the vnode id
        modulo the number of representatives (§4.5); the position in
        :meth:`required_vnodes` is that id, counted from zero.
        """
        if not representatives:
            raise ValueError("no representatives available")
        return representatives[position % len(representatives)]

    def fetch_plan(
        self,
        node_id: str,
        round_number: int,
        cycle_id: int,
        live_members: Iterable[str],
        count: int,
        redundancy: int = 1,
    ) -> Dict[str, List[str]]:
        """Who in ``node_id``'s super-leaf fetches what in one round.

        Maps each required vnode to its fetchers; with ``redundancy`` > 1
        the following representatives fetch it as well (§4.5), and a
        fetcher's index in the list is its rank for :meth:`emulator_for`.
        """
        reps = self.representatives(cycle_id, live_members, count)
        plan: Dict[str, List[str]] = {}
        for position, vnode_id in enumerate(self.required_vnodes(node_id, round_number)):
            plan[vnode_id] = [
                self.assign_representative(position + rank, reps)
                for rank in range(min(redundancy, len(reps)))
            ]
        return plan

    def emulator_for(
        self, vnode_id: str, node_id: str, cycle_id: int, turn: int, emulators: Sequence[str]
    ) -> str:
        """The emulator of ``vnode_id`` that ``node_id`` asks in ``cycle_id``.

        Offsetting by the requesting super-leaf's index among the
        super-leaves that need this vnode (those under its siblings; at
        height 1, the siblings themselves) sends them to different emulators
        in one cycle; ``turn`` (fetcher rank + retries so far) moves
        redundant fetchers apart and retries past a dead emulator.
        """
        inside = {leaf.name for leaf in self.descendant_super_leaves(vnode_id)}
        requesters = [
            leaf.name
            for leaf in self.descendant_super_leaves(self.vnodes[vnode_id].parent)
            if leaf.name not in inside
        ]
        index = requesters.index(self._pnode_super_leaf[node_id])
        return emulators[(cycle_id + index + turn) % len(emulators)]

    # ------------------------------------------------------------------
    @classmethod
    def from_rack_map(
        cls, rack_map: Dict[str, Sequence[str]], height: int = 2, fanout: Optional[int] = None
    ) -> "LeafOnlyTree":
        """Build a LOT from ``{rack/super-leaf name: [node ids]}``."""
        leaves = [
            SuperLeaf(name=name, parent_vnode="", members=list(members))
            for name, members in sorted(rack_map.items())
        ]
        return cls(leaves, height=height, fanout=fanout)

    def new_emulation_table(self) -> EmulationTable:
        return EmulationTable(self)

    def __repr__(self) -> str:
        return (
            f"<LOT height={self.height} super_leaves={len(self.super_leaves)} "
            f"pnodes={len(self.pnodes)}>"
        )
