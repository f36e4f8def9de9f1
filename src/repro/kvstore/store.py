"""Hierarchical znode store (the ZooKeeper data model, simplified).

Paths are ``/``-separated; every node carries a value, a version, and
creation / modification counters.  The store supports the operations the
paper's workloads need (`create`, `set`, `get`, `delete`, `exists`,
`children`) plus a flat ``write``/``read`` facade used when the workload is
a plain key-value load (keys are mapped to znodes under ``/kv``).

Every replica keeps the whole tree for the whole run, so a znode stores
only what something reads: its name (for a flat key, the request's own key
string, which every replica shares), a parent reference, value, version and
zxids.  Its full path is derived from the parent chain, and its child map
is created with its first child.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["ZNode", "KVStore", "NoNodeError", "NodeExistsError", "BadVersionError"]


class NoNodeError(KeyError):
    """Raised when an operation targets a path that does not exist."""


class NodeExistsError(ValueError):
    """Raised when creating a path that already exists."""


class BadVersionError(ValueError):
    """Raised when a conditional set/delete specifies a stale version."""


@dataclass(slots=True)
class ZNode:
    """One node of the data tree."""

    name: str
    parent: Optional["ZNode"]
    value: str = ""
    version: int = 0
    created_zxid: int = 0
    modified_zxid: int = 0
    #: None until the first child is created.
    children: Optional[Dict[str, "ZNode"]] = None

    @property
    def path(self) -> str:
        names = []
        node = self
        while node.parent is not None:
            names.append(node.name)
            node = node.parent
        return "/" + "/".join(reversed(names))

    def stat(self) -> Dict[str, int]:
        return {
            "version": self.version,
            "created_zxid": self.created_zxid,
            "modified_zxid": self.modified_zxid,
            "num_children": len(self.children) if self.children else 0,
        }


def _split(path: str) -> List[str]:
    if not path.startswith("/"):
        raise ValueError(f"paths must be absolute, got {path!r}")
    parts = [part for part in path.split("/") if part]
    return parts


class KVStore:
    """The in-memory data tree of one replica."""

    def __init__(self) -> None:
        # The root's child map is made up front: the flat facade reads it
        # on every call.
        self.root = ZNode("", None, children={})
        self._zxid = 0
        self.writes_applied = 0
        self.reads_served = 0

    # ------------------------------------------------------------------
    # Tree navigation
    # ------------------------------------------------------------------
    def _lookup(self, path: str) -> ZNode:
        node = self.root
        for part in _split(path):
            if not node.children or part not in node.children:
                raise NoNodeError(path)
            node = node.children[part]
        return node

    def exists(self, path: str) -> bool:
        try:
            self._lookup(path)
            return True
        except NoNodeError:
            return False

    def children(self, path: str) -> List[str]:
        return sorted(self._lookup(path).children or ())

    def walk(self) -> Iterator[ZNode]:
        """Depth-first iteration over every znode."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if node.children:
                stack.extend(node.children.values())

    # ------------------------------------------------------------------
    # Mutations (applied in commit order by the consensus layer)
    # ------------------------------------------------------------------
    def create(self, path: str, value: str = "", parents: bool = False) -> ZNode:
        parts = _split(path)
        node = self.root
        for index, part in enumerate(parts):
            last = index == len(parts) - 1
            if node.children and part in node.children:
                node = node.children[part]
                if last:
                    raise NodeExistsError(path)
            else:
                if not last and not parents:
                    raise NoNodeError("/" + "/".join(parts[: index + 1]))
                self._zxid += 1
                child = ZNode(
                    part,
                    node,
                    value=value if last else "",
                    created_zxid=self._zxid,
                    modified_zxid=self._zxid,
                )
                if node.children is None:
                    node.children = {}
                node.children[part] = child
                node = child
        self.writes_applied += 1
        return node

    def set(self, path: str, value: str, expected_version: Optional[int] = None) -> ZNode:
        node = self._lookup(path)
        if expected_version is not None and node.version != expected_version:
            raise BadVersionError(f"{path}: expected v{expected_version}, have v{node.version}")
        self._zxid += 1
        node.value = value
        node.version += 1
        node.modified_zxid = self._zxid
        self.writes_applied += 1
        return node

    def delete(self, path: str, expected_version: Optional[int] = None) -> None:
        parts = _split(path)
        if not parts:
            raise ValueError("cannot delete the root")
        node = self._lookup(path)
        if expected_version is not None and node.version != expected_version:
            raise BadVersionError(f"{path}: expected v{expected_version}, have v{node.version}")
        if node.children:
            raise ValueError(f"{path} has children")
        self._zxid += 1
        del node.parent.children[node.name]
        self.writes_applied += 1

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, path: str) -> str:
        self.reads_served += 1
        return self._lookup(path).value

    def stat(self, path: str) -> Dict[str, int]:
        return self._lookup(path).stat()

    # ------------------------------------------------------------------
    # Flat key-value facade used by the paper-style KV workloads
    # ------------------------------------------------------------------
    KV_PREFIX = "/kv"
    _KV_NAME = KV_PREFIX[1:]

    def write(self, key: str, value: str) -> str:
        """Upsert ``key`` (a flat key, stored under ``/kv/<key>``)."""
        if not key or "/" in key:
            # A key with path structure of its own: the generic tree walk.
            path = f"{self.KV_PREFIX}/{key}"
            try:
                self.set(path, value)
            except NoNodeError:
                self.create(path, value, parents=True)
            return value
        # Flat key: walk /kv/<key> directly.  Same zxid, version and
        # writes_applied accounting as set() / create(parents=True).
        kv = self.root.children.get(self._KV_NAME)
        if kv is None:
            self._zxid += 1
            kv = ZNode(self._KV_NAME, self.root, created_zxid=self._zxid, modified_zxid=self._zxid)
            self.root.children[self._KV_NAME] = kv
        self._zxid += 1
        children = kv.children
        if children is None:
            children = kv.children = {}
        node = children.get(key)
        if node is None:
            children[key] = ZNode(key, kv, value, created_zxid=self._zxid, modified_zxid=self._zxid)
        else:
            node.value = value
            node.version += 1
            node.modified_zxid = self._zxid
        self.writes_applied += 1
        return value

    def read(self, key: str) -> Optional[str]:
        """Read a flat key; returns ``None`` when absent."""
        if not key or "/" in key:
            try:
                return self.get(f"{self.KV_PREFIX}/{key}")
            except NoNodeError:
                return None
        self.reads_served += 1
        kv = self.root.children.get(self._KV_NAME)
        node = kv.children.get(key) if kv is not None and kv.children else None
        return node.value if node is not None else None

    # ------------------------------------------------------------------
    def size(self) -> int:
        return sum(1 for _ in self.walk()) - 1

    def snapshot(self) -> Dict[str, Tuple[str, int]]:
        """Flat ``{path: (value, version)}`` snapshot for replica comparison."""
        return {node.path: (node.value, node.version) for node in self.walk() if node is not self.root}
