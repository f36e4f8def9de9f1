"""Tests for the znode store."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore.store import BadVersionError, KVStore, NodeExistsError, NoNodeError


class TestZNodeTree:
    def test_create_and_get(self):
        store = KVStore()
        store.create("/app", "root-value")
        assert store.get("/app") == "root-value"

    def test_create_nested_requires_parents_flag(self):
        store = KVStore()
        with pytest.raises(NoNodeError):
            store.create("/a/b/c", "x")
        store.create("/a/b/c", "x", parents=True)
        assert store.get("/a/b/c") == "x"

    def test_create_existing_raises(self):
        store = KVStore()
        store.create("/a", "1")
        with pytest.raises(NodeExistsError):
            store.create("/a", "2")

    def test_set_bumps_version(self):
        store = KVStore()
        store.create("/a", "1")
        assert store.stat("/a")["version"] == 0
        store.set("/a", "2")
        assert store.stat("/a")["version"] == 1
        assert store.get("/a") == "2"

    def test_conditional_set_with_stale_version_fails(self):
        store = KVStore()
        store.create("/a", "1")
        store.set("/a", "2")
        with pytest.raises(BadVersionError):
            store.set("/a", "3", expected_version=0)

    def test_delete_leaf(self):
        store = KVStore()
        store.create("/a/b", "x", parents=True)
        store.delete("/a/b")
        assert not store.exists("/a/b")
        assert store.exists("/a")

    def test_delete_with_children_rejected(self):
        store = KVStore()
        store.create("/a/b", "x", parents=True)
        with pytest.raises(ValueError):
            store.delete("/a")

    def test_delete_missing_raises(self):
        store = KVStore()
        with pytest.raises(NoNodeError):
            store.delete("/ghost")

    def test_children_sorted(self):
        store = KVStore()
        for name in ("zeta", "alpha", "mid"):
            store.create(f"/dir/{name}", "", parents=True)
        assert store.children("/dir") == ["alpha", "mid", "zeta"]

    def test_relative_paths_rejected(self):
        store = KVStore()
        with pytest.raises(ValueError):
            store.create("relative", "x")

    def test_zxid_monotonically_increases(self):
        store = KVStore()
        store.create("/a", "x")
        first = store.stat("/a")["modified_zxid"]
        store.set("/a", "y")
        assert store.stat("/a")["modified_zxid"] > first

    def test_size_and_snapshot(self):
        store = KVStore()
        store.create("/a/b", "x", parents=True)
        store.create("/c", "y")
        assert store.size() == 3
        snapshot = store.snapshot()
        assert snapshot["/a/b"] == ("x", 0)
        assert snapshot["/c"] == ("y", 0)


class TestFlatKVFacade:
    def test_write_then_read(self):
        store = KVStore()
        store.write("user42", "hello")
        assert store.read("user42") == "hello"

    def test_read_missing_returns_none(self):
        store = KVStore()
        assert store.read("missing") is None

    def test_overwrite_updates_value(self):
        store = KVStore()
        store.write("k", "v1")
        store.write("k", "v2")
        assert store.read("k") == "v2"

    def test_counters(self):
        store = KVStore()
        store.write("k", "v")
        store.read("k")
        store.read("missing")
        assert store.writes_applied >= 1
        assert store.reads_served == 2

    @given(st.lists(st.tuples(st.sampled_from(["w", "r"]),
                              st.sampled_from(["a", "b", "c", "d"]),
                              st.text(min_size=0, max_size=5)), max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_flat_kv_matches_dict_model(self, operations):
        """The flat facade behaves exactly like a Python dict."""
        store = KVStore()
        model = {}
        for kind, key, value in operations:
            if kind == "w":
                store.write(key, value)
                model[key] = value
            else:
                assert store.read(key) == model.get(key)

    @given(st.lists(st.tuples(st.sampled_from(["w", "r"]),
                              st.sampled_from(["a", "b", "dir/a", "dir/sub/b", "c"]),
                              st.text(min_size=0, max_size=5)), max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_flat_key_fast_path_matches_the_tree_walk(self, operations):
        """write/read walk /kv/<key> directly for keys without '/'; the
        tree operations they stand for must leave identical state behind."""
        fast, generic = KVStore(), KVStore()
        for kind, key, value in operations:
            path = f"{KVStore.KV_PREFIX}/{key}"
            if kind == "w":
                fast.write(key, value)
                try:
                    generic.set(path, value)
                except NoNodeError:
                    generic.create(path, value, parents=True)
            else:
                try:
                    expected = generic.get(path)
                except NoNodeError:
                    expected = None
                assert fast.read(key) == expected
        assert_same_state(fast, generic)

    def test_kv_made_by_create_before_any_flat_write(self):
        """``/kv`` then has no child map yet; the fast path must make it."""
        fast, generic = KVStore(), KVStore()
        for store in (fast, generic):
            store.create(KVStore.KV_PREFIX)
        fast.write("a", "1")
        generic.create(f"{KVStore.KV_PREFIX}/a", "1")
        assert fast.read("a") == generic.get(f"{KVStore.KV_PREFIX}/a") == "1"
        assert_same_state(fast, generic)

    def test_deleting_the_only_child(self):
        fast, generic = KVStore(), KVStore()
        fast.write("a", "1")
        generic.create(f"{KVStore.KV_PREFIX}/a", "1", parents=True)
        for store in (fast, generic):
            store.delete(f"{KVStore.KV_PREFIX}/a")
            assert store.stat(KVStore.KV_PREFIX)["num_children"] == 0
            assert store.children(KVStore.KV_PREFIX) == []
            assert store.read("a") is None
            assert not store.exists(f"{KVStore.KV_PREFIX}/a")
        assert_same_state(fast, generic)
        fast.write("a", "2")
        generic.create(f"{KVStore.KV_PREFIX}/a", "2")
        assert_same_state(fast, generic)

    def test_walk_paths_are_the_full_paths_in_depth_first_order(self):
        """A znode stores its name only; ``path`` is rebuilt from its parents."""
        store = KVStore()
        store.create("/app/conf", "c", parents=True)
        store.write("b", "1")
        store.write("a", "2")
        store.write("dir/x", "3")
        store.create("/app/log")
        store.delete("/app/log")
        assert [node.path for node in store.walk()] == [
            "/", "/kv", "/kv/dir", "/kv/dir/x", "/kv/a", "/kv/b", "/app", "/app/conf",
        ]
        assert store.stat("/kv") == {"version": 0, "created_zxid": 3, "modified_zxid": 3, "num_children": 3}
        assert store.stat("/app") == {"version": 0, "created_zxid": 1, "modified_zxid": 1, "num_children": 1}


def assert_same_state(fast, generic):
    """Same values, versions, zxids, child counts and counters at every path."""
    assert fast.snapshot() == generic.snapshot()
    assert {node.path: node.stat() for node in fast.walk()} == {
        node.path: node.stat() for node in generic.walk()
    }
    assert (fast.writes_applied, fast.reads_served) == (generic.writes_applied, generic.reads_served)


def retained_bytes(action):
    """Bytes still allocated after ``action()`` that were not before."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        action()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()


class TestRetainedState:
    """Every replica keeps its store and log for the whole run."""

    def test_a_flat_key_retains_at_most_150_bytes(self):
        """An eager empty child map and a stored path cost about 260 B a
        key; without them a key costs about 140 B."""
        count = 20_000
        keys = [f"key{index:08d}" for index in range(count)]  # the requests' own strings
        value = "v" * 16
        store = KVStore()
        store.write("warm-up", value)  # /kv itself is not a per-key cost

        def write_all():
            for key in keys:
                store.write(key, value)

        assert retained_bytes(write_all) / count <= 150
        assert store.size() == count + 2
