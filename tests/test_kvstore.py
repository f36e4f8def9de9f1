"""Tests for the replica store."""

import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore.store import KVStore


class TestFlatKV:
    def test_write_then_read(self):
        store = KVStore()
        assert store.write("user42", "hello") == "hello"
        assert store.read("user42") == "hello"

    def test_read_missing_returns_none(self):
        store = KVStore()
        assert store.read("missing") is None

    def test_overwrite_updates_value(self):
        store = KVStore()
        store.write("k", "v1")
        store.write("k", "v2")
        assert store.read("k") == "v2"

    def test_snapshot_is_a_copy(self):
        store = KVStore()
        store.write("k", "v")
        snapshot = store.snapshot()
        store.write("k", "w")
        assert snapshot == {"k": "v"}
        assert store.snapshot() == {"k": "w"}

    @given(st.lists(st.tuples(st.sampled_from(["w", "r"]),
                              st.sampled_from(["", "a", "b", "/", "dir/a", "/dir/sub/b", "c/"]),
                              st.text(min_size=0, max_size=5)), max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_flat_kv_matches_dict_model(self, operations):
        """The store behaves exactly like a Python dict, whatever the key:
        the empty key and keys containing ``/`` are keys like any other."""
        store = KVStore()
        model = {}
        for kind, key, value in operations:
            if kind == "w":
                assert store.write(key, value) == value
                model[key] = value
            else:
                assert store.read(key) == model.get(key)
        assert store.snapshot() == model


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

    def test_a_key_retains_at_most_48_bytes(self):
        """A dict entry costs about 21 B a key at this count; 48 B covers a
        dict just past a resize.  A znode per key cost about 140 B."""
        count = 20_000
        keys = [f"key{index:08d}" for index in range(count)]  # the requests' own strings
        value = "v" * 16
        store = KVStore()

        def write_all():
            for key in keys:
                store.write(key, value)

        assert retained_bytes(write_all) / count <= 48
        assert len(store.snapshot()) == count
