"""Unit tests for repro.storage.index."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.heap import HeapTable
from repro.storage.index import IndexedHeap, IndexError_, LocalIndex
from repro.storage.pages import PageLayout
from repro.storage.schema import Schema


@pytest.fixture
def heap():
    return IndexedHeap(HeapTable(Schema.of("T", "k", "v")))


def test_index_built_over_existing_rows():
    table = HeapTable(Schema.of("T", "k", "v"))
    table.insert_many([(1, "a"), (1, "b"), (2, "c")])
    index = LocalIndex(table, "k")
    assert sorted(index.search(1)) == [0, 1]
    assert index.search(2) == [2]
    assert index.search(9) == []


def test_insert_maintains_index(heap):
    heap.create_index("k")
    rid = heap.insert((5, "x"))
    assert heap.index_on("k").search(5) == [rid]


def test_delete_maintains_index(heap):
    index = heap.create_index("k")
    rid = heap.insert((5, "x"))
    heap.delete(rid)
    assert index.search(5) == []


def test_delete_unknown_entry_raises():
    table = HeapTable(Schema.of("T", "k"))
    index = LocalIndex(table, "k")
    with pytest.raises(IndexError_):
        index.on_delete(0, (5,))


def test_lookup_rows(heap):
    heap.create_index("k")
    heap.insert((5, "x"))
    heap.insert((5, "y"))
    assert heap.index_on("k").lookup_rows(5) == [(5, "x"), (5, "y")]


def test_one_clustered_index_per_fragment(heap):
    heap.create_index("k", clustered=True)
    with pytest.raises(IndexError_, match="already clustered"):
        heap.create_index("v", clustered=True)


def test_second_nonclustered_index_allowed(heap):
    heap.create_index("k", clustered=True)
    heap.create_index("v", clustered=False)
    assert heap.index_on("v") is not None


def test_len_counts_entries(heap):
    index = heap.create_index("k")
    heap.insert((1, "a"))
    heap.insert((1, "b"))
    assert len(index) == 2


def test_distinct_keys_and_keys(heap):
    index = heap.create_index("k")
    heap.insert((1, "a"))
    heap.insert((1, "b"))
    heap.insert((2, "c"))
    assert index.distinct_keys() == 2
    assert sorted(index.keys()) == [1, 2]


def test_matches_fit_one_page_clustered():
    table = HeapTable(Schema.of("T", "k"), PageLayout(tuples_per_page=2))
    heap = IndexedHeap(table)
    index = heap.create_index("k", clustered=True)
    heap.insert((1,))
    heap.insert((1,))
    assert index.matches_per_key_fit_one_page(1)
    heap.insert((1,))
    assert not index.matches_per_key_fit_one_page(1)


def test_matches_fit_one_page_nonclustered_is_false(heap):
    index = heap.create_index("k", clustered=False)
    heap.insert((1, "a"))
    assert not index.matches_per_key_fit_one_page(1)


def test_delete_matching(heap):
    heap.create_index("k")
    heap.insert((1, "a"))
    rid = heap.insert((1, "b"))
    assert heap.delete_matching((1, "b")) == rid
    with pytest.raises(IndexError_):
        heap.delete_matching((9, "q"))


# Keys 0-2 are stored; 3 and 4 never are, so key sets include absent keys.
_row = st.tuples(st.integers(0, 2), st.sampled_from("ab"))
_heap_op = st.one_of(
    st.tuples(st.just("insert"), _row),
    st.tuples(st.just("insert_many"), st.lists(_row, max_size=4)),
    st.tuples(st.just("delete"), st.integers(0, 15)),
    st.tuples(st.just("restore"), st.integers(0, 15)),
)


@settings(max_examples=100, deadline=None)
@given(
    index_kind=st.sampled_from([None, "nonclustered", "clustered"]),
    steps=st.lists(
        st.tuples(_heap_op, st.sets(st.integers(0, 4))), max_size=30
    ),
)
def test_rows_for_keys_matches_filtered_scan(index_kind, steps):
    """After every mutation, ``rows_for_keys`` returns each wanted key's
    rows in scan order, with or without an index on the column."""
    heap = IndexedHeap(HeapTable(Schema.of("T", "k", "v")))
    if index_kind is not None:
        heap.create_index("k", clustered=index_kind == "clustered")
    deleted = []
    for (kind, arg), keys in steps:
        live = [rid for rid, _ in heap.table.scan()]
        if kind == "insert":
            heap.insert(arg)
        elif kind == "insert_many":
            heap.insert_many(arg)
        elif kind == "delete" and live:
            rid = live[arg % len(live)]
            deleted.append((rid, heap.delete(rid)))
        elif kind == "restore" and deleted:
            heap.restore(*deleted.pop(arg % len(deleted)))
        expected = {
            key: [row for _, row in heap.table.scan() if row[0] == key]
            for key in keys
        }
        assert heap.rows_for_keys("k", keys) == {
            key: rows for key, rows in expected.items() if rows
        }
