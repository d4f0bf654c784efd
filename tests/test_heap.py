"""Unit tests for repro.storage.heap."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.heap import HeapTable, RowNotFound
from repro.storage.pages import PageLayout
from repro.storage.schema import Schema, SchemaError


@pytest.fixture
def table():
    return HeapTable(Schema.of("T", "k", "v"))


def test_insert_assigns_monotonic_rowids(table):
    assert table.insert((1, "a")) == 0
    assert table.insert((2, "b")) == 1
    assert len(table) == 2


def test_rowids_never_reused(table):
    rid = table.insert((1, "a"))
    table.delete(rid)
    assert table.insert((2, "b")) == rid + 1


def test_fetch(table):
    rid = table.insert((1, "a"))
    assert table.fetch(rid) == (1, "a")


def test_fetch_missing(table):
    with pytest.raises(RowNotFound):
        table.fetch(99)


def test_delete_returns_row(table):
    rid = table.insert((1, "a"))
    assert table.delete(rid) == (1, "a")
    assert len(table) == 0
    with pytest.raises(RowNotFound):
        table.delete(rid)


def test_delete_where(table):
    table.insert_many([(1, "a"), (2, "b"), (3, "a")])
    victims = table.delete_where(lambda row: row[1] == "a")
    assert [row for _, row in victims] == [(1, "a"), (3, "a")]
    assert table.rows() == [(2, "b")]


def test_update(table):
    rid = table.insert((1, "a"))
    old = table.update(rid, (1, "b"))
    assert old == (1, "a")
    assert table.fetch(rid) == (1, "b")


def test_arity_checked(table):
    with pytest.raises(SchemaError):
        table.insert((1, 2, 3))


def test_scan_is_insertion_ordered(table):
    table.insert_many([(3, "x"), (1, "y")])
    assert [row for _, row in table.scan()] == [(3, "x"), (1, "y")]


def test_num_pages():
    table = HeapTable(Schema.of("T", "k"), PageLayout(tuples_per_page=10))
    assert table.num_pages == 0
    table.insert_many([(i,) for i in range(11)])
    assert table.num_pages == 2


def test_page_of():
    table = HeapTable(Schema.of("T", "k"), PageLayout(tuples_per_page=2))
    rids = table.insert_many([(i,) for i in range(4)])
    assert table.page_of(rids[0]) == 0
    assert table.page_of(rids[3]) == 1


def test_iter_yields_rows(table):
    table.insert_many([(1, "a"), (2, "b")])
    assert list(table) == [(1, "a"), (2, "b")]


# A two-by-two row domain, so random sequences produce many duplicates.
_DOMAIN = [(k, v) for k in (0, 1) for v in ("a", "b")]
_row = st.sampled_from(_DOMAIN)
_heap_op = st.one_of(
    st.tuples(st.just("insert"), _row),
    st.tuples(st.just("insert_many"), st.lists(_row, max_size=4)),
    st.tuples(st.just("delete"), st.integers(0, 15)),
    st.tuples(st.just("restore"), st.integers(0, 15)),
    st.tuples(st.just("delete_where"), st.sampled_from(["a", "b"])),
    st.tuples(st.just("update"), st.tuples(st.integers(0, 15), _row)),
)


def _apply(table, deleted, op):
    kind, arg = op
    live = [rid for rid, _ in table.scan()]
    if kind == "insert":
        table.insert(arg)
    elif kind == "insert_many":
        table.insert_many(arg)
    elif kind == "delete" and live:
        rid = live[arg % len(live)]
        deleted.append((rid, table.delete(rid)))
    elif kind == "restore" and deleted:
        table.restore(*deleted.pop(arg % len(deleted)))
    elif kind == "delete_where":
        deleted.extend(table.delete_where(lambda row: row[1] == arg))
    elif kind == "update" and live:
        table.update(live[arg[0] % len(live)], arg[1])


def _assert_content_map(table):
    for row in _DOMAIN:
        expected = [rid for rid, stored in table.scan() if stored == row]
        assert list(table.rowids_of(row)) == expected
        assert table.count_of(row) == len(expected)


@settings(max_examples=150, deadline=None)
@given(st.lists(_heap_op, max_size=40))
def test_content_map_matches_scan(ops):
    """The content map lists exactly the scan's matches, in scan order,
    after every mutation -- whether it was built before the mutation
    (``eager``, probed every step) or only afterwards (``lazy``)."""
    eager, eager_deleted = HeapTable(Schema.of("T", "k", "v")), []
    lazy, lazy_deleted = HeapTable(Schema.of("T", "k", "v")), []
    for op in ops:
        _apply(eager, eager_deleted, op)
        _apply(lazy, lazy_deleted, op)
        _assert_content_map(eager)
    _assert_content_map(lazy)
