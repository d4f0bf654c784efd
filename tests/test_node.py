"""Unit tests for repro.cluster.node."""

import pytest

from repro.cluster.node import Node
from repro.costs import CostLedger, Op, Tag
from repro.storage import GlobalRowId, PageLayout, Schema


@pytest.fixture
def node():
    return Node(0, CostLedger(), PageLayout(tuples_per_page=10))


def test_create_and_fetch_fragment(node):
    node.create_fragment(Schema.of("T", "k", "v"))
    assert node.has_fragment("T")
    assert not node.has_fragment("X")
    with pytest.raises(KeyError):
        node.fragment("X")


def test_duplicate_fragment_rejected(node):
    node.create_fragment(Schema.of("T", "k"))
    with pytest.raises(ValueError):
        node.create_fragment(Schema.of("T", "k"))


def test_drop_fragment(node):
    node.create_fragment(Schema.of("T", "k"))
    node.drop_fragment("T")
    assert not node.has_fragment("T")


def test_insert_charges_one_insert(node):
    node.create_fragment(Schema.of("T", "k"))
    node.insert("T", (1,), Tag.BASE)
    snapshot = node.ledger.snapshot()
    assert snapshot.op_count(Op.INSERT, tags=[Tag.BASE]) == 1
    assert snapshot.total_workload() == 2.0


def test_index_probe_nonclustered_charges_fetches(node):
    node.create_fragment(Schema.of("T", "k", "v"))
    node.create_local_index("T", "k", clustered=False)
    node.insert("T", (7, "a"), Tag.BASE)
    node.insert("T", (7, "b"), Tag.BASE)
    before = node.ledger.snapshot()
    rows = node.index_probe("T", "k", 7, Tag.MAINTAIN)
    assert sorted(rows) == [(7, "a"), (7, "b")]
    diff = node.ledger.diff_since(before)
    assert diff.op_count(Op.SEARCH) == 1
    assert diff.op_count(Op.FETCH) == 2


def test_index_probe_clustered_fetches_free(node):
    node.create_fragment(Schema.of("T", "k", "v"))
    node.create_local_index("T", "k", clustered=True)
    node.insert("T", (7, "a"), Tag.BASE)
    node.insert("T", (7, "b"), Tag.BASE)
    before = node.ledger.snapshot()
    rows = node.index_probe("T", "k", 7, Tag.MAINTAIN)
    assert len(rows) == 2
    diff = node.ledger.diff_since(before)
    assert diff.op_count(Op.SEARCH) == 1
    assert diff.op_count(Op.FETCH) == 0


def test_index_probe_miss_charges_search_only(node):
    node.create_fragment(Schema.of("T", "k"))
    node.create_local_index("T", "k")
    before = node.ledger.snapshot()
    assert node.index_probe("T", "k", 42, Tag.MAINTAIN) == []
    diff = node.ledger.diff_since(before)
    assert diff.op_count(Op.SEARCH) == 1
    assert diff.op_count(Op.FETCH) == 0


def test_index_probe_requires_index(node):
    node.create_fragment(Schema.of("T", "k"))
    with pytest.raises(KeyError, match="no index"):
        node.index_probe("T", "k", 1, Tag.MAINTAIN)


def test_fetch_by_rowids_clustered_batch_is_one_fetch(node):
    node.create_fragment(Schema.of("T", "k"))
    rid1 = node.insert("T", (1,), Tag.BASE)
    rid2 = node.insert("T", (2,), Tag.BASE)
    before = node.ledger.snapshot()
    rows = node.fetch_by_rowids("T", [rid1, rid2], Tag.MAINTAIN, clustered_on_page=True)
    assert rows == [(1,), (2,)]
    assert node.ledger.diff_since(before).op_count(Op.FETCH) == 1


def test_fetch_by_rowids_nonclustered_per_row(node):
    node.create_fragment(Schema.of("T", "k"))
    rids = [node.insert("T", (i,), Tag.BASE) for i in range(3)]
    before = node.ledger.snapshot()
    node.fetch_by_rowids("T", rids, Tag.MAINTAIN, clustered_on_page=False)
    assert node.ledger.diff_since(before).op_count(Op.FETCH) == 3


def test_fetch_by_rowids_empty_is_free(node):
    node.create_fragment(Schema.of("T", "k"))
    before = node.ledger.snapshot()
    assert node.fetch_by_rowids("T", [], Tag.MAINTAIN) == []
    assert node.ledger.diff_since(before).total_workload() == 0.0


def test_delete_matching_uses_index_and_charges(node):
    node.create_fragment(Schema.of("T", "k", "v"))
    node.create_local_index("T", "k")
    node.insert("T", (1, "a"), Tag.BASE)
    before = node.ledger.snapshot()
    node.delete_matching("T", (1, "a"), Tag.BASE)
    diff = node.ledger.diff_since(before)
    assert diff.op_count(Op.SEARCH) == 1
    assert diff.op_count(Op.INSERT) == 1  # write billed at INSERT weight
    assert len(node.fragment("T").table) == 0


def test_delete_matching_without_index_charges_one_insert_no_search(node):
    """The model prices an unindexed content delete as one write; the
    physical content lookup that finds the victim must stay uncharged."""
    node.create_fragment(Schema.of("T", "k"))
    node.insert_many("T", [(i % 3,) for i in range(30)], Tag.BASE)
    before = node.ledger.snapshot()
    node.delete_matching("T", (1,), Tag.BASE)
    charged = node.ledger.diff_since(before)
    assert charged.op_count(Op.INSERT) == 1
    assert charged.op_count(Op.SEARCH) == 0
    assert charged.total_workload() == 2.0
    assert node.fragment("T").table.count_of((1,)) == 9


def test_delete_matching_missing_raises(node):
    node.create_fragment(Schema.of("T", "k"))
    node.create_local_index("T", "k")
    with pytest.raises(KeyError):
        node.delete_matching("T", (9,), Tag.BASE)


def test_gi_partition_roundtrip(node):
    node.create_gi_partition("GI_B_d", "B", "d")
    node.gi_insert("GI_B_d", 7, GlobalRowId(2, 5), Tag.MAINTAIN)
    grouped = node.gi_probe("GI_B_d", 7, Tag.MAINTAIN)
    assert grouped == {2: [GlobalRowId(2, 5)]}
    node.gi_delete("GI_B_d", 7, GlobalRowId(2, 5), Tag.MAINTAIN)
    assert node.gi_probe("GI_B_d", 7, Tag.MAINTAIN) == {}


def test_gi_duplicate_partition_rejected(node):
    node.create_gi_partition("GI", "B", "d")
    with pytest.raises(ValueError):
        node.create_gi_partition("GI", "B", "d")
    with pytest.raises(KeyError):
        node.gi_partition("OTHER")


def test_scan_charges_pages_when_tagged(node):
    node.create_fragment(Schema.of("T", "k"))
    for i in range(25):
        node.insert("T", (i,), Tag.BASE)
    before = node.ledger.snapshot()
    rows = node.scan("T", Tag.QUERY)
    assert len(rows) == 25
    assert node.ledger.diff_since(before).op_count(Op.SCAN_PAGE) == 3  # ceil(25/10)


def test_scan_untagged_is_free(node):
    node.create_fragment(Schema.of("T", "k"))
    node.insert("T", (1,), Tag.BASE)
    before = node.ledger.snapshot()
    node.scan("T")
    assert node.ledger.diff_since(before).total_workload() == 0.0
