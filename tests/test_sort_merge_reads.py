"""Sort-merge hops: the modeled charge versus the physical read.

The paper bills a sort-merge hop as one scan (clustered) or sort pass over
every node's partner fragment.  Physically the engine reads only the rows
whose join key the delta carries, through the local index on the merge
column when there is one and through one filtered scan otherwise.  These
tests pin both halves: the bill is exactly the paper's pass, and the scan
fallback keeps every view equal to its recompute.
"""

from collections import Counter

import pytest

from repro import (
    Cluster, HashPartitioning, Op, Schema, Tag, recompute_view, two_way_view,
)
from repro.faults import ConsistencyAuditor
from repro.storage.pages import PageLayout
from tests.conftest import make_view

# Small pages and memory so B's fragments sort in more than one pass.
LAYOUT = PageLayout(tuples_per_page=2, memory_pages=2)


@pytest.mark.parametrize("batch_execution", [True, False])
@pytest.mark.parametrize("clustered", [True, False])
def test_naive_statement_charges_one_pass_per_node(clustered, batch_execution):
    cluster = Cluster(num_nodes=4, layout=LAYOUT, batch_execution=batch_execution)
    cluster.create_relation(Schema.of("A", "a", "c", "e"), partitioned_on="a")
    cluster.create_relation(Schema.of("B", "b", "d", "f"), partitioned_on="b")
    cluster.insert("B", [(i, i % 5, f"f{i}") for i in range(40)])
    if clustered:
        cluster.create_index("B", "d", clustered=True)
    make_view(cluster, "naive", strategy="sort_merge")

    snapshot = cluster.insert("A", [(1, 2, "x"), (2, 3, "y"), (3, 2, "z")])

    expected = {}
    for node in cluster.nodes:
        pages = node.fragment_pages("B")
        assert pages > LAYOUT.memory_pages
        if clustered:
            expected[(node.node_id, Op.SCAN_PAGE, Tag.MAINTAIN)] = pages
        else:
            expected[(node.node_id, Op.SORT_PAGE, Tag.MAINTAIN)] = (
                LAYOUT.sort_cost_pages(pages)
            )
    passes = {
        cell: count for cell, count in snapshot.cells.items()
        if cell[1] in (Op.SCAN_PAGE, Op.SORT_PAGE)
    }
    assert passes == expected
    assert snapshot.op_count(Op.SEARCH) == 0
    assert snapshot.op_count(Op.FETCH) == 0
    assert Counter(cluster.view_rows("JV")) == recompute_view(cluster, "JV")


def _assert_consistent(cluster):
    assert Counter(cluster.view_rows("JV")) == recompute_view(cluster, "JV")
    assert ConsistencyAuditor(cluster).audit().ok


def test_global_index_sort_merge_without_local_index(ab_cluster):
    """Neither A.c nor B.d carries a local index, so every merge pass
    takes the filtered-scan path."""
    ab_cluster.create_join_view(
        two_way_view("JV", "A", "c", "B", "d", partitioning=HashPartitioning("e")),
        method="global_index",
        strategy="sort_merge",
    )
    for node in ab_cluster.nodes:
        assert node.fragment("A").index_on("c") is None
        assert node.fragment("B").index_on("d") is None

    ab_cluster.insert("A", [(i, i % 7, f"e{i}") for i in range(12)])
    _assert_consistent(ab_cluster)
    ab_cluster.insert("B", [(20 + i, i % 6, f"g{i}") for i in range(8)])
    _assert_consistent(ab_cluster)
    ab_cluster.delete("A", [(3, 3, "e3"), (4, 4, "e4")])
    _assert_consistent(ab_cluster)
    ab_cluster.delete("B", [(2, 2, "f2"), (20, 0, "g0")])
    _assert_consistent(ab_cluster)

    before = Counter(ab_cluster.view_rows("JV"))
    with ab_cluster.transaction() as txn:
        txn.insert("A", [(30, 2, "t0"), (31, 4, "t1")])
        txn.delete("B", [(7, 2, "f7"), (21, 1, "g1")])
        txn.delete("A", [(0, 0, "e0")])
        txn.rollback()
    assert Counter(ab_cluster.view_rows("JV")) == before
    _assert_consistent(ab_cluster)

    # Rows restored by the rollback rejoin at the end of scan order.
    ab_cluster.insert("A", [(40, 2, "u0"), (41, 0, "u1")])
    _assert_consistent(ab_cluster)
    ab_cluster.delete("B", [(7, 2, "f7")])
    _assert_consistent(ab_cluster)
