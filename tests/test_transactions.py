"""Tests for repro.cluster.transactions."""

from collections import Counter

import pytest

from repro import recompute_view
from repro.faults import ConsistencyAuditor
from tests.conftest import make_view


def test_transaction_scopes_cost(ab_cluster):
    make_view(ab_cluster, "auxiliary", strategy="inl")
    with ab_cluster.transaction() as txn:
        txn.insert("A", [(1, 2, "x"), (2, 3, "y")])
    report = txn.report
    assert report is not None
    assert report.statements == 1
    assert report.maintenance_workload == 6.0  # 3 I/Os per tuple
    assert report.maintenance_response_time <= report.maintenance_workload
    assert report.total_workload > report.maintenance_workload  # base+view


def test_transaction_multiple_statements(ab_cluster):
    make_view(ab_cluster, "auxiliary")
    with ab_cluster.transaction() as txn:
        txn.insert("A", [(1, 2, "x")])
        txn.update("A", [((1, 2, "x"), (1, 3, "x"))])
        txn.delete("A", [(1, 3, "x")])
    assert txn.report.statements == 3
    assert ab_cluster.scan_relation("A") == []


def test_transaction_excludes_outside_work(ab_cluster):
    make_view(ab_cluster, "auxiliary", strategy="inl")
    ab_cluster.insert("A", [(9, 4, "pre")])  # outside the transaction
    with ab_cluster.transaction() as txn:
        txn.insert("A", [(1, 2, "x")])
    assert txn.report.maintenance_workload == 3.0


def test_transaction_reenter_rejected(ab_cluster):
    txn = ab_cluster.transaction()
    with txn:
        with pytest.raises(RuntimeError):
            txn.__enter__()


def test_transaction_use_outside_context_rejected(ab_cluster):
    txn = ab_cluster.transaction()
    with pytest.raises(RuntimeError):
        txn.insert("A", [(1, 2, "x")])
    with txn:
        pass
    with pytest.raises(RuntimeError):
        txn.insert("A", [(1, 2, "x")])


def test_empty_transaction(ab_cluster):
    with ab_cluster.transaction() as txn:
        pass
    assert txn.report.statements == 0
    assert txn.report.total_workload == 0.0


def test_delete_after_rollback_takes_first_copy_in_scan_order(ab_cluster):
    """Rollback revives a deleted duplicate at the end of scan order; the
    next delete of that row must take the copy a fragment scan finds first,
    so rowids, GI rid-lists and the view stay exactly as the model says."""
    make_view(ab_cluster, "global_index")
    dup = (1, 2, "x")
    ab_cluster.insert("A", [dup, (5, 2, "y"), dup, dup])
    (table,) = [
        node.fragment("A").table
        for node in ab_cluster.nodes
        if node.has_fragment("A") and dup in node.fragment("A").table
    ]

    def copies():
        return [rid for rid, row in table.scan() if row == dup]

    first, second, third = copies()
    with ab_cluster.transaction() as txn:
        txn.delete("A", [dup])
        assert copies() == [second, third]
        txn.rollback()
    assert copies() == [second, third, first]

    ab_cluster.delete("A", [dup])
    assert copies() == [third, first]
    assert Counter(ab_cluster.view_rows("JV")) == recompute_view(ab_cluster, "JV")
    assert ConsistencyAuditor(ab_cluster).audit().ok
