"""Local (single-node) indexes over heap fragments.

The paper distinguishes *clustered* indexes — the fragment is physically
ordered on the indexed attribute, so all tuples matching one key sit on the
leaf page the search lands on — from *non-clustered* ones, where each match
costs a separate FETCH.  The index itself is a hash-shaped map from key to
local rowids; ordered access (for sort-merge joins) is provided on demand.

Teradata-style constraint honoured by the cluster layer: a fragment can be
clustered on at most one attribute.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from .heap import HeapTable
from .schema import Row


class IndexError_(KeyError):
    """Raised on index maintenance errors (named to avoid the builtin)."""


class LocalIndex:
    """An index on one column of one node's heap fragment."""

    def __init__(self, table: HeapTable, column: str, clustered: bool = False) -> None:
        self.table = table
        self.column = column
        self.clustered = clustered
        self._position = table.schema.index_of(column)
        self._entries: Dict[object, List[int]] = {}
        for rowid, row in table.scan():
            self._entries.setdefault(row[self._position], []).append(rowid)

    def __len__(self) -> int:
        return sum(len(rowids) for rowids in self._entries.values())

    def key_of(self, row: Row) -> object:
        return row[self._position]

    def on_insert(self, rowid: int, row: Row) -> None:
        self._entries.setdefault(row[self._position], []).append(rowid)

    def on_delete(self, rowid: int, row: Row) -> None:
        key = row[self._position]
        rowids = self._entries.get(key)
        if not rowids or rowid not in rowids:
            raise IndexError_(
                f"index on {self.table.schema.name}.{self.column} has no "
                f"entry for rowid {rowid} under key {key!r}"
            )
        rowids.remove(rowid)
        if not rowids:
            del self._entries[key]

    def search(self, key: object) -> List[int]:
        """Local rowids of tuples whose indexed column equals ``key``."""
        return list(self._entries.get(key, ()))

    def lookup_rows(self, key: object) -> List[Row]:
        """Matching rows themselves (search + fetch)."""
        return [self.table.fetch(rowid) for rowid in self.search(key)]

    def keys(self) -> Iterator[object]:
        return iter(self._entries.keys())

    def distinct_keys(self) -> int:
        return len(self._entries)

    def sorted_items(self) -> List[Tuple[object, List[int]]]:
        """(key, rowids) pairs in key order — the sorted run a sort-merge
        join consumes.  Building it models the sort; callers charge the sort
        cost through the ledger."""
        return sorted(self._entries.items(), key=lambda item: item[0])  # type: ignore[arg-type]

    def matches_per_key_fit_one_page(self, key: object) -> bool:
        """Whether all matches for ``key`` co-reside on one page.

        True by construction for clustered indexes under the paper's
        assumption (5)/(7); used by the cost layer to decide whether fetches
        are free.
        """
        if not self.clustered:
            return False
        return len(self._entries.get(key, ())) <= self.table.layout.tuples_per_page


class IndexedHeap:
    """A heap fragment plus the set of indexes maintained over it.

    Keeps heap and indexes in lockstep; the cluster's node object wraps one
    of these per stored fragment.
    """

    def __init__(self, table: HeapTable) -> None:
        self.table = table
        self.indexes: Dict[str, LocalIndex] = {}

    def create_index(self, column: str, clustered: bool = False) -> LocalIndex:
        if clustered and any(ix.clustered for ix in self.indexes.values()):
            existing = next(c for c, ix in self.indexes.items() if ix.clustered)
            raise IndexError_(
                f"{self.table.schema.name!r} is already clustered on "
                f"{existing!r}; a fragment can be clustered on one attribute"
            )
        index = LocalIndex(self.table, column, clustered=clustered)
        self.indexes[column] = index
        return index

    def index_on(self, column: str) -> LocalIndex | None:
        return self.indexes.get(column)

    def insert(self, row: Row) -> int:
        rowid = self.table.insert(row)
        for index in self.indexes.values():
            index.on_insert(rowid, row)
        return rowid

    def insert_many(self, rows) -> "list[int]":
        """Bulk insert keeping every index in lockstep.

        Equivalent to N :meth:`insert` calls — same rowids, same index
        entry order — with the per-row Python overhead amortized.
        """
        rows = list(rows)
        rowids = self.table.insert_many(rows)
        for index in self.indexes.values():
            on_insert = index.on_insert
            for rowid, row in zip(rowids, rows):
                on_insert(rowid, row)
        return rowids

    def delete(self, rowid: int) -> Row:
        row = self.table.delete(rowid)
        for index in self.indexes.values():
            index.on_delete(rowid, row)
        return row

    def restore(self, rowid: int, row: Row) -> None:
        """Undo a delete: revive the row under its original rowid and
        re-enter it into every index (rollback path; uncharged here —
        the undo log owns cost attribution)."""
        self.table.restore(rowid, row)
        for index in self.indexes.values():
            index.on_insert(rowid, row)

    def delete_matching(self, row: Row) -> int:
        """Delete the first stored tuple (in scan order) equal to ``row``;
        returns its rowid."""
        rowids = self.table.rowids_of(row)
        if not rowids:
            raise IndexError_(
                f"no tuple equal to {row!r} in {self.table.schema.name!r}"
            )
        rowid = rowids[0]
        self.delete(rowid)
        return rowid
