"""Heap tables: the per-node storage for base-relation fragments.

A :class:`HeapTable` holds one node's fragment of a partitioned relation.
Rows get monotonically increasing *local row ids*; deletion leaves a hole
(ids are never reused), which is exactly the property global indexes need:
a (node, local rowid) pair identifies a tuple for its whole lifetime.

Deletes by content ("remove one tuple equal to this row") find their
victim through a lazily built content map from row to live rowids rather
than a fragment walk.  Each list is kept in scan order, so the victim
among duplicates is the same one a scan would have found first.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .pages import PageLayout, DEFAULT_LAYOUT
from .schema import Row, Schema


class RowNotFound(KeyError):
    """Raised when a local rowid does not identify a live row."""


class HeapTable:
    """An append-mostly heap of rows with stable local row ids."""

    def __init__(self, schema: Schema, layout: PageLayout = DEFAULT_LAYOUT) -> None:
        self.schema = schema
        self.layout = layout
        self._rows: Dict[int, Row] = {}
        self._next_rowid = 0
        # row -> live rowids in scan order; None until the first content
        # lookup, so fragments that never take a content delete pay nothing.
        self._by_row: Optional[Dict[Row, List[int]]] = None

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows.values())

    def insert(self, row: Row) -> int:
        """Insert ``row``; returns its local rowid."""
        self.schema.check_row(row)
        rowid = self._next_rowid
        self._next_rowid += 1
        self._rows[rowid] = row
        if self._by_row is not None:
            self._by_row.setdefault(row, []).append(rowid)
        return rowid

    def insert_many(self, rows) -> List[int]:
        """Bulk insert; returns the local rowids in input order.

        Semantically identical to N :meth:`insert` calls (same rowids, same
        validation) but performs one dict update instead of N — the heap
        half of the batched execution engine's bulk-apply path.
        """
        rows = list(rows)
        check = self.schema.check_row
        for row in rows:
            check(row)
        first = self._next_rowid
        rowids = list(range(first, first + len(rows)))
        self._rows.update(zip(rowids, rows))
        self._next_rowid = first + len(rows)
        if self._by_row is not None:
            by_row = self._by_row
            for rowid, row in zip(rowids, rows):
                by_row.setdefault(row, []).append(rowid)
        return rowids

    def fetch(self, rowid: int) -> Row:
        """The row stored under ``rowid``."""
        try:
            return self._rows[rowid]
        except KeyError:
            raise RowNotFound(
                f"rowid {rowid} not present in {self.schema.name!r}"
            ) from None

    def delete(self, rowid: int) -> Row:
        """Delete and return the row stored under ``rowid``."""
        try:
            row = self._rows.pop(rowid)
        except KeyError:
            raise RowNotFound(
                f"rowid {rowid} not present in {self.schema.name!r}"
            ) from None
        self._unmap(rowid, row)
        return row

    def restore(self, rowid: int, row: Row) -> None:
        """Re-insert a previously deleted row under its *original* rowid.

        Used by transactional rollback (see :mod:`repro.faults.undo`): global
        indexes identify tuples by ``(node, rowid)``, so undoing a delete must
        bring the row back under the same id — a plain :meth:`insert` would
        mint a fresh one and orphan every GI entry pointing at the old id.
        """
        if rowid in self._rows:
            raise ValueError(
                f"rowid {rowid} is still live in {self.schema.name!r}; "
                "restore() only revives deleted rows"
            )
        self.schema.check_row(row)
        self._rows[rowid] = row
        if rowid >= self._next_rowid:
            self._next_rowid = rowid + 1
        # The revived rowid re-enters the dict at the end of scan order,
        # so appending keeps its content list in scan order too.
        if self._by_row is not None:
            self._by_row.setdefault(row, []).append(rowid)

    def delete_where(self, predicate: Callable[[Row], bool]) -> List[Tuple[int, Row]]:
        """Delete every row satisfying ``predicate``; returns (rowid, row) pairs."""
        victims = [(rid, row) for rid, row in self._rows.items() if predicate(row)]
        for rid, row in victims:
            del self._rows[rid]
            self._unmap(rid, row)
        return victims

    def update(self, rowid: int, row: Row) -> Row:
        """Replace the row under ``rowid`` in place; returns the old row."""
        self.schema.check_row(row)
        old = self.fetch(rowid)
        self._rows[rowid] = row
        # The row keeps its old scan slot, which an append cannot express;
        # drop the map and let the next lookup rebuild it.
        self._by_row = None
        return old

    def scan(self) -> Iterator[Tuple[int, Row]]:
        """Iterate (rowid, row) pairs in insertion order."""
        return iter(self._rows.items())

    def rows(self) -> List[Row]:
        """A snapshot list of all live rows."""
        return list(self._rows.values())

    def rowids_of(self, row: Row) -> Sequence[int]:
        """The live rowids holding a tuple equal to ``row``, in scan order.

        Physical lookup only and uncharged: the cost model prices a content
        delete as one write whether or not the engine scans to find it.
        The result is a live view of the map; copy it before mutating
        the table while iterating.
        """
        return self._content_map().get(row, ())

    def count_of(self, row: Row) -> int:
        """How many live tuples equal ``row``."""
        return len(self.rowids_of(row))

    def _content_map(self) -> Dict[Row, List[int]]:
        by_row = self._by_row
        if by_row is None:
            by_row = {}
            for rowid, row in self._rows.items():
                by_row.setdefault(row, []).append(rowid)
            self._by_row = by_row
        return by_row

    def _unmap(self, rowid: int, row: Row) -> None:
        by_row = self._by_row
        if by_row is None:
            return
        rowids = by_row[row]
        if len(rowids) == 1:
            del by_row[row]
        else:
            rowids.remove(rowid)

    @property
    def next_rowid(self) -> int:
        """The rowid the next insert will receive (rowids are never reused).

        Lets the parallel execution engine precompute the placements of a
        batch of inserts before shipping them to a node worker: a batch of
        ``n`` rows lands on ``next_rowid .. next_rowid + n - 1``, exactly as
        :meth:`insert_many` assigns them.
        """
        return self._next_rowid

    @property
    def num_pages(self) -> int:
        """Pages occupied by this fragment (dense-packing approximation)."""
        return self.layout.pages_for_tuples(len(self._rows))

    def page_of(self, rowid: int) -> int:
        """The page a live row sits on.

        For a heap we approximate dense packing by live-row rank; for
        clustered tables the clustered index owns page placement and this is
        only used as a fallback.
        """
        self.fetch(rowid)
        return self.layout.page_of(rowid)
