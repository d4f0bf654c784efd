"""True shared-nothing execution: a fork-based **read-server** worker pool.

The simulation's L nodes are shared-nothing *in the model* but, before this
module, were executed serially on one core.  :class:`ParallelEngine` forks W
worker processes from the coordinator's image and runs the read side of
statement execution on them.  The data plane is deliberately asymmetric:

* **Mutations never cross the wire.**  The coordinator applies every base
  write, AR/GI co-update, and view-delta write through the serial bulk
  paths — charging the real ledger and the real network exactly like the
  serial engine — and appends each physical mutation to a
  :class:`RefreshJournal` of columnar :class:`~repro.core.delta.DeltaBlock`
  runs, one per ``(node, structure)``.
* **Workers are pure read servers.**  The engine ships only the read ops of
  a maintenance hop (``probe`` / ``gi_probe`` / ``fetch`` / ``merge`` —
  :data:`WIRE_KINDS`); each worker bills node-local read work to a private
  :class:`~repro.costs.CostLedger` whose cell delta rides back on the reply,
  and the coordinator folds the deltas in deterministic ``(node, op, tag)``
  order.  One envelope per worker per superstep, and the typical statement
  has exactly **one** read superstep — base writes and view writes no longer
  cost a barrier each, so the per-statement barrier count drops from 3 to 1.
* **Refresh is lazy and piggybacked.**  Journal writes accumulate across
  statements (cross-statement command accumulation); a worker receives the
  pending blocks for a structure in the *same* envelope as its first read
  of that structure after the write (pipelined flush), and applies them
  uncharged before executing its reads — so every read observes exactly the
  global statement order, at any worker count.  Structures nobody reads
  (view fragments above all) are never journaled and never shipped.
* **Routing is slot-sticky and skew-aware.**  Each read op carries a cache
  slot identity (the same key its heavy-hitter probe-cache entry uses); the
  first time a slot appears it is assigned to the least-loaded worker
  (deterministic lowest-id tie-break) and stays there for the pool
  generation, so a slot's hit/miss history lives in exactly one cache and
  merged event tallies stay bit-identical across worker counts.  Load is
  tracked per worker from deterministic observed match counts, which is
  what spreads a skewed key population evenly (``worker_skew`` → 1).

The wire format is length-framed pickle protocol 5: one ``send_bytes`` blob
per envelope, with the blocks' ``array`` columns carried as out-of-band
buffers (zero-copy ``pickle.loads`` on the receive side), and an optional
shared-memory path for blobs over :attr:`ParallelEngine.shm_min_bytes`.

Routing never changes charges: every modeled cost keys on the *node* named
in the op, not on the worker that executes it, and cache hits charge
exactly the probe cost they avoid — so ledgers are bit-identical to serial
for every worker count (``tests/test_parallel_equivalence.py``).

Ledger cells are commutative sums of integer counts, so the merge order
cannot change the float result — the deterministic order is still enforced
so equivalence failures reproduce byte-for-byte.

``workers=1`` runs the read ops inline against the coordinator's nodes (no
fork, no IPC); the refresh journal then only drives probe-cache
invalidation, since the inline "shard" *is* the always-current image.

DDL, transactions, fault attachment, replication, and aggregate-view
maintenance all drain the pool and run on the serial reference path; the
membership/rebalance planners keep speaking the full stringly-typed op
vocabulary (:data:`COMMAND_KINDS`) through :func:`run_ops_serial`, which
always executes with the pool drained.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import struct
import time
import traceback
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..core.delta import OP_DELETE, OP_INSERT, DeltaBlock
from ..costs import CostLedger, Op
from ..storage.global_index import GlobalRowId
from .node import _any_index
from .probe_cache import HeavyHitterProbeCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..costs import Tag
    from ..storage import IndexedHeap, Row
    from .cluster import Cluster


#: Every envelope command kind a worker can execute.  This frozenset is the
#: single source of truth for the op vocabulary: ``_execute_op`` must handle
#: exactly these kinds, coordinators may only construct these kinds, and the
#: REP005 static rule plus the runtime sanitizer both validate against it.
COMMAND_KINDS = frozenset(
    {
        "probe", "ins", "del", "gi_probe", "fetch",
        "gi_ins", "gi_del", "merge", "rr_del", "charge",
        "migrate", "handoff", "replica_apply",
    }
)

#: Kinds that never mutate shards; mutations in the vocabulary exist for the
#: membership/rebalance planners, which execute them through
#: :func:`run_ops_serial` with the pool drained.
READ_ONLY_KINDS = frozenset({"probe", "gi_probe", "fetch", "merge", "charge"})

#: The kinds whose execution mutates node state (serial planner path only).
MUTATING_KINDS = COMMAND_KINDS - READ_ONLY_KINDS

#: The only kinds :meth:`ParallelEngine.run_ops` ships to workers: reads
#: with a per-node modeled cost.  (``charge`` is read-only but carries no
#: data dependency, so the coordinator bills it directly when it needs to.)
WIRE_KINDS = frozenset({"probe", "gi_probe", "fetch", "merge"})

#: Refresh-block kinds of the transaction-batched wire format:
#: ``_apply_block`` must handle exactly these, and every
#: :class:`~repro.core.delta.DeltaBlock` construction site must use one.
BLOCK_KINDS = frozenset({"frag_delta", "gi_delta"})


def validate_op(op: tuple) -> None:
    """Sanitizer hook: reject malformed envelope commands before dispatch."""
    if not isinstance(op, tuple) or not op:
        raise AssertionError(f"sanitize: envelope op must be a non-empty tuple, got {op!r}")
    if op[0] not in COMMAND_KINDS:
        raise AssertionError(
            f"sanitize: unknown envelope op kind {op[0]!r}; "
            f"known kinds: {sorted(COMMAND_KINDS)}"
        )


def validate_block(block: "DeltaBlock") -> None:
    """Sanitizer hook: reject malformed refresh blocks before shipping."""
    if not isinstance(block, DeltaBlock):
        raise AssertionError(
            f"sanitize: refresh payload must be a DeltaBlock, got {block!r}"
        )
    if block.kind not in BLOCK_KINDS:
        raise AssertionError(
            f"sanitize: unknown refresh block kind {block.kind!r}; "
            f"known kinds: {sorted(BLOCK_KINDS)}"
        )
    if not (
        len(block.ops) == len(block.tags) == len(block.rowids)
        == len(block.refs) == len(block.keys)
    ):
        raise AssertionError(
            f"sanitize: ragged DeltaBlock columns for {block.name!r}"
        )


def fork_available() -> bool:
    """Whether this platform supports the fork start method (POSIX)."""
    return "fork" in multiprocessing.get_all_start_methods()


def shard_ranges(num_nodes: int, workers: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` node ranges, one per worker, sizes within 1.

    The read-server pool no longer binds workers to node shards (any worker
    serves any node), but the range partition remains the deterministic
    node↔worker attribution used by the rebalancer's busy-time tiebreak.
    """
    workers = max(1, min(workers, num_nodes))
    base, extra = divmod(num_nodes, workers)
    ranges: List[Tuple[int, int]] = []
    lo = 0
    for index in range(workers):
        hi = lo + base + (1 if index < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def locate_victim(fragment: "IndexedHeap", row: "Row", taken) -> Optional[int]:
    """The rowid :meth:`Node.delete_matching` would delete for ``row``,
    excluding rowids already claimed by earlier deletes of this statement
    (the serial engine mutates between searches; the exclusion set models
    exactly that).  Returns ``None`` when no live copy remains."""
    index = _any_index(fragment)
    if index is not None:
        for rowid in index.search(index.key_of(row)):
            if rowid not in taken and fragment.table.fetch(rowid) == row:
                return rowid
        return None
    for rowid in fragment.table.rowids_of(row):
        if rowid not in taken:
            return rowid
    return None


# ========================================================== wire framing

#: Envelope frame: ``<u32 buffer-count> <u64 payload-len> <u64 size>*N``
#: followed by the pickle-5 payload and the N out-of-band buffers,
#: concatenated into one ``send_bytes`` blob (one syscall, one length
#: prefix on the pipe).  ``_decode`` reconstructs with ``pickle.loads(...,
#: buffers=...)`` over memoryview slices — zero-copy on the receive side.
_FRAME_HEAD = struct.Struct("<I")
_FRAME_SIZE = struct.Struct("<Q")


def _encode(message: object) -> bytes:
    buffers: List[pickle.PickleBuffer] = []
    payload = pickle.dumps(message, protocol=5, buffer_callback=buffers.append)
    raws = [buffer.raw() for buffer in buffers]
    parts: List[bytes] = [
        _FRAME_HEAD.pack(len(raws)),
        _FRAME_SIZE.pack(len(payload)),
    ]
    parts.extend(_FRAME_SIZE.pack(raw.nbytes) for raw in raws)
    parts.append(payload)
    parts.extend(raws)  # type: ignore[arg-type]  # join accepts buffers
    return b"".join(parts)


def _decode(blob) -> object:
    view = memoryview(blob)
    (count,) = _FRAME_HEAD.unpack_from(view, 0)
    offset = _FRAME_HEAD.size
    (payload_len,) = _FRAME_SIZE.unpack_from(view, offset)
    offset += _FRAME_SIZE.size
    sizes: List[int] = []
    for _ in range(count):
        (size,) = _FRAME_SIZE.unpack_from(view, offset)
        offset += _FRAME_SIZE.size
        sizes.append(size)
    payload = view[offset:offset + payload_len]
    offset += payload_len
    buffers: List[memoryview] = []
    for size in sizes:
        buffers.append(view[offset:offset + size])
        offset += size
    return pickle.loads(payload, buffers=buffers)


def _shm_create(blob: bytes):
    """Copy ``blob`` into a fresh shared-memory segment (or ``None`` when
    the platform refuses).  The caller owns the unlink."""
    try:
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(create=True, size=len(blob))
    except (ImportError, OSError):  # pragma: no cover - platform dependent
        return None
    segment.buf[: len(blob)] = blob
    return segment


def _shm_read(name: str, size: int) -> object:
    """Decode an envelope parked in a shared-memory segment by name."""
    from multiprocessing import shared_memory

    try:
        segment = shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:  # pragma: no cover - Python < 3.13 has no track=
        segment = shared_memory.SharedMemory(name=name)
        try:  # the attach side must not double-unlink at interpreter exit
            from multiprocessing import resource_tracker

            resource_tracker.unregister(segment._name, "shared_memory")  # type: ignore[attr-defined]
        except Exception:
            pass
    try:
        return _decode(segment.buf[:size])
    finally:
        try:
            segment.close()
        except BufferError:  # pragma: no cover - exported views on error paths
            pass


# ============================================================ worker side


def _note_event(events, node_id: int, kind: str, detail: str = "") -> None:
    """Tally one compact worker event record.

    Keys are ``(node_id, kind, detail)`` — **node**-scoped, never
    worker-scoped — and every cache slot's reads are sticky-routed to one
    worker, so the aggregated tally of a statement is identical for any
    worker count.  The coordinator merges tallies in sorted key order,
    making traces bit-stable.
    """
    slot = (node_id, kind, detail)
    events[slot] = events.get(slot, 0) + 1


def _execute_op(nodes, cache: Optional[HeavyHitterProbeCache], op, events=None):
    """Run one envelope command against the local node image.

    Charges go to the executing side's ledger through the normal
    :class:`~repro.cluster.node.Node` methods — a worker's private ledger
    on the pool path, the real ledger on the :func:`run_ops_serial` planner
    path — so execution bills exactly what the serial engine would for the
    same command.  Probe-cache hits charge through the ``charge_*`` helpers:
    the modeled cost of the probe they avoided re-executing.

    ``events`` (a dict, present only on traced supersteps) accumulates
    compact ``(node, kind, detail)`` tallies via :func:`_note_event`; the
    fast path pays one ``is not None`` test per command when untraced.
    """
    kind = op[0]
    if kind == "probe":
        _, node_id, fragment, column, key, tag = op
        node = nodes[node_id]
        if cache is not None:
            rows = cache.lookup_index(node_id, fragment, column, key)
            if rows is not None:
                if events is not None:
                    _note_event(events, node_id, "probe", "hit")
                node.charge_index_probe(fragment, column, len(rows), tag, times=1)
                return rows
        if events is not None:
            _note_event(
                events, node_id, "probe", "miss" if cache is not None else ""
            )
        rows = node.index_probe(fragment, column, key, tag)
        if cache is not None:
            position = node.fragment(fragment).table.schema.index_of(column)
            cache.note_index_miss(node_id, fragment, column, key, position, rows)
        return rows
    if kind == "ins":
        _, node_id, name, rows, tag = op
        if events is not None:
            _note_event(events, node_id, "ins")
        if cache is not None and cache.has_resident_rows():
            for row in rows:
                cache.note_write(node_id, name, row)
        return nodes[node_id].insert_many(name, list(rows), tag)
    if kind == "del":
        _, node_id, name, row, tag, tolerate = op
        if events is not None:
            _note_event(events, node_id, "del")
        if cache is not None:
            cache.note_write(node_id, name, row)
        try:
            return nodes[node_id].delete_matching(name, row, tag)
        except KeyError:
            if tolerate:
                return None
            raise
    if kind == "gi_probe":
        _, node_id, gi_name, key, tag = op
        node = nodes[node_id]
        if cache is not None:
            grouped = cache.lookup_gi(node_id, gi_name, key)
            if grouped is not None:
                if events is not None:
                    _note_event(events, node_id, "gi_probe", "hit")
                node.charge_gi_probe(gi_name, tag, times=1)
                return grouped
        if events is not None:
            _note_event(
                events, node_id, "gi_probe", "miss" if cache is not None else ""
            )
        grouped = node.gi_probe(gi_name, key, tag)
        if cache is not None:
            cache.note_gi_miss(node_id, gi_name, key, grouped)
        return grouped
    if kind == "fetch":
        _, node_id, relation, rowids, tag, clustered = op
        node = nodes[node_id]
        slot = tuple(rowids)
        if cache is not None:
            rows = cache.lookup_fetch(node_id, relation, slot)
            if rows is not None:
                if events is not None:
                    _note_event(events, node_id, "fetch", "hit")
                units = 1 if clustered else len(rowids)
                node.charge_fetch(relation, units, tag, times=1)
                return rows
        if events is not None:
            _note_event(
                events, node_id, "fetch", "miss" if cache is not None else ""
            )
        rows = node.fetch_by_rowids(
            relation, list(rowids), tag, clustered_on_page=clustered
        )
        if cache is not None:
            cache.note_fetch_miss(node_id, relation, slot, rows)
        return rows
    if kind == "gi_ins":
        _, node_id, gi_name, entries, tag = op
        node = nodes[node_id]
        if events is not None:
            _note_event(events, node_id, "gi_ins")
        if cache is not None:
            for key, _grid in entries:
                cache.note_gi_write(node_id, gi_name, key)
        node.gi_partition(gi_name).insert_many(entries)
        node.ledger.charge(node_id, Op.INSERT, tag, count=len(entries))
        return None
    if kind == "gi_del":
        _, node_id, gi_name, key, grid, tag, tolerate = op
        if events is not None:
            _note_event(events, node_id, "gi_del")
        if cache is not None:
            cache.note_gi_write(node_id, gi_name, key)
        try:
            nodes[node_id].gi_delete(gi_name, key, grid, tag)
            return True
        except KeyError:
            if tolerate:
                return False
            raise
    if kind == "merge":
        _, node_id, fragment, column, is_sorted, keys, tag = op
        if events is not None:
            _note_event(
                events, node_id, "merge", "scan" if is_sorted else "sort"
            )
        node = nodes[node_id]
        pages = node.fragment_pages(fragment)
        if pages:
            if is_sorted:
                node.ledger.charge(node_id, Op.SCAN_PAGE, tag, count=pages)
            else:
                cost = node.layout.sort_cost_pages(pages)
                node.ledger.charge(node_id, Op.SORT_PAGE, tag, count=cost)
        matches: Dict[object, list] = {}
        if keys:
            position = node.fragment(fragment).table.schema.index_of(column)
            wanted = set(keys)
            for row in node.scan(fragment):
                key = row[position]
                if key in wanted:
                    matches.setdefault(key, []).append(row)
        return matches
    if kind == "rr_del":
        _, node_id, name, rowid, tag = op
        node = nodes[node_id]
        if events is not None:
            _note_event(events, node_id, "rr_del")
        if cache is not None:
            cache.note_write(node_id, name, node.fragment(name).table.fetch(rowid))
        node.ledger.charge(node_id, Op.SEARCH, tag)
        node.delete_by_rowid(name, rowid, tag)
        return None
    if kind == "charge":
        _, node_id, cost_op, tag, count = op
        if events is not None:
            _note_event(events, node_id, "charge", cost_op.value)
        nodes[node_id].ledger.charge(node_id, cost_op, tag, count=count)
        return None
    if kind == "migrate":
        # Topology-change arrival: rows land in the destination fragment,
        # billed like any insert (their SENDs are charged by the planner).
        _, node_id, name, rows, tag = op
        if events is not None:
            _note_event(events, node_id, "migrate")
        if cache is not None and cache.has_resident_rows():
            for row in rows:
                cache.note_write(node_id, name, row)
        return nodes[node_id].insert_many(name, list(rows), tag)
    if kind == "handoff":
        # Topology-change departure: the planner already located the rowids,
        # so no SEARCH — just the physical removal, one write I/O per row.
        _, node_id, name, rowids, tag = op
        node = nodes[node_id]
        if events is not None:
            _note_event(events, node_id, "handoff")
        for rowid in rowids:
            if cache is not None:
                cache.note_write(node_id, name, node.fragment(name).table.fetch(rowid))
            node.delete_by_rowid(name, rowid, tag)
        return None
    if kind == "replica_apply":
        _, node_id, owner, name, action, rows, tag = op
        if events is not None:
            _note_event(events, node_id, "replica_apply", action)
        nodes[node_id].replica_apply(owner, name, action, list(rows), tag)
        return None
    raise ValueError(f"unknown parallel op {kind!r}")


def run_ops_serial(cluster: "Cluster", ops: Sequence[tuple]) -> List[object]:
    """Execute envelope ops directly against the coordinator image.

    The membership/rebalance planners speak the same stringly-typed op
    vocabulary as the parallel engine but always run with the pool drained
    (a topology change reshapes every fragment), so their envelopes execute
    in-process: nodes bill the real ledger and mutations land on the real
    image.  This is the only path on which :data:`MUTATING_KINDS` execute.
    """
    if cluster.sanitize:
        for op in ops:
            validate_op(op)
    nodes = cluster.nodes
    return [_execute_op(nodes, None, op) for op in ops]


def _apply_block(
    nodes,
    cache: Optional[HeavyHitterProbeCache],
    block: "DeltaBlock",
    data: bool = True,
) -> None:
    """Apply one refresh block to the local node image, in entry order.

    Uncharged: the coordinator already billed every mutation through the
    serial bulk paths — refresh is pure replication, not modeled work.
    Probe-cache invalidation mirrors ``_execute_op``'s write kinds exactly
    (insert invalidation gated on resident rows, delete invalidation
    unconditional), so a slot's hit/miss history is identical to the serial
    engines'.  ``data=False`` (the ``workers=1`` inline shard, whose image
    *is* the coordinator's) performs only the cache invalidation.

    Inserts apply through ``insert_many`` in journaled run order, and the
    rowids the fragment assigns are asserted against the coordinator's —
    any divergence means the images forked.
    """
    kind = block.kind
    node = nodes[block.node]
    name = block.name
    if kind == "frag_delta":
        fragment = node.fragment(name) if data else None
        node_id = block.node
        resident = cache is not None and cache.has_resident_rows()
        batch: List["Row"] = []
        expected: List[int] = []

        def flush() -> None:
            if not batch:
                return
            rowids = fragment.insert_many(batch)
            if list(rowids) != expected:  # pragma: no cover - invariant guard
                raise RuntimeError(
                    f"refresh rowid divergence on {name!r} at node {node_id}"
                )
            batch.clear()
            expected.clear()

        for entry_op, rowid, row, _tag, _ref in block.entries():
            if entry_op == OP_INSERT:
                if resident:
                    cache.note_write(node_id, name, row)
                if data:
                    batch.append(row)
                    expected.append(rowid)
            else:
                if data:
                    flush()
                    fragment.delete(rowid)
                if cache is not None:
                    cache.note_write(node_id, name, row)
        if data:
            flush()
        return
    if kind == "gi_delta":
        partition = node.gi_partition(name) if data else None
        node_id = block.node
        for entry_op, rowid, key, _tag, ref in block.entries():
            if cache is not None:
                cache.note_gi_write(node_id, name, key)
            if not data:
                continue
            if entry_op == OP_INSERT:
                partition.insert(key, GlobalRowId(ref, rowid))
            else:
                partition.delete(key, GlobalRowId(ref, rowid))
        return
    raise ValueError(f"unknown refresh block kind {kind!r}")


def _reads_of(op: tuple) -> Tuple[str, int, str]:
    """The journal target ``(block kind, node, structure)`` a wire op reads.

    Doubles as the :data:`WIRE_KINDS` gate: anything else in an engine
    envelope is a protocol violation (mutations reach workers only as
    refresh blocks).
    """
    kind = op[0]
    if kind == "gi_probe":
        return ("gi_delta", op[1], op[2])
    if kind in ("probe", "fetch", "merge"):
        return ("frag_delta", op[1], op[2])
    raise ValueError(
        f"engine envelopes carry read ops only ({sorted(WIRE_KINDS)}); "
        f"got {kind!r} — mutations stay on the coordinator and reach "
        "workers as refresh blocks"
    )


class RefreshJournal:
    """Columnar mutation log between the coordinator and the pool.

    One :class:`~repro.core.delta.DeltaBlock` per written ``(node,
    structure)``, appended in coordinator execution order, plus one cursor
    per worker per block.  :meth:`pending` slices each requested block from
    the worker's cursor — the piggybacked refresh payload — and drops a
    block once every worker has consumed it.  The journal lives for one
    pool generation: it is created at :meth:`ParallelEngine.start` (the
    fork point, where every worker's image is current) and discarded at
    drain.

    View fragments are deliberately **never** journaled — no read op ever
    targets them, and their writes dominate a maintenance statement's data
    volume — which is most of this wire format's bandwidth win.
    """

    __slots__ = ("workers", "_logs", "_cursors")

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._logs: Dict[Tuple[str, int, str], DeltaBlock] = {}
        self._cursors: Dict[Tuple[str, int, str], List[int]] = {}

    def _log(self, kind: str, node: int, name: str) -> DeltaBlock:
        target = (kind, node, name)
        log = self._logs.get(target)
        if log is None:
            log = self._logs[target] = DeltaBlock(kind, node, name)
            self._cursors[target] = [0] * self.workers
        return log

    # ------------------------------------------------------------- writers

    def log_insert(self, node: int, name: str, rowid: int, row, tag: "Tag") -> None:
        self._log("frag_delta", node, name).add(OP_INSERT, rowid, row, tag)

    def log_insert_run(
        self, node: int, name: str, rowids: Sequence[int], rows: Sequence,
        tag: "Tag",
    ) -> None:
        """Bulk form of :meth:`log_insert` for one fragment's insert batch
        (columns extend at C speed — the journal must stay cheap enough
        that armed-but-unread statements cost ~nothing)."""
        if rowids:
            self._log("frag_delta", node, name).extend(
                OP_INSERT, rowids, rows, tag
            )

    def log_delete(self, node: int, name: str, rowid: int, row, tag: "Tag") -> None:
        self._log("frag_delta", node, name).add(OP_DELETE, rowid, row, tag)

    def log_gi_insert(
        self, node: int, name: str, key, grid: GlobalRowId, tag: "Tag"
    ) -> None:
        self._log("gi_delta", node, name).add(
            OP_INSERT, grid.rowid, key, tag, ref=grid.node
        )

    def log_gi_insert_run(
        self, node: int, name: str, entries: Sequence, tag: "Tag"
    ) -> None:
        """Bulk form of :meth:`log_gi_insert` for one partition's
        ``(key, GlobalRowId)`` entry batch."""
        if entries:
            self._log("gi_delta", node, name).extend(
                OP_INSERT,
                [grid.rowid for _key, grid in entries],
                [key for key, _grid in entries],
                tag,
                refs=[grid.node for _key, grid in entries],
            )

    def log_gi_delete(
        self, node: int, name: str, key, grid: GlobalRowId, tag: "Tag"
    ) -> None:
        self._log("gi_delta", node, name).add(
            OP_DELETE, grid.rowid, key, tag, ref=grid.node
        )

    # ------------------------------------------------------------ consumers

    def pending(
        self, worker_id: int, targets: Sequence[Tuple[str, int, str]]
    ) -> List[DeltaBlock]:
        """The blocks ``worker_id`` must apply before reading ``targets``,
        advancing its cursors.  Fully-consumed logs are dropped."""
        out: List[DeltaBlock] = []
        logs = self._logs
        cursors = self._cursors
        for target in targets:
            log = logs.get(target)
            if log is None:
                continue
            cursor = cursors[target]
            start = cursor[worker_id]
            length = len(log)
            if start >= length:
                continue
            out.append(log if start == 0 else log.tail(start))
            cursor[worker_id] = length
            if min(cursor) >= length:
                del logs[target]
                del cursors[target]
        return out

    @property
    def entries(self) -> int:
        """Total un-dropped journal entries (telemetry only)."""
        return sum(len(log) for log in self._logs.values())


def _worker_main(cluster: "Cluster", conn, threshold: int) -> None:
    """Worker process loop: a read server over a forked copy of the whole
    cluster image, kept current lazily by refresh blocks.

    Reply envelope: ``("ok", results, cells, elapsed_ns, cpu_ns, events)``.
    ``cpu_ns`` (CPU time — immune to scheduler preemption, which matters on
    core-starved runners) feeds the bench's per-worker skew report;
    ``elapsed_ns`` feeds the superstep-duration histogram; ``events``
    carries the compact :func:`_note_event` tallies of a traced superstep
    (empty otherwise).
    """
    # Neutralize the forked copy of the engine so nothing in this process
    # can ever write to the coordinator's pipes (e.g. a stray __del__).
    engine = cluster._parallel_engine
    cluster._parallel_engine = None
    cluster.workers = 0
    if engine is not None:
        engine._disarm()
    ledger = CostLedger(cluster.ledger.params)
    for node in cluster.nodes:
        node.ledger = ledger
    cache = HeavyHitterProbeCache(threshold) if threshold > 0 else None
    nodes = cluster.nodes
    cells = ledger._cells
    while True:
        try:
            blob = conn.recv_bytes()
        except (EOFError, OSError):  # pragma: no cover - parent died
            break
        message = _decode(blob)
        if message[0] == "shm":
            message = _shm_read(message[1], message[2])
        kind = message[0]
        if kind == "stop":
            conn.send_bytes(_encode(("bye",)))  # repro: uncharged-mirror=worker IPC control reply, not a modeled message
            break
        if kind == "stats":
            conn.send_bytes(_encode((  # repro: uncharged-mirror=worker IPC stats reply, not a modeled message
                "ok",
                cache.stats() if cache is not None else {},
                cache.heavy_hitters() if cache is not None else [],
            )))
            continue
        _, catalog_version, blocks, ops, trace = message
        if cache is not None:
            cache.check_epoch(catalog_version)
        cells.clear()
        events = {} if trace else None
        start_ns = time.perf_counter_ns()  # repro: wall-clock=worker busy-time telemetry; never reaches the ledger
        start_cpu = time.process_time_ns()  # repro: wall-clock=worker CPU-time telemetry; never reaches the ledger
        try:
            for block in blocks:
                _apply_block(nodes, cache, block)
            results = [_execute_op(nodes, cache, op, events) for op in ops]
        except BaseException:
            conn.send_bytes(_encode(("err", traceback.format_exc(), {})))  # repro: uncharged-mirror=worker IPC failure reply, not a modeled message
            break
        cpu_ns = time.process_time_ns() - start_cpu  # repro: wall-clock=worker CPU-time telemetry; never reaches the ledger
        elapsed_ns = time.perf_counter_ns() - start_ns  # repro: wall-clock=worker busy-time telemetry; never reaches the ledger
        conn.send_bytes(_encode(  # repro: uncharged-mirror=worker IPC reply envelope; the work it mirrors is already charged
            ("ok", results, dict(cells), elapsed_ns, cpu_ns, events or {})
        ))
    conn.close()


# ======================================================= coordinator side

#: First-touch routing weight per wire kind, before a slot's true match
#: count has been observed (deterministic: derived from the op alone).
_DEFAULT_WEIGHTS = {"probe": 2.0, "gi_probe": 2.0}


class ParallelEngine:
    """Coordinator handle for the read-server worker pool of one cluster.

    ``workers=1`` is special-cased as an **inline shard**: the coordinator
    executes the read ops itself (billing the real ledger directly), the
    heavy-hitter probe cache still applies, and the refresh journal only
    drives cache invalidation.  This keeps the single-worker configuration
    within the engine-overhead budget (op-list construction only) instead
    of paying IPC serialization for no parallelism.
    """

    def __init__(
        self, cluster: "Cluster", workers: int, probe_cache_threshold: int = 3
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.cluster = cluster
        self.workers = workers
        self.probe_cache_threshold = probe_cache_threshold
        self.running = False
        #: poisoned by a worker failure; the cluster then stays serial
        self.broken = False
        #: Read supersteps executed — the statement barrier count.  With
        #: mutations coordinator-side this is 1 per index-nested-loop hop
        #: statement (the GI hop's probe→fetch dependency costs 2).
        self.supersteps = 0
        #: Statements that ran with this engine armed (the denominator of
        #: ``envelopes_per_statement`` / ``barriers_per_transaction``).
        self.statements = 0
        #: Cumulative busy **CPU** nanoseconds per worker slot across the
        #: engine's whole life (survives drain/re-fork cycles).  CPU time,
        #: not wall: on a core-starved runner the wall clock of a worker
        #: includes time spent descheduled, which would drown the skew
        #: signal in scheduler noise.
        self.worker_busy_ns: List[int] = [0] * workers
        #: Envelopes / framed bytes shipped per worker (step envelopes
        #: only; control traffic is not counted).  Telemetry, never costs.
        self.envelopes: List[int] = [0] * workers
        self.ipc_tx_bytes: List[int] = [0] * workers
        self.ipc_rx_bytes: List[int] = [0] * workers
        #: Blobs at or above this many bytes travel via a shared-memory
        #: segment (tiny control frame on the pipe) when the platform
        #: supports it; ``None`` disables the path.
        self.shm_min_bytes: Optional[int] = 256 * 1024
        #: Optional schedule-permutation hooks (duck-typed — anything with
        #: ``permute(kind, key, items) -> items``; see
        #: :mod:`repro.analysis.interleave`).  When set, the four order
        #: decisions of a forked superstep — envelope send order, the
        #: refresh-block list of each envelope, reply drain order, and the
        #: ledger-delta fold order — route through it.  Permutations only
        #: reorder *already-computed* work: routing, op construction, and
        #: every charge are upstream of all four points, so any schedule
        #: must leave ledgers, fragments, and stats bit-identical to the
        #: serial engines.  The interleave detector exists to prove that.
        self.schedule = None
        #: Mutation log of the current pool generation (``None`` when
        #: drained); the cluster's bulk write paths append to it.
        self.journal: Optional[RefreshJournal] = None
        self._owner_pid = os.getpid()
        self._conns: List = []
        self._procs: List = []
        #: Sticky slot→worker routing plus per-worker accumulated weight
        #: and per-slot learned weight (observed match counts) — all reset
        #: each generation, all derived from deterministic values.
        self._slot_worker: Dict[tuple, int] = {}
        self._slot_weight: Dict[tuple, float] = {}
        self._route_load: List[float] = [0.0] * workers
        self._inline_cache: Optional[HeavyHitterProbeCache] = None
        #: Last probe-cache stats observed at :meth:`stop` (worker caches
        #: die with their processes; this keeps their final counters
        #: collectable afterwards).
        self._final_cache_stats: List[Dict[str, int]] = []
        self._final_heavy_hitters: List[list] = []

    @property
    def inline(self) -> bool:
        """Whether this engine runs its single shard in-process."""
        return self.workers == 1

    # ------------------------------------------------------ pool lifecycle

    def start(self) -> None:
        """Fork the pool from the coordinator's current node image."""
        if self.running or self.broken:
            return
        self.journal = RefreshJournal(self.workers)
        self._slot_worker = {}
        self._slot_weight = {}
        self._route_load = [0.0] * self.workers
        if self.inline:
            if self._inline_cache is None and self.probe_cache_threshold > 0:
                self._inline_cache = HeavyHitterProbeCache(
                    self.probe_cache_threshold
                )
            self.running = True
            return
        context = multiprocessing.get_context("fork")
        self._conns = []
        self._procs = []
        for _worker_id in range(self.workers):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(self.cluster, child_conn, self.probe_cache_threshold),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(process)
        self.running = True

    def stop(self) -> None:
        """Drain the pool.  Free: the coordinator image is authoritative,
        so worker state is simply discarded; a later :meth:`start` re-forks
        from the then-current image.  Worker probe-cache stats are
        snapshotted first so their counters survive the drain."""
        if self.running:
            try:
                self._final_cache_stats = self.probe_cache_stats()
                self._final_heavy_hitters = self.heavy_hitters()
            except (EOFError, OSError):  # pragma: no cover - dying workers
                pass
        self.journal = None
        if self.inline:
            # Discard the inline shard's cache, exactly as a forked
            # worker's cache dies with its process.
            self._inline_cache = None
            self.running = False
            return
        if not self._conns:
            self.running = False
            return
        for conn in self._conns:
            try:
                conn.send_bytes(_encode(("stop",)))  # repro: uncharged-mirror=pool shutdown IPC, not a modeled message
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
        for conn in self._conns:
            try:
                conn.recv_bytes()
            except (EOFError, OSError):
                pass
            conn.close()
        for process in self._procs:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
        self._conns = []
        self._procs = []
        self.running = False

    def _disarm(self) -> None:
        """Forget all pool handles without touching the pipes (called in
        the forked child on its inherited copy of the engine)."""
        self._conns = []
        self._procs = []
        self.journal = None
        self.running = False

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        if self.running and os.getpid() == self._owner_pid:
            try:
                self.stop()
            except Exception:
                pass

    # ------------------------------------------------------------- routing

    def _route_op(self, op: tuple) -> Tuple[int, tuple]:
        """The worker serving ``op``, plus the cache-slot identity routed.

        Slots are exactly the probe-cache keys, so a slot's promotion and
        hit/miss sequence happens in one cache regardless of worker count.
        First touch goes to the least-loaded worker (lowest id on ties —
        deterministic); the accumulated load uses the slot's last observed
        match count, which is itself deterministic, so the whole placement
        is reproducible run-to-run and never consulted for charging.
        """
        kind = op[0]
        if kind == "probe":
            slot = ("p", op[1], op[2], op[3], op[4])
        elif kind == "gi_probe":
            slot = ("g", op[1], op[2], op[3])
        elif kind == "fetch":
            slot = ("f", op[1], op[2], tuple(op[3]))
        elif kind == "merge":
            slot = ("m", op[1], op[2])
        else:
            _reads_of(op)  # raises: not a wire kind
        worker_id = self._slot_worker.get(slot)
        weight = self._slot_weight.get(slot)
        if weight is None:
            if kind == "fetch":
                weight = 1.0 + len(op[3])
            elif kind == "merge":
                weight = 1.0 + self.cluster.nodes[op[1]].fragment_pages(op[2])
            else:
                weight = _DEFAULT_WEIGHTS[kind]
        if worker_id is None:
            load = self._route_load
            worker_id = min(range(self.workers), key=load.__getitem__)
            self._slot_worker[slot] = worker_id
        self._route_load[worker_id] += weight
        return worker_id, slot

    def _learn_weights(
        self, ops: Sequence[tuple], slots: Sequence[tuple], results: Sequence
    ) -> None:
        """Update per-slot weights from observed match counts (reply data —
        deterministic, so future placements stay reproducible)."""
        weights = self._slot_weight
        for op, slot, result in zip(ops, slots, results):
            kind = op[0]
            if kind in ("probe", "fetch"):
                weights[slot] = 1.0 + len(result)
            elif kind == "gi_probe":
                weights[slot] = 1.0 + sum(len(v) for v in result.values())

    # --------------------------------------------------------- supersteps

    def run_ops(self, ops: Sequence[tuple]) -> List[object]:
        """One read superstep: sticky-route ``ops`` to workers, piggyback
        each worker's pending refresh blocks on its envelope, execute,
        merge ledger deltas deterministically, and return per-op results
        in op order.

        When observability is enabled the superstep runs inside a
        ``superstep`` span tagged only with its ordinal and op count —
        deliberately **not** the worker count, so the span/event signature
        of a statement is identical for any number of workers (the
        determinism tests compare workers∈{1,2} byte-for-byte)."""
        if not ops:
            return []
        if self.cluster.sanitize:
            for op in ops:
                validate_op(op)
        obs = self.cluster.obs
        runner = self._run_inline if self.inline else self._run_forked
        if not obs.enabled:
            return runner(ops, None, None)
        with obs.span("superstep", index=self.supersteps, ops=len(ops)) as span:
            return runner(ops, obs, span)

    def _targets_of(self, ops: Sequence[tuple]) -> List[Tuple[str, int, str]]:
        """Deduplicated journal targets of ``ops``, first-read order."""
        targets: List[Tuple[str, int, str]] = []
        seen = set()
        for op in ops:
            target = _reads_of(op)
            if target not in seen:
                seen.add(target)
                targets.append(target)
        return targets

    def _run_inline(self, ops: Sequence[tuple], obs, span) -> List[object]:
        """Single-shard superstep executed in-process (``workers=1``)."""
        cluster = self.cluster
        cache = self._inline_cache
        if cache is not None:
            cache.check_epoch(cluster.catalog.version)
        nodes = cluster.nodes
        journal = self.journal
        if journal is not None:
            # The inline image is the coordinator's, so the pending refresh
            # carries no new data — but its write set must still invalidate
            # the probe cache, exactly as it would in a forked worker.
            for block in journal.pending(0, self._targets_of(ops)):
                if cache is not None:
                    _apply_block(nodes, cache, block, data=False)
        events: Optional[Dict] = {} if span is not None else None
        start_ns = time.perf_counter_ns()  # repro: wall-clock=inline busy-time telemetry; never reaches the ledger
        start_cpu = time.process_time_ns()  # repro: wall-clock=inline CPU-time telemetry; never reaches the ledger
        # Nodes bill the real ledger directly, so there is nothing to merge.
        results = [_execute_op(nodes, cache, op, events) for op in ops]
        cpu_ns = time.process_time_ns() - start_cpu  # repro: wall-clock=inline CPU-time telemetry; never reaches the ledger
        elapsed_ns = time.perf_counter_ns() - start_ns  # repro: wall-clock=inline busy-time telemetry; never reaches the ledger
        self.worker_busy_ns[0] += cpu_ns
        self.supersteps += 1
        if span is not None:
            self._emit_superstep(obs, span, [elapsed_ns], [events])
        return results

    def _send_envelope(self, worker_id: int, message: tuple) -> None:
        """Frame and ship one step envelope, via shared memory when the
        blob clears the threshold (the segment is unlinked after this
        superstep's reply barrier)."""
        blob = _encode(message)
        conn = self._conns[worker_id]
        self.envelopes[worker_id] += 1
        self.ipc_tx_bytes[worker_id] += len(blob)
        threshold = self.shm_min_bytes
        if threshold is not None and len(blob) >= threshold:
            segment = _shm_create(blob)
            if segment is not None:
                self._shm_pending.append(segment)
                conn.send_bytes(_encode(("shm", segment.name, len(blob))))  # repro: uncharged-mirror=superstep IPC control frame; modeled sends are charged by the coordinator's routing
                return
        conn.send_bytes(blob)  # repro: uncharged-mirror=superstep IPC envelope; modeled sends are charged by the coordinator's routing

    def _run_forked(self, ops: Sequence[tuple], obs, span) -> List[object]:
        """Fan one superstep's reads out to the forked pool and merge back."""
        cluster = self.cluster
        journal = self.journal
        per_worker: Dict[int, List[int]] = {}
        slots: List[tuple] = []
        for position, op in enumerate(ops):
            worker_id, slot = self._route_op(op)
            slots.append(slot)
            per_worker.setdefault(worker_id, []).append(position)
        version = cluster.catalog.version
        trace = span is not None
        schedule = self.schedule
        step = self.supersteps
        self._shm_pending: List = []
        try:
            worker_order = list(per_worker)
            if schedule is not None:
                worker_order = schedule.permute(
                    "envelope", (step, -1), worker_order
                )
            for worker_id in worker_order:
                positions = per_worker[worker_id]
                worker_ops = [ops[position] for position in positions]
                blocks = journal.pending(
                    worker_id, self._targets_of(worker_ops)
                )
                if schedule is not None:
                    # Blocks target distinct (kind, node, structure) runs,
                    # so their application order must commute.
                    blocks = schedule.permute(
                        "refresh", (step, worker_id), blocks
                    )
                if cluster.sanitize:
                    for block in blocks:
                        validate_block(block)
                self._send_envelope(
                    worker_id, ("step", version, blocks, worker_ops, trace)
                )
            results: List[object] = [None] * len(ops)
            deltas: List[Dict] = []
            elapsed: List[int] = []
            event_maps: List[Dict] = []
            drain_order = sorted(per_worker)
            if schedule is not None:
                drain_order = schedule.permute("reply", (step, -1), drain_order)
            for worker_id in drain_order:
                blob = self._conns[worker_id].recv_bytes()
                self.ipc_rx_bytes[worker_id] += len(blob)
                reply = _decode(blob)
                if reply[0] != "ok":
                    raise RuntimeError(
                        f"parallel worker {worker_id} failed:\n{reply[1]}"
                    )
                for position, result in zip(per_worker[worker_id], reply[1]):
                    results[position] = result
                deltas.append(reply[2])
                elapsed.append(reply[3])
                self.worker_busy_ns[worker_id] += reply[4]
                if trace:
                    event_maps.append(reply[5])
        except (RuntimeError, EOFError, OSError) as exc:
            self.broken = True
            self.running = False
            for conn in self._conns:
                conn.close()
            self._conns = []
            self._procs = []
            self._release_shm()
            raise RuntimeError(f"parallel superstep failed: {exc}") from exc
        self._release_shm()
        self.supersteps += 1
        if schedule is not None:
            deltas = schedule.permute("merge", (step, -1), deltas)
        cluster.ledger.absorb(deltas)
        self._learn_weights(ops, slots, results)
        if trace:
            self._emit_superstep(obs, span, elapsed, event_maps)
        return results

    def _release_shm(self) -> None:
        """Unlink the shared-memory segments of the finished superstep
        (every worker has replied, so nobody still reads them)."""
        for segment in getattr(self, "_shm_pending", ()):
            try:
                segment.close()
                segment.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass
        self._shm_pending = []

    def _emit_superstep(  # repro: obs-guarded=run_ops only passes a non-None span when obs.enabled
        self,
        obs,
        span,
        elapsed_ns: List[int],
        event_maps: List[Dict],
    ) -> None:
        """Surface one traced superstep's worker activity.

        Event tallies are merged across workers and emitted in sorted
        ``(node, kind, detail)`` order — node-scoped keys plus slot-sticky
        routing make the merged tally independent of worker count, so
        traces are bit-stable.  Wall-clock only ever reaches the
        (signature-exempt) duration histogram, never span tags or events.
        """
        merged: Dict[Tuple[int, str, str], int] = {}
        for events in event_maps:
            for slot, count in events.items():
                merged[slot] = merged.get(slot, 0) + count
        counter = obs.metrics.counter(
            "repro_worker_events_total",
            "Worker-side envelope command events per node, kind, and detail",
        )
        for slot in sorted(merged):
            node_id, kind, detail = slot
            count = merged[slot]
            span.event("ops", node=node_id, kind=kind, detail=detail, count=count)
            counter.inc(count, node=node_id, kind=kind, detail=detail)
        histogram = obs.metrics.histogram(
            "repro_superstep_seconds",
            "Per-worker busy time of each parallel superstep",
        )
        for busy in elapsed_ns:
            histogram.observe(busy / 1e9)

    # -------------------------------------------------------------- stats

    def probe_cache_stats(self) -> List[Dict[str, int]]:
        """Per-worker heavy-hitter cache statistics.

        While the pool runs this is a live round trip; after a drain it
        returns the final snapshot :meth:`stop` took, so the counters stay
        collectable (the metrics export reads them after the statement)."""
        if not self.running:
            return self._final_cache_stats
        if self.inline:
            return [self._inline_cache.stats() if self._inline_cache else {}]
        for conn in self._conns:
            conn.send_bytes(_encode(("stats",)))  # repro: uncharged-mirror=stats-collection IPC, not a modeled message
        stats = []
        for conn in self._conns:
            reply = _decode(conn.recv_bytes())
            stats.append(reply[1])
        return stats

    def heavy_hitters(self) -> List[list]:
        """Per-worker resident hot keys, ``(kind, node, structure,
        key_repr, matches)`` tuples per worker — the bench's skew report.
        Returns the :meth:`stop` snapshot once drained."""
        if not self.running:
            return self._final_heavy_hitters
        if self.inline:
            return [
                self._inline_cache.heavy_hitters() if self._inline_cache else []
            ]
        for conn in self._conns:
            conn.send_bytes(_encode(("stats",)))  # repro: uncharged-mirror=stats-collection IPC, not a modeled message
        out: List[list] = []
        for conn in self._conns:
            reply = _decode(conn.recv_bytes())
            out.append(reply[2])
        return out
