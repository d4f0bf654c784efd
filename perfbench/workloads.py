"""The three workloads: inputs made from the seed, clusters, and the runs.

Every workload runs one cluster per maintenance method on the default
engine (``Cluster(num_nodes=8)``, no knobs), in one process with no
threads, through the public API only.  The program receives generated
rows and nothing else.

``stream``  closed loop; 20-row A inserts with uniform keys against a
            16,384-row B.  Per-statement fixed cost dominates.
``bulk``    closed loop; 4,800-row A inserts with Zipf(1.2) keys over
            64 keys x fanout 4.  Storage writes, join compute and view
            apply dominate.
``mixed``   open loop at :data:`MIXED_RATE` ops/s against 32,768 resident
            A rows: inserts, deletes, updates, 2-statement transactions
            (one in four rolled back) and point reads, with one eager
            view and one deferred global-index view.

A closed-loop workload runs in rounds.  Each round builds one fresh
cluster per method, in an order that rotates by round, and runs a block of
statements on it.  Rebuilding bounds memory and the cost of the
recompute check.  Rotating spreads machine noise over the methods evenly.
Every time is scaled to a nominal machine speed (see ``speed.py``).
"""

from __future__ import annotations

import gc
import itertools
import math
import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import (Cluster, HashPartitioning, JoinCondition, Schema,
                   recompute_view, two_way_view)
from repro.core import defer_view
from repro.query import Comparison, Filter, Query, QueryEngine

from .pacing import poisson_offsets, run_open_loop
from .speed import PROBE_EVERY, REFERENCE_SECONDS, SpeedMeter
from .tracer import LayerTracer

NODES = 8
METHODS = ("naive", "auxiliary", "global_index")

#: Open-loop arrival rate of ``mixed`` (ops/s); BENCHMARK.json states it too.
MIXED_RATE = 80.0
#: ``mixed`` op mix: every 20 arrivals hold exactly these kinds, in a
#: seeded order, so the mix does not vary with the seed.
MIXED_DECK = ("insert",) * 6 + ("delete",) * 3 + ("update",) * 3 \
    + ("txn",) * 2 + ("read",) * 6
#: one transaction in every four rolls back, at a seeded position
ROLLBACK_DECK = (True, False, False, False)
MIXED_RESIDENT = 32_768
MIXED_FLUSH = 400  # JV2's deferred auto-flush threshold, pending changes
#: a speed probe runs in an open-loop gap only if this much time is left
PROBE_SLACK = 4 * REFERENCE_SECONDS

Row = Tuple[int, int, int]


@dataclass(frozen=True)
class ClosedSpec:
    """Shape of a closed-loop workload."""

    name: str
    keys: int
    fanout: int
    rows_per_statement: int
    skew: float           # Zipf exponent of the join keys; 0 = uniform
    warmup: int           # untimed statements at the start of each block
    block_statements: int  # timed statements per block
    trace_rounds: int     # rounds of a traced run (fixed work)


STREAM = ClosedSpec("stream", keys=4096, fanout=4, rows_per_statement=20,
                    skew=0.0, warmup=5, block_statements=150, trace_rounds=3)
BULK = ClosedSpec("bulk", keys=64, fanout=4, rows_per_statement=4800,
                  skew=1.2, warmup=0, block_statements=3, trace_rounds=3)


@dataclass
class Tally:
    """Everything one pass over a workload observed."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    setup: List[float] = field(default_factory=list)
    #: op class ("write", "txn", "read") -> latencies (seconds)
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    #: method -> (base tuples written, seconds of write service time)
    work: Dict[str, Tuple[int, float]] = field(default_factory=dict)
    #: method -> write latencies (seconds)
    writes: Dict[str, List[float]] = field(default_factory=dict)
    #: total service time of the measured operations (nominal seconds)
    busy: float = 0.0
    #: base tuples written by measured DML (an update pair counts 2)
    tuples: int = 0
    #: ledger cells charged by the measured operations, (op, tag) -> count
    measured_cells: Counter = field(default_factory=Counter)
    #: whole-ledger totals per block, for the traced/untraced comparison
    ledgers: List[Dict[Tuple[str, str], float]] = field(default_factory=list)
    stored: int = 0
    base_stored: int = 0
    lags: List[float] = field(default_factory=list)
    backlog_end: int = 0
    #: raw (unscaled) seconds of the measured operations
    raw_busy: float = 0.0
    meter: SpeedMeter = field(default_factory=SpeedMeter)

    def add_work(self, method: str, tuples: int, seconds: float) -> None:
        done, spent = self.work.get(method, (0, 0.0))
        self.work[method] = (done + tuples, spent + seconds)

    def latency(self, method: str, kind: str, seconds: float) -> None:
        self.latencies.setdefault(kind, []).append(seconds)
        if kind == "write":
            self.writes.setdefault(method, []).append(seconds)


# ================================================================ inputs


def b_rows(keys: int, fanout: int) -> List[Row]:
    """B: ``fanout`` rows per join key; ``f`` doubles as a unique payload."""
    return [(k * fanout + i, k, k * fanout + i)
            for k in range(keys) for i in range(fanout)]


def _rng(*parts: object) -> random.Random:
    return random.Random("/".join(str(part) for part in parts))


class KeySampler:
    """Join keys: uniform, or Zipf(``skew``) over a seed-shuffled ranking so
    the hot keys are not always the low hash values."""

    def __init__(self, keys: int, skew: float, seed: int) -> None:
        self.keys = keys
        self.ranked = list(range(keys))
        self.cum: Optional[List[float]] = None
        if skew:
            _rng(seed, "ranking").shuffle(self.ranked)
            self.cum = list(itertools.accumulate(
                1.0 / math.pow(rank, skew) for rank in range(1, keys + 1)))

    def draw(self, rng: random.Random, count: int) -> List[int]:
        if self.cum is None:
            return [rng.randrange(self.keys) for _ in range(count)]
        return rng.choices(self.ranked, cum_weights=self.cum, k=count)


def statement_rows(spec: ClosedSpec, sampler: KeySampler, seed: int,
                   round_no: int, index: int) -> List[Row]:
    """The ``index``-th statement of a round; the same on every method."""
    rng = _rng(seed, spec.name, round_no, index)
    first = index * spec.rows_per_statement
    keys = sampler.draw(rng, spec.rows_per_statement)
    return [(first + i, key, first + i) for i, key in enumerate(keys)]


# ============================================================== clusters


def _jv(name: str, select, partition_column: str):
    return two_way_view(name, "A", "c", "B", "d", select=select,
                        partitioning=HashPartitioning(partition_column))


def build_cluster(method: str, keys: int, fanout: int,
                  resident: Sequence[Row] = (), deferred: bool = False):
    """A ready cluster: A and B, B loaded (and A's resident rows), then the
    eager view ``JV`` by ``method`` and, for ``mixed``, the deferred
    global-index view ``JV2``.  Returns ``(cluster, deferred wrapper)``."""
    cluster = Cluster(num_nodes=NODES)
    cluster.create_relation(Schema.of("A", "a", "c", "e"), partitioned_on="a")
    cluster.create_relation(Schema.of("B", "b", "d", "f"), partitioned_on="b",
                            indexes=[("d", False)])
    cluster.insert("B", b_rows(keys, fanout))
    if resident:
        cluster.insert("A", resident)
    cluster.create_join_view(_jv("JV", [("A", "e"), ("B", "f")], "e"),
                             method=method)
    wrapper = None
    if deferred:
        cluster.create_join_view(_jv("JV2", [("A", "a"), ("B", "b")], "a"),
                                 method="global_index")
        wrapper = defer_view(cluster, "JV2", flush_threshold=MIXED_FLUSH)
    return cluster, wrapper


def ledger_totals(cluster) -> Dict[Tuple[str, str], float]:
    """Ledger totals per (Op, Tag), summed over nodes."""
    totals: Dict[Tuple[str, str], float] = {}
    for (_, op, tag), count in cluster.ledger.snapshot().cells.items():
        key = (op.name, tag.name)
        totals[key] = totals.get(key, 0.0) + count
    return totals


def _cells(before, after) -> Counter:
    """Ledger counts charged between two snapshots, per (Op, Tag)."""
    out: Counter = Counter()
    for cell, count in after.cells.items():
        delta = count - before.cells.get(cell, 0.0)
        if delta:
            out[(cell[1].name, cell[2].name)] += delta
    return out


def finish_block(cluster, wrapper, tally: Tally, label: str,
                 space: bool) -> None:
    """Bring deferred views current, check every view against a recompute,
    record ledger totals and, with ``space``, the tuples stored."""
    views = ("JV",)
    if wrapper is not None:
        wrapper.refresh()
        views += ("JV2",)
    for view in views:
        if Counter(cluster.view_rows(view)) != recompute_view(cluster, view):
            tally.problems.append(f"{label}: view {view} differs from its recompute")
    if space:
        usage = cluster.storage_tuples()
        tally.stored += sum(usage.values())
        tally.base_stored += usage["A"] + usage["B"]
    tally.ledgers.append(ledger_totals(cluster))


def _timed_setup(tally: Tally, build: Callable[[], tuple]) -> tuple:
    gc.collect()
    tally.meter.burst()
    start = time.perf_counter()
    built = build()
    elapsed = time.perf_counter() - start
    tally.meter.burst()
    tally.setup.append(elapsed * tally.meter.factor_at(start + elapsed / 2))
    return built


# ========================================================= closed loops


def run_closed(spec: ClosedSpec, seed: int, seconds: float,
               fixed: bool, tracer: Optional[LayerTracer] = None) -> Tally:
    """One closed-loop pass in whole rounds of fixed-size blocks.

    ``fixed`` runs ``trace_rounds`` rounds, the same work every time;
    otherwise rounds continue until the timed statements have taken
    ``seconds``.  Blocks are fixed in statements, not time, so every
    method runs the same statements in a round and memory does not depend
    on speed.
    """
    tally = Tally()
    sampler = KeySampler(spec.keys, spec.skew, seed)
    round_no = 0
    while (round_no < spec.trace_rounds) if fixed else (tally.raw_busy < seconds):
        shift = round_no % len(METHODS)
        for method in METHODS[shift:] + METHODS[:shift]:
            cluster, _ = _timed_setup(
                tally, lambda: build_cluster(method, spec.keys, spec.fanout))
            _closed_block(spec, sampler, seed, round_no, cluster, method,
                          tally, tracer)
            finish_block(cluster, None, tally,
                         f"{spec.name} {method} round {round_no}", fixed)
            del cluster
        round_no += 1
    return tally


def _closed_block(spec, sampler, seed, round_no, cluster, method,
                  tally, tracer) -> None:
    for index in range(spec.warmup):
        cluster.insert("A", statement_rows(spec, sampler, seed, round_no, index))
    gc.collect()
    before = cluster.ledger.snapshot()
    busy = 0.0
    tuples = 0
    timed: List[Tuple[float, float, bool]] = []  # (mid-time, seconds, ok)
    meter = tally.meter
    meter.burst()
    probed = time.perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        for index in range(spec.warmup, spec.warmup + spec.block_statements):
            rows = statement_rows(spec, sampler, seed, round_no, index)
            tally.attempted += 1
            start = time.perf_counter()
            try:
                cluster.insert("A", rows)
                ok = True
            except Exception as exc:  # one failed statement must not end the run
                ok = False
                tally.failed += 1
                tally.problems.append(f"{spec.name} {method}: {exc!r}")
            elapsed = time.perf_counter() - start
            busy += elapsed
            if ok:
                tuples += len(rows)
            timed.append((start + elapsed / 2, elapsed, ok))
            if start + elapsed - probed >= PROBE_EVERY:
                meter.probe()
                probed = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.restore()
    meter.burst()
    scaled = 0.0
    for moment, elapsed, ok in timed:
        seconds = elapsed * meter.factor_at(moment)
        tally.latency(method, "write", seconds if ok else math.inf)
        scaled += seconds
    tally.raw_busy += busy
    tally.busy += scaled
    tally.tuples += tuples
    tally.add_work(method, tuples, scaled)
    tally.measured_cells += _cells(before, cluster.ledger.snapshot())


# ============================================================ open loop


@dataclass(frozen=True)
class MixedOp:
    """One generated ``mixed`` operation and the rows it carries."""

    kind: str
    inserts: Tuple[Row, ...] = ()
    deletes: Tuple[Row, ...] = ()
    updates: Tuple[Tuple[Row, Row], ...] = ()
    rollback: bool = False
    read_e: int = -1
    expected: Tuple[Tuple[int, int], ...] = ()

    @property
    def tuples(self) -> int:
        """Base tuples this op writes (an update pair counts 2)."""
        return len(self.inserts) + len(self.deletes) + 2 * len(self.updates)


class _LiveRows:
    """The generator's model of A: which rows are live, O(1) random pick."""

    def __init__(self, rows: Sequence[Row]) -> None:
        self.rows = list(rows)
        self.slot = {row[0]: i for i, row in enumerate(self.rows)}

    def sample(self, rng: random.Random, count: int) -> List[Row]:
        return [self.rows[i] for i in rng.sample(range(len(self.rows)), count)]

    def add(self, row: Row) -> None:
        self.slot[row[0]] = len(self.rows)
        self.rows.append(row)

    def remove(self, row: Row) -> None:
        i = self.slot.pop(row[0])
        last = self.rows.pop()
        if i < len(self.rows):
            self.rows[i] = last
            self.slot[last[0]] = i

    def replace(self, old: Row, new: Row) -> None:
        self.rows[self.slot[old[0]]] = new


def mixed_inputs(seed: int, duration: float):
    """Resident A rows, arrival offsets and the op list for one window.

    Deletes, updates and reads target rows live at that point of the
    sequence; a rolled-back transaction leaves the model untouched.
    """
    keys, fanout = STREAM.keys, STREAM.fanout
    rng = _rng(seed, "mixed")
    resident = [(a, rng.randrange(keys), a) for a in range(MIXED_RESIDENT)]
    offsets = poisson_offsets(MIXED_RATE, duration, _rng(seed, "arrivals"))
    live = _LiveRows(resident)
    serial = MIXED_RESIDENT
    kinds: List[str] = []
    rollbacks: List[bool] = []

    def fresh(count: int) -> List[Row]:
        nonlocal serial
        rows = [(serial + i, rng.randrange(keys), serial + i) for i in range(count)]
        serial += count
        return rows

    ops: List[MixedOp] = []
    for _ in offsets:
        if not kinds:
            kinds = _dealt(rng, MIXED_DECK)
        kind = kinds.pop()
        if kind == "insert":
            rows = fresh(20)
            for row in rows:
                live.add(row)
            ops.append(MixedOp(kind, inserts=tuple(rows)))
        elif kind == "delete":
            rows = live.sample(rng, 5)
            for row in rows:
                live.remove(row)
            ops.append(MixedOp(kind, deletes=tuple(rows)))
        elif kind == "update":
            pairs = [(old, (old[0], rng.randrange(keys), old[2]))
                     for old in live.sample(rng, 5)]
            for old, new in pairs:
                live.replace(old, new)
            ops.append(MixedOp(kind, updates=tuple(pairs)))
        elif kind == "txn":
            rows = fresh(20)
            victims = live.sample(rng, 5)
            if not rollbacks:
                rollbacks = _dealt(rng, ROLLBACK_DECK)
            rollback = rollbacks.pop()
            if not rollback:
                for row in rows:
                    live.add(row)
                for row in victims:
                    live.remove(row)
            ops.append(MixedOp(kind, inserts=tuple(rows), deletes=tuple(victims),
                               rollback=rollback))
        else:
            row = live.rows[rng.randrange(len(live.rows))]
            expected = tuple((row[2], row[1] * fanout + i) for i in range(fanout))
            ops.append(MixedOp(kind, read_e=row[2], expected=expected))
    return resident, offsets, ops


def _dealt(rng: random.Random, deck: Sequence) -> list:
    hand = list(deck)
    rng.shuffle(hand)
    return hand


_READ_JOIN = (JoinCondition("A", "c", "B", "d"),)


def execute_mixed(cluster, engine: QueryEngine, op: MixedOp) -> bool:
    """Run one op; False if the program returned a wrong read."""
    if op.kind == "insert":
        cluster.insert("A", op.inserts)
    elif op.kind == "delete":
        cluster.delete("A", op.deletes)
    elif op.kind == "update":
        cluster.update("A", op.updates)
    elif op.kind == "txn":
        with cluster.transaction() as txn:
            txn.insert("A", op.inserts)
            txn.delete("A", op.deletes)
            if op.rollback:
                txn.rollback()
    else:
        result = engine.answer(Query(
            relations=("A", "B"), select=(("A", "e"), ("B", "f")),
            conditions=_READ_JOIN,
            filters=(Filter("A", "e", Comparison.EQ, op.read_e),),
        ))
        return sorted(result.rows) == list(op.expected)
    return True


def run_mixed(seed: int, seconds: float,
              tracer: Optional[LayerTracer] = None) -> Tally:
    """One open-loop pass of ``mixed``: the same op list on one cluster per
    method, each for a third of ``seconds``.  A traced pass is paced too,
    so its service times compare with the plain pass's."""
    tally = Tally()
    window = seconds / len(METHODS)
    resident, offsets, ops = mixed_inputs(seed, window)
    for method in METHODS:
        cluster, wrapper = _timed_setup(
            tally, lambda: build_cluster(method, STREAM.keys, STREAM.fanout,
                                         resident=resident, deferred=True))
        engine = QueryEngine(cluster)
        gc.collect()
        before = cluster.ledger.snapshot()

        def execute(index: int) -> bool:
            op = ops[index]
            tally.attempted += 1
            try:
                ok = execute_mixed(cluster, engine, op)
                if not ok:
                    tally.problems.append(f"mixed {method}: wrong read of e={op.read_e}")
            except Exception as exc:  # one failed op must not end the run
                ok = False
                tally.problems.append(f"mixed {method} {op.kind}: {exc!r}")
            if not ok:
                tally.failed += 1
            return ok

        tally.meter.burst()
        if tracer is not None:
            tracer.install()
        try:
            run = run_open_loop(offsets, window, execute, idle=tally.meter.probe,
                                idle_slack=PROBE_SLACK)
        finally:
            if tracer is not None:
                tracer.restore()
        tally.meter.burst()
        committed = 0
        service: Dict[str, List[float]] = {}
        for op, latency, spent, start in zip(ops, run.latencies, run.service,
                                             run.started):
            scale = tally.meter.factor_at(start + spent / 2)
            tally.latency(method, op.kind if op.kind in ("read", "txn") else "write",
                          latency * scale)
            tally.raw_busy += spent
            tally.busy += spent * scale
            tally.tuples += op.tuples
            if op.kind != "read" and math.isfinite(latency):
                service.setdefault(op.kind, []).append(spent * scale)
                committed += 0 if op.rollback else op.tuples
        # Write time as each kind's count times its median service time: the
        # few ops that absorb a deferred refresh or a full garbage collection
        # would otherwise swing the sum by a third from run to run.
        tally.add_work(method, committed, sum(
            len(spent) * statistics.median(spent) for spent in service.values()))
        tally.lags.extend(run.lags)
        tally.backlog_end += run.backlog_end
        tally.measured_cells += _cells(before, cluster.ledger.snapshot())
        finish_block(cluster, wrapper, tally, f"mixed {method}", tracer is not None)
        del cluster, wrapper, engine
    return tally
