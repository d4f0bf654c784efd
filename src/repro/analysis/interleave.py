"""Seeded schedule-permutation race detector for the parallel engine.

The worker-pool engine (:mod:`repro.cluster.parallel`) promises ledgers,
network statistics, and fragment contents **bit-identical** to the serial
engines, for every worker count.  That promise only holds if the four
coordinator-side order decisions in ``_run_forked`` — envelope send
order, per-envelope refresh-block order, reply drain order, and merge
fold order — genuinely commute.  The engine exposes them through the
``ParallelEngine.schedule`` hook; this module drives that hook.

The detector runs one workload per configuration (maintenance method ×
eager/deferred × worker count) three ways:

* **serial** (``workers=None``) — the ground truth for values;
* **golden** (workers, identity schedule) — the ground truth for the
  *canonical cell stream*: the coordinator ledger's cells in insertion
  order.  Cell values are commutative sums, so a merge-order bug can
  leave every total intact while changing which fold created each cell
  first; the stream is the only fingerprint component that sees it.
* **permuted** (workers, :class:`SeededSchedule`) — hundreds of distinct
  interleavings, each derived deterministically from a seed.

Any divergence is shrunk with delta debugging (:func:`ddmin`) over the
schedule's recorded non-identity permutation events, replayed through
:class:`ReplaySchedule`, down to a minimal event-reorder witness —
typically a single "superstep N reordered its merge fold" line.

Nothing here can change *modeled* charges: the hooks reorder work the
coordinator has already computed (routing, probing, and charging all
happen upstream of every permutation point), which is exactly why
bit-identical output is the correct assertion rather than mere
value-equality (see DESIGN.md § 15).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: A permutation event: (kind, key, permutation) — ``items[perm[i]]`` was
#: served in position ``i``.  ``key`` is ``(superstep, worker_id)`` with
#: ``worker_id = -1`` for the coordinator-global decisions.
Event = Tuple[str, Tuple[int, int], Tuple[int, ...]]

#: The four decision kinds ``ParallelEngine._run_forked`` exposes.
KINDS = ("envelope", "refresh", "reply", "merge")


class SeededSchedule:
    """Deterministic schedule: every decision permuted by a seed-derived
    shuffle, with non-identity choices recorded for replay/shrinking."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.events: List[Event] = []

    def permute(
        self, kind: str, key: Tuple[int, int], items: List
    ) -> List:
        n = len(items)
        if n < 2:
            return items
        rng = random.Random(f"{self.seed}:{kind}:{key[0]}:{key[1]}:{n}")
        perm = list(range(n))
        rng.shuffle(perm)
        if perm != sorted(perm):
            self.events.append((kind, key, tuple(perm)))
            return [items[i] for i in perm]
        return items

    def signature(self) -> Tuple[Event, ...]:
        """The schedule's identity: its non-trivial reorderings."""
        return tuple(self.events)


class ReplaySchedule:
    """Replay a subset of recorded events; everything else is identity.

    Decisions are keyed by ``(kind, key)`` — not by a global counter — so
    dropping some events cannot desynchronise the rest.  A recorded
    permutation is applied only when the live item count still matches;
    a shrunken schedule that changed the engine's behaviour upstream
    degrades to identity instead of corrupting the run.
    """

    def __init__(self, events: Iterable[Event]) -> None:
        self.decisions: Dict[Tuple[str, Tuple[int, int]], Tuple[int, ...]] = {
            (kind, key): perm for kind, key, perm in events
        }

    def permute(
        self, kind: str, key: Tuple[int, int], items: List
    ) -> List:
        perm = self.decisions.get((kind, key))
        if perm is None or len(perm) != len(items):
            return items
        return [items[i] for i in perm]


# ------------------------------------------------------------ fingerprints


@dataclass(frozen=True)
class Fingerprint:
    """Everything the equivalence promise covers, hashable-comparable.

    ``values`` must match the serial run; ``cell_stream`` (coordinator
    ledger cells in insertion order) must match the identity-schedule
    parallel golden — serial runs charge in statement order and never
    absorb, so their stream is not comparable.
    """

    cells: Tuple[Tuple[Tuple[int, str, str], float], ...]
    network: Tuple
    fragments: Tuple
    views: Tuple[Tuple[str, int], ...]
    cell_stream: Tuple[Tuple[int, str, str], ...]

    def values(self) -> Tuple:
        return (self.cells, self.network, self.fragments, self.views)

    def diff_label(self, other: "Fingerprint") -> Optional[str]:
        """Which component diverges (values vs ``other``), or ``None``."""
        for label in ("cells", "network", "fragments", "views"):
            if getattr(self, label) != getattr(other, label):
                return label
        return None


def _cell_key(cell: Tuple) -> Tuple[int, str, str]:
    node, op, tag = cell
    return (node, op.name, tag.name)


def fingerprint(cluster) -> Fingerprint:
    """Capture a cluster's observable state for bit-identity comparison."""
    raw = cluster.ledger._cells
    cells = tuple(
        sorted((_cell_key(cell), value) for cell, value in raw.items())
    )
    stream = tuple(_cell_key(cell) for cell in raw)
    stats = cluster.network.stats
    network = (
        stats.messages,
        stats.local_deliveries,
        tuple(sorted(stats.by_link.items())),
        stats.drops,
        stats.duplicates,
        stats.retries,
        stats.backoff_slots,
    )
    names = sorted({"A", "B", "JV", *cluster.catalog.auxiliaries})
    fragments = tuple(
        (name, node.node_id, tuple(node.scan(name)))
        for name in names
        for node in cluster.nodes
        if node.has_fragment(name)
    )
    views = tuple(
        sorted(
            (view_name, info.row_count)
            for view_name, info in cluster.catalog.views.items()
        )
    )
    return Fingerprint(cells, network, fragments, views, stream)


# ---------------------------------------------------------------- workload


def _script(seed: int, steps: int) -> List[Tuple[str, str, List]]:
    """A deterministic mixed insert/delete/update script over A and B.

    Statements are deliberately wide (multi-row, spread across the key
    space) so most supersteps engage several workers — a single-row
    statement gives every order decision a one-element list to permute,
    which explores nothing.
    """
    rng = random.Random(seed)
    ops: List[Tuple[str, str, List]] = []
    serial = 0
    live: Dict[str, List[Tuple[int, int, int]]] = {"A": [], "B": []}
    for _ in range(steps):
        kind = rng.choice(("multi", "multi", "multi", "del", "upd"))
        rel = rng.choice(("A", "A", "B"))
        if kind == "multi":
            count = rng.randrange(4, 10)
            rows = []
            for _ in range(count):
                rows.append((1000 + serial, rng.randrange(7), serial))
                serial += 1
            live[rel].extend(rows)
            ops.append(("insert", rel, rows))
        elif kind == "del" and live[rel]:
            row = live[rel].pop(rng.randrange(len(live[rel])))
            ops.append(("delete", rel, [row]))
        elif kind == "upd" and live[rel]:
            old = live[rel].pop(rng.randrange(len(live[rel])))
            new = (1000 + serial, rng.randrange(7), serial)
            serial += 1
            live[rel].append(new)
            ops.append(("update", rel, [(old, new)]))
    return ops


def _build(method: str, workers: Optional[int], num_nodes: int):
    from .. import Cluster, HashPartitioning, Schema, two_way_view

    cluster = Cluster(num_nodes=num_nodes, workers=workers)
    cluster.create_relation(Schema.of("A", "a", "c", "e"), partitioned_on="a")
    cluster.create_relation(Schema.of("B", "b", "d", "f"), partitioned_on="b")
    cluster.insert("B", [(i, i % 5, f"f{i}") for i in range(20)])
    cluster.create_join_view(
        two_way_view("JV", "A", "c", "B", "d", partitioning=HashPartitioning("e")),
        method=method,
    )
    return cluster


def run_config(
    method: str,
    mode: str,
    workers: Optional[int],
    schedule=None,
    steps: int = 14,
    num_nodes: int = 4,
    script_seed: int = 7,
) -> Fingerprint:
    """Build a cluster, drive one scripted workload under ``schedule``,
    and return its fingerprint.  ``mode`` is ``"eager"`` or ``"deferred"``
    (deferred wraps JV in a netting queue and refreshes mid-script)."""
    from ..core.deferred import defer_view

    cluster = _build(method, workers, num_nodes)
    try:
        maintainer = None
        if mode == "deferred":
            maintainer = defer_view(cluster, "JV", flush_threshold=None)
        if workers is not None and schedule is not None:
            engine = cluster._parallel_start()
            if engine is None:
                raise RuntimeError(
                    "parallel engine unavailable (fork not supported?)"
                )
            engine.schedule = schedule
        ops = _script(script_seed, steps)
        for index, (kind, rel, payload) in enumerate(ops):
            getattr(cluster, kind)(rel, payload)
            if maintainer is not None and index % 5 == 4:
                maintainer.refresh()
        if maintainer is not None:
            maintainer.refresh()
        return fingerprint(cluster)
    finally:
        cluster.close()


# ---------------------------------------------------------------- detector


@dataclass
class Divergence:
    """One schedule whose run broke bit-identity, plus its shrunk witness."""

    method: str
    mode: str
    workers: int
    seed: int
    component: str            # which fingerprint component diverged
    events: List[Event]       # full recorded schedule
    witness: List[Event]      # ddmin-minimal subset still diverging

    def describe(self) -> str:
        lines = [
            f"{self.method}/{self.mode} workers={self.workers} "
            f"seed={self.seed}: {self.component} diverge; "
            f"minimal witness ({len(self.witness)} of "
            f"{len(self.events)} events):"
        ]
        for kind, key, perm in self.witness:
            where = f"superstep {key[0]}"
            if key[1] >= 0:
                where += f", worker {key[1]}"
            lines.append(f"  - {kind} order at {where} permuted to {perm}")
        return "\n".join(lines)


@dataclass
class DetectorReport:
    schedules_run: int = 0
    distinct_schedules: int = 0
    configs: List[Tuple[str, str, int]] = field(default_factory=list)
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        head = (
            f"interleave: {self.schedules_run} schedules "
            f"({self.distinct_schedules} distinct) across "
            f"{len(self.configs)} configs — "
            + ("all bit-identical" if self.ok else
               f"{len(self.divergences)} DIVERGENT")
        )
        return "\n\n".join([head, *(d.describe() for d in self.divergences)])


def ddmin(
    events: Sequence[Event], still_fails: Callable[[List[Event]], bool]
) -> List[Event]:
    """Zeller's delta debugging: a 1-minimal sublist of ``events`` for
    which ``still_fails`` holds.  ``still_fails(events)`` must be true."""
    current = list(events)
    granularity = 2
    while len(current) >= 2:
        size = len(current)
        chunk = max(1, size // granularity)
        reduced = False
        for start in range(0, size, chunk):
            candidate = current[:start] + current[start + chunk:]
            if candidate and still_fails(candidate):
                current = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= size:
                break
            granularity = min(size, granularity * 2)
    if len(current) == 1 and not still_fails(current):
        return list(events)
    return current


def _divergence_component(
    run: Fingerprint, serial: Fingerprint, golden: Fingerprint
) -> Optional[str]:
    label = run.diff_label(serial)
    if label is not None:
        return label
    if run.cell_stream != golden.cell_stream:
        return "cell_stream"
    return None


def run_detector(
    methods: Sequence[str] = ("naive", "auxiliary", "global_index"),
    modes: Sequence[str] = ("eager", "deferred"),
    workers: Sequence[int] = (2, 4),
    seeds: Sequence[int] = tuple(range(17)),
    steps: int = 14,
    shrink: bool = True,
    log: Optional[Callable[[str], None]] = None,
) -> DetectorReport:
    """Explore ``len(methods) × len(modes) × len(workers) × len(seeds)``
    schedules, asserting bit-identity, shrinking any divergence."""
    report = DetectorReport()
    signatures = set()
    for method in methods:
        for mode in modes:
            serial = run_config(method, mode, None, steps=steps)
            for count in workers:
                report.configs.append((method, mode, count))
                golden = run_config(method, mode, count, steps=steps)
                label = golden.diff_label(serial)
                if label is not None:
                    # The engine itself is broken before any permutation.
                    report.divergences.append(
                        Divergence(method, mode, count, -1, label, [], [])
                    )
                    continue
                for seed in seeds:
                    schedule = SeededSchedule(seed)
                    run = run_config(
                        method, mode, count, schedule, steps=steps
                    )
                    report.schedules_run += 1
                    signatures.add((method, mode, count, schedule.signature()))
                    component = _divergence_component(run, serial, golden)
                    if component is None:
                        continue
                    events = list(schedule.events)
                    witness = events
                    if shrink and events:

                        def still_fails(subset: List[Event]) -> bool:
                            replay = run_config(
                                method, mode, count,
                                ReplaySchedule(subset), steps=steps,
                            )
                            return (
                                _divergence_component(replay, serial, golden)
                                is not None
                            )

                        witness = ddmin(events, still_fails)
                    divergence = Divergence(
                        method, mode, count, seed, component, events, witness
                    )
                    report.divergences.append(divergence)
                    if log is not None:
                        log(divergence.describe())
                if log is not None:
                    log(
                        f"{method}/{mode} workers={count}: "
                        f"{len(seeds)} schedules checked"
                    )
    report.distinct_schedules = len(signatures)
    return report
