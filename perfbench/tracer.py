"""Outside-in layer tracer: timers wrapped around each layer's public methods.

Nothing under ``src/`` is instrumented for this.  :class:`LayerTracer`
replaces the public methods listed in :data:`LAYERS` with thin wrappers
for the length of a traced pass, then puts the originals back.  Each
wrapper counts the call and adds its *self time* to its layer: the wrapped
call's wall time minus the wall time of the wrapped calls nested inside
it.  A call stack of open frames does the subtraction.

The wrappers only observe.  They never touch arguments, results or the
cost ledger, so a traced run charges exactly what an untraced run of the
same operations charges; the benchmark checks that after every traced
pass.

Iteration over a heap fragment is wrapped differently: ``HeapTable``'s
``__iter__``/``scan`` return a generator that counts the rows it yields.
Those rows are consumed, and their time spent, in the caller's frame.  So
the full-fragment scan in ``Cluster._validate_deletes`` shows up as
``cluster`` self time plus rows visited.
"""

from __future__ import annotations

import importlib
import inspect
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Sentinel: wrap every public plain function defined on the class itself.
PUBLIC = ("*",)

#: layer -> [(module, class name or None for module functions, method names)]
LAYERS: Dict[str, List[Tuple[str, Optional[str], Sequence[str]]]] = {
    "cluster": [
        ("repro.cluster.cluster", "Cluster",
         ("insert", "delete", "update", "transaction")),
    ],
    "cluster.partitioning": [
        ("repro.cluster.partitioning", "BoundPartitioner",
         ("node_of_row", "node_of_key", "split")),
    ],
    "cluster.network": [
        ("repro.cluster.network", "Network",
         ("send", "send_many", "broadcast", "broadcast_many")),
    ],
    "cluster.node": [("repro.cluster.node", "Node", PUBLIC)],
    "costs": [
        ("repro.costs.ledger", "CostLedger",
         ("charge", "absorb", "snapshot", "diff_since", "measure")),
    ],
    "storage": [
        ("repro.storage.index", "IndexedHeap", PUBLIC),
        ("repro.storage.heap", "HeapTable", PUBLIC),
        ("repro.storage.index", "LocalIndex", ("search", "lookup_rows")),
        ("repro.storage.global_index", "GlobalIndexPartition", PUBLIC),
    ],
    "core.optimizer": [
        ("repro.core.optimizer", "MaintenancePlanner", ("plan_for", "compiled_for")),
    ],
    "core.maintenance": [
        ("repro.core.shared", None, ("maintain_views",)),
        ("repro.core.maintenance", "JoinViewMaintainer", ("apply",)),
    ],
    "core.deferred": [
        ("repro.core.deferred", "DeferredMaintainer", ("apply", "refresh")),
    ],
    "faults.undo": [
        ("repro.faults.undo", "UndoLog",
         ("record", "rollback", "discard", "merge_into")),
    ],
    "query": [("repro.query.engine", "QueryEngine", ("answer",))],
    "obs": [("repro.obs.collect", "Observability", ("span",))],
}

#: HeapTable methods that walk the fragment; rows they hand out are counted.
_ITERATORS = ("__iter__", "scan")


class LayerTracer:
    """Per-layer call counts, self time and outcome counters."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.calls: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        #: outcome counters named in :meth:`_observers`
        self.counts: Dict[str, int] = {}
        self._stack: List[List[int]] = []
        self._saved: List[Tuple[object, str, object]] = []

    # ----------------------------------------------------------- wrapping

    def wrap(
        self,
        layer: str,
        fn: Callable,
        observe: Optional[Callable[[object], None]] = None,
    ) -> Callable:
        """``fn`` timed into ``layer``; ``observe(result)`` sees each result."""
        clock = self.clock
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        calls.setdefault(layer, 0)
        self_ns.setdefault(layer, 0)

        def traced(*args, **kwargs):
            frame = [0]  # wall time of wrapped calls nested in this one
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                calls[layer] += 1
                self_ns[layer] += elapsed - frame[0]
            if observe is not None:
                observe(result)
            return result

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _bump(self, name: str, by: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    def _counting(self, fn: Callable) -> Callable:
        """Wrap a fragment iterator so every row it yields is counted."""
        bump = self._bump

        def count(inner: Iterator) -> Iterator:
            for item in inner:
                bump("heap_rows_visited")
                yield item

        def counted(*args, **kwargs) -> Iterator:
            # The inner iterator is made now, as the original call makes it.
            return count(fn(*args, **kwargs))

        return counted

    def _observers(self, owner: str, name: str) -> Optional[Callable[[object], None]]:
        """Outcome counters behind the per-layer ratios."""
        bump = self._bump
        if owner in ("LocalIndex", "GlobalIndexPartition") and name in (
            "search", "search_grouped"
        ):
            def searched(result: object) -> None:
                bump("index_searches")
                if result:
                    bump("index_hits")
            return searched
        if owner == "HeapTable" and name == "delete":
            return lambda result: bump("heap_rows_deleted")
        if owner == "HeapTable" and name == "rows":
            return lambda result: bump("heap_rows_visited", len(result))
        if owner == "QueryEngine" and name == "answer":
            def answered(result: object) -> None:
                bump("answers")
                if result.plan.startswith("view"):  # type: ignore[attr-defined]
                    bump("view_answers")
            return answered
        if owner == "DeferredMaintainer" and name == "refresh":
            def refreshed(result: object) -> None:
                bump("refreshes")
                bump("refreshed_rows",
                     result.flushed_inserts + result.flushed_deletes)  # type: ignore[attr-defined]
            return refreshed
        if owner == "UndoLog" and name == "record":
            return lambda result: bump("undo_records")
        if owner == "Cluster" and name == "transaction":
            return lambda result: bump("transactions")
        return None

    # ---------------------------------------------------- install/restore

    def install(self) -> None:
        """Swap every method listed in :data:`LAYERS` for its timed wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for layer, targets in LAYERS.items():
                for module_name, owner_name, names in targets:
                    module = importlib.import_module(module_name)
                    owner = module if owner_name is None else getattr(module, owner_name)
                    for name in _method_names(owner, names):
                        original = inspect.getattr_static(owner, name)
                        if owner_name == "HeapTable" and name in _ITERATORS:
                            replacement = self._counting(original)
                        else:
                            replacement = self.wrap(
                                layer, original,
                                self._observers(owner_name or "", name),
                            )
                        self._saved.append((owner, name, original))
                        setattr(owner, name, replacement)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put every original back, newest first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()


def _method_names(owner: object, names: Sequence[str]) -> List[str]:
    """The names to wrap: as listed, or every public plain function defined
    on the class itself (plus ``__iter__`` for heap iteration)."""
    if names != PUBLIC:
        return list(names)
    own = vars(owner)
    picked = [
        name for name, value in own.items()
        if inspect.isfunction(value) and not name.startswith("_")
    ]
    if "__iter__" in own:
        picked.append("__iter__")
    return picked
