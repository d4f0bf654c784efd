"""REP008 — interprocedural determinism taint (the whole-program REP002).

REP002 flags a clock/unseeded-RNG/raw-set-order *call site* inside the
modeled engine's directories.  This engine tracks where such values **go**:
a summary-based dataflow over the :mod:`.callgraph` proves that no value
originating from a nondeterminism source flows — across any number of
calls — into a modeled-cost sink:

* ``CostLedger.charge(...)`` / ``CostLedger.absorb(...)`` arguments
  (ledger-ish receiver),
* trace ``signature(...)`` arguments (the byte-stable span/event surface),
* wire-envelope construction (``_encode`` / ``send_bytes`` /
  ``_send_envelope`` arguments).

Sources are **unannotated** sites only: a ``# repro: wall-clock=<reason>``
annotation (REP002's key) declares the value telemetry, and telemetry is
allowed to exist — this rule proves it never crosses into the model.

The lattice is deliberately small (DESIGN.md § 15): per function we learn
(a) does it return a tainted value, (b) which parameters flow to its
return, and (c) which parameters reach a sink inside it (transitively).
Locals propagate through expressions, loops, comprehensions, container
construction, and mutating method calls (``x.append(t)`` taints ``x``);
attribute *stores* on ``self``/``cls`` do **not** taint the object (the
tracer legitimately stashes timestamps on spans — field-sensitive escape
analysis is out of scope), and interprocedural propagation follows only
``direct``/``self`` edges (by-name fallback edges would drown the rule in
duck-typing noise).  Every finding carries the full source → … → sink
provenance chain, plus each hop's call site.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .callgraph import CallGraph, FunctionInfo, _own_calls
from .findings import Finding
from .flow import Project, register_flow
from .rules.base import call_name, expr_text, is_set_expression
from .rules.rep002_determinism import _banned_call

#: Longest provenance chain kept (defensive: chains are shortest-first).
_MAX_CHAIN = 16

#: Builtin-ish method calls that mutate their receiver with their args.
_MUTATORS = {
    "append", "add", "extend", "insert", "update", "setdefault",
    "appendleft", "push",
}


@dataclass(frozen=True)
class Hop:
    """One step of a provenance chain: where, and what happened there."""

    qualname: str
    path: str
    line: int
    note: str

    def render(self, graph: CallGraph) -> str:
        info = graph.functions.get(self.qualname)
        where = info.short() if info else self.qualname
        return f"{self.note} in {where} ({self.path}:{self.line})"


Provenance = Tuple[Hop, ...]


@dataclass(frozen=True)
class SinkRef:
    """A sink site, addressed from a function boundary: applying a tainted
    argument to the owning function fires it, ``hops`` describing the
    intermediate calls down to the sink."""

    path: str
    line: int
    column: int
    desc: str
    hops: Provenance


@dataclass
class Summary:
    """What callers need to know about one function."""

    returns: Optional[Provenance] = None
    param_returns: Set[int] = field(default_factory=set)
    param_sinks: Dict[int, Tuple[SinkRef, ...]] = field(default_factory=dict)

    def signature(self) -> Tuple:
        return (
            self.returns is not None,
            tuple(sorted(self.param_returns)),
            tuple(
                (param, tuple((s.path, s.line, s.desc) for s in refs))
                for param, refs in sorted(self.param_sinks.items())
            ),
        )


@dataclass(frozen=True)
class _Taint:
    """Expression taint: a provenance (source already seen) and/or a set
    of the enclosing function's parameter indices it depends on."""

    prov: Optional[Provenance] = None
    params: FrozenSet[int] = frozenset()

    def __bool__(self) -> bool:
        return self.prov is not None or bool(self.params)


_CLEAN = _Taint()


def _merge(*taints: _Taint) -> _Taint:
    prov: Optional[Provenance] = None
    params: FrozenSet[int] = frozenset()
    for taint in taints:
        if taint.prov is not None and (
            prov is None or len(taint.prov) < len(prov)
        ):
            prov = taint.prov
        params = params | taint.params
    return _Taint(prov, params) if (prov or params) else _CLEAN


def _sink_of(call: ast.Call) -> Optional[str]:
    name = call_name(call)
    if name in ("charge", "absorb") and isinstance(call.func, ast.Attribute):
        receiver = expr_text(call.func.value)
        if "ledger" in receiver.lower():
            return f"CostLedger.{name}"
        return None
    if name == "signature":
        return "trace signature()"
    if name in ("_encode", "send_bytes", "_send_envelope"):
        return "wire-envelope construction"
    return None


class _TaintEngine:
    def __init__(self, project: Project) -> None:
        self.project = project
        self.graph = project.graph
        self.summaries: Dict[str, Summary] = {
            q: Summary() for q in self.graph.functions
        }
        #: resolved source→sink hits: key dedupes, value renders
        self.hits: Dict[Tuple[str, int, str, Tuple], Tuple[SinkRef, Provenance]] = {}
        #: (caller, line) -> resolvable callee qualnames (direct/self only)
        self._calls_at: Dict[Tuple[str, int], List[str]] = {}
        for caller, edges in self.graph.edges_from.items():
            for edge in edges:
                if edge.via in ("direct", "self"):
                    self._calls_at.setdefault((caller, edge.line), []).append(
                        edge.callee
                    )

    # ------------------------------------------------------------- driver

    def run(self) -> None:
        for _ in range(8):
            changed = False
            for qualname in sorted(self.graph.functions):
                before = self.summaries[qualname].signature()
                self._analyze(self.graph.functions[qualname])
                if self.summaries[qualname].signature() != before:
                    changed = True
            if not changed:
                break

    def findings(self) -> List[Finding]:
        out: List[Finding] = []
        graph = self.graph
        for key in sorted(
            self.hits, key=lambda k: (k[0], k[1], k[2], str(k[3]))
        ):
            sink, chain = self.hits[key]
            source = chain[0]
            steps = " → ".join(hop.render(graph) for hop in chain)
            out.append(
                Finding(
                    rule="REP008",
                    path=sink.path,
                    line=sink.line,
                    column=sink.column,
                    message=(
                        f"nondeterministic value reaches {sink.desc}: "
                        f"{steps} → {sink.desc} ({sink.path}:{sink.line}); "
                        "engines could no longer be bit-identical — break "
                        "the flow, or annotate the source with "
                        "'# repro: wall-clock=<reason>' if it is telemetry "
                        "that provably never crosses into modeled state"
                    ),
                )
            )
        return out

    # ------------------------------------------------------ per function

    def _analyze(self, fn: FunctionInfo) -> None:
        ctx = self.project.context(fn.path)
        if ctx is None or not isinstance(
            fn.node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            return
        args = fn.node.args
        params = [a.arg for a in args.posonlyargs + args.args]
        analyzer = _FunctionTaint(self, fn, ctx, params)
        body = fn.node.body
        # Two passes give loop-carried taint one generation to propagate.
        analyzer.exec_block(body)
        analyzer.exec_block(body)
        summary = self.summaries[fn.qualname]
        if analyzer.returns is not None and summary.returns is None:
            summary.returns = analyzer.returns
        summary.param_returns |= analyzer.param_returns
        for param, refs in analyzer.param_sinks.items():
            merged = dict(
                ((r.path, r.line, r.desc), r)
                for r in summary.param_sinks.get(param, ())
            )
            for ref in refs:
                merged.setdefault((ref.path, ref.line, ref.desc), ref)
            summary.param_sinks[param] = tuple(
                merged[k] for k in sorted(merged)
            )

    def record_hit(self, sink: SinkRef, chain: Provenance) -> None:
        if len(chain) > _MAX_CHAIN:
            chain = chain[:1] + chain[-(_MAX_CHAIN - 1):]
        key = (sink.path, sink.line, sink.desc, (chain[0].path, chain[0].line))
        if key not in self.hits:
            self.hits[key] = (sink, chain)


class _FunctionTaint:
    """One function's intra-procedural pass (callee summaries consulted)."""

    def __init__(
        self,
        engine: _TaintEngine,
        fn: FunctionInfo,
        ctx,
        params: List[str],
    ) -> None:
        self.engine = engine
        self.fn = fn
        self.ctx = ctx
        self.params = params
        self.env: Dict[str, _Taint] = {
            name: _Taint(params=frozenset({index}))
            for index, name in enumerate(params)
        }
        self.returns: Optional[Provenance] = None
        self.param_returns: Set[int] = set()
        self.param_sinks: Dict[int, List[SinkRef]] = {}

    # ---------------------------------------------------------- statements

    def exec_block(self, stmts: List[ast.stmt]) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # separate graph nodes
        if isinstance(stmt, ast.Assign):
            taint = self.eval(stmt.value)
            for target in stmt.targets:
                self.bind(target, taint)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.bind(stmt.target, self.eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            taint = _merge(self.eval(stmt.target), self.eval(stmt.value))
            self.bind(stmt.target, taint)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                taint = self.eval(stmt.value)
                if taint.prov is not None and self.returns is None:
                    self.returns = taint.prov
                self.param_returns |= taint.params
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            taint = self.iter_taint(stmt.iter)
            self.bind(stmt.target, taint)
            self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test)
            self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test)
            self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taint = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self.bind(item.optional_vars, taint)
            self.exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.exec_block(stmt.body)
            for handler in stmt.handlers:
                self.exec_block(handler.body)
            self.exec_block(stmt.orelse)
            self.exec_block(stmt.finalbody)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval(child)
        # pass/break/continue/global/import/del: nothing to track

    def bind(self, target: ast.expr, taint: _Taint) -> None:
        if isinstance(target, ast.Name):
            if taint:
                self.env[target.id] = _merge(
                    self.env.get(target.id, _CLEAN), taint
                )
            else:
                self.env[target.id] = _CLEAN  # strong update: x = clean
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self.bind(element, taint)
        elif isinstance(target, ast.Starred):
            self.bind(target.value, taint)
        elif isinstance(target, ast.Subscript):
            # building a container: x[k] = tainted taints x
            if taint and isinstance(target.value, ast.Name):
                name = target.value.id
                self.env[name] = _merge(self.env.get(name, _CLEAN), taint)
        elif isinstance(target, ast.Attribute):
            # attribute store taints the holder var — except self/cls
            # (field-insensitive escape would drown the tracer in noise)
            if taint and isinstance(target.value, ast.Name):
                if target.value.id not in ("self", "cls"):
                    name = target.value.id
                    self.env[name] = _merge(self.env.get(name, _CLEAN), taint)

    # --------------------------------------------------------- expressions

    def iter_taint(self, iterable: ast.expr) -> _Taint:
        """Taint of iterating ``iterable`` — including the raw-set-order
        source when the expression is an unannotated set."""
        taint = self.eval(iterable)
        if is_set_expression(iterable) and not self.ctx.annotated(
            "wall-clock", iterable.lineno
        ):
            source = _Taint(prov=(Hop(
                self.fn.qualname, self.fn.path, iterable.lineno,
                "hash-salted set iteration order",
            ),))
            taint = _merge(taint, source)
        return taint

    def eval(self, node: ast.expr) -> _Taint:
        if isinstance(node, ast.Name):
            return self.env.get(node.id, _CLEAN)
        if isinstance(node, ast.Call):
            return self.eval_call(node)
        if isinstance(node, ast.Attribute):
            return self.eval(node.value)
        if isinstance(node, ast.Subscript):
            return _merge(self.eval(node.value), self.eval(node.slice))
        if isinstance(node, ast.Lambda):
            return _CLEAN
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            taints: List[_Taint] = []
            for gen in node.generators:
                taint = self.iter_taint(gen.iter)
                self.bind(gen.target, taint)
                taints.append(taint)
                for condition in gen.ifs:
                    self.eval(condition)
            if isinstance(node, ast.DictComp):
                taints.append(self.eval(node.key))
                taints.append(self.eval(node.value))
            else:
                taints.append(self.eval(node.elt))
            return _merge(*taints)
        if isinstance(node, ast.Constant):
            return _CLEAN
        # generic fallback: union of child expression taints (BinOp,
        # BoolOp, Compare, IfExp, JoinedStr, Tuple/List/Set/Dict, Await,
        # Starred, FormattedValue, ...)
        taints = [
            self.eval(child)
            for child in ast.iter_child_nodes(node)
            if isinstance(child, ast.expr)
        ]
        return _merge(*taints) if taints else _CLEAN

    def eval_call(self, call: ast.Call) -> _Taint:
        engine = self.engine
        arg_taints = [self.eval(arg) for arg in call.args]
        kw_taints = {
            kw.arg: self.eval(kw.value) for kw in call.keywords
        }
        every = _merge(*arg_taints, *kw_taints.values()) \
            if (arg_taints or kw_taints) else _CLEAN

        # -- sink?
        sink_desc = _sink_of(call)
        if sink_desc is not None and every:
            sink = SinkRef(
                path=self.fn.path, line=call.lineno,
                column=call.col_offset, desc=sink_desc, hops=(),
            )
            if not self.ctx.annotated("wall-clock", call.lineno):
                if every.prov is not None:
                    engine.record_hit(sink, every.prov)
                for param in sorted(every.params):
                    self.param_sinks.setdefault(param, []).append(sink)

        # -- source?
        why = _banned_call(call)
        if why is not None and not self.ctx.annotated(
            "wall-clock", call.lineno
        ):
            return _merge(every, _Taint(prov=(Hop(
                self.fn.qualname, self.fn.path, call.lineno, why,
            ),)))

        # -- project callee with a summary?
        callees = engine._calls_at.get((self.fn.qualname, call.lineno), [])
        result = _CLEAN
        for callee in callees:
            info = engine.graph.functions.get(callee)
            summary = engine.summaries.get(callee)
            if info is None or summary is None:
                continue
            mapping = self._map_args(
                call, info, arg_taints, kw_taints
            )
            hop = Hop(
                self.fn.qualname, self.fn.path, call.lineno,
                f"through {info.short()}() call",
            )
            if summary.returns is not None:
                result = _merge(result, _Taint(prov=summary.returns + (hop,)))
            for index in summary.param_returns:
                taint = mapping.get(index)
                if taint and taint.prov is not None:
                    result = _merge(
                        result, _Taint(prov=taint.prov + (hop,))
                    )
                if taint:
                    result = _merge(result, _Taint(params=taint.params))
            for index, refs in summary.param_sinks.items():
                taint = mapping.get(index)
                if not taint:
                    continue
                into = Hop(
                    self.fn.qualname, self.fn.path, call.lineno,
                    f"passed into {info.short()}()",
                )
                for ref in refs:
                    if taint.prov is not None:
                        engine.record_hit(ref, taint.prov + (into,) + ref.hops)
                    for param in sorted(taint.params):
                        self.param_sinks.setdefault(param, []).append(
                            SinkRef(
                                path=ref.path, line=ref.line,
                                column=ref.column, desc=ref.desc,
                                hops=(into,) + ref.hops,
                            )
                        )
        if callees:
            return _merge(result, _Taint(params=every.params))

        # -- unknown callee: taint flows through (str(t), f"{t}", len(t),
        # sorted(t)…), and mutating methods taint their receiver.
        receiver = _CLEAN
        if isinstance(call.func, ast.Attribute):
            receiver = self.eval(call.func.value)
            if (
                every
                and call_name(call) in _MUTATORS
                and isinstance(call.func.value, ast.Name)
            ):
                name = call.func.value.id
                self.env[name] = _merge(self.env.get(name, _CLEAN), every)
        return _merge(result, receiver, every)

    def _map_args(
        self,
        call: ast.Call,
        info: FunctionInfo,
        arg_taints: List[_Taint],
        kw_taints: Dict[Optional[str], _Taint],
    ) -> Dict[int, _Taint]:
        """Map this call's arguments onto the callee's parameter indices."""
        node = info.node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return {}
        params = [a.arg for a in node.args.posonlyargs + node.args.args]
        offset = 0
        if (
            params
            and params[0] in ("self", "cls")
            and isinstance(call.func, ast.Attribute)
        ):
            offset = 1
        mapping: Dict[int, _Taint] = {}
        for position, taint in enumerate(arg_taints):
            index = position + offset
            if index < len(params) and taint:
                mapping[index] = taint
        for name, taint in kw_taints.items():
            if name is not None and name in params and taint:
                mapping[params.index(name)] = taint
        return mapping


@register_flow(
    "REP008",
    "clock / unseeded-RNG / set-order values must not flow across calls "
    "into charges, trace signatures, or wire envelopes",
    annotation="wall-clock",
)
def check_determinism_taint(project: Project) -> Iterable[Finding]:
    engine = _TaintEngine(project)
    engine.run()
    return engine.findings()
