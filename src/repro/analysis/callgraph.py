"""AST-derived project call graph for the interprocedural flow rules.

Builds one graph over every analyzed file: nodes are function and method
definitions (module-qualified, e.g. ``cluster.parallel.ParallelEngine.
run_ops``), edges are call sites.  Resolution is *module-qualified and
deliberately conservative* — no type inference, no values:

* ``name(...)`` resolves through the enclosing function's nested defs,
  then the module's own defs, then its imports (relative and absolute
  ``repro.*`` imports both normalize to the module-relative namespace the
  engine uses, and one level of ``__init__`` re-export is followed);
* ``self.meth(...)`` / ``cls.meth(...)`` resolves through the enclosing
  class and its project-resolvable bases (``via="self"``);
* ``mod.func(...)`` / ``Class.meth(...)`` resolve through the import
  table (``via="direct"``);
* any other ``obj.meth(...)`` falls back to linking **every** project
  ``def meth`` (``via="name"``) — a deterministic over-approximation that
  keeps reachability sound for duck-typed receivers at the price of
  spurious edges, which the flow rules tolerate by demanding a
  justification *on the path*, not on the node.

Calls through values (callbacks, ``target=fn`` references, dispatch
tables) produce **no** edge — a documented limit (DESIGN.md § 15); the
engine's one load-bearing case (``Process(target=_worker_main)``) is
covered by the interleave detector instead.

Constructor calls ``Class(...)`` link to ``Class.__init__`` when the
project defines one.  The DOT export (``--dot``) renders ``name`` edges
dashed so the over-approximation is visible when eyeballing the graph.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple


def module_name(relative: str) -> str:
    """``cluster/network.py`` -> ``cluster.network``; package ``__init__``
    files name the package itself (``costs/__init__.py`` -> ``costs``)."""
    trimmed = relative[:-3] if relative.endswith(".py") else relative
    parts = [part for part in trimmed.split("/") if part]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """One function/method definition node of the graph."""

    qualname: str                 # "cluster.parallel.ParallelEngine.run_ops"
    path: str                     # module-relative file, "cluster/parallel.py"
    module: str                   # "cluster.parallel"
    name: str                     # "run_ops"
    cls: Optional[str]            # enclosing class name, None for functions
    lineno: int
    end_lineno: int
    node: ast.AST = field(repr=False)

    def display(self) -> str:
        """Human form for witnesses: ``Cluster.insert (cluster/cluster.py:582)``."""
        owner = f"{self.cls}.{self.name}" if self.cls else self.name
        return f"{owner} ({self.path}:{self.lineno})"

    def short(self) -> str:
        return f"{self.cls}.{self.name}" if self.cls else self.name


@dataclass(frozen=True)
class CallEdge:
    """One resolved call site: ``caller`` calls ``callee`` at ``line``."""

    caller: str
    callee: str
    line: int          # call-site line in the caller's file
    via: str           # "direct" | "self" | "name"


@dataclass
class _Class:
    name: str
    module: str
    bases: List[str]                      # base expression texts
    methods: Dict[str, str] = field(default_factory=dict)  # name -> qualname


@dataclass
class _Module:
    name: str
    path: str
    imports: Dict[str, str] = field(default_factory=dict)   # alias -> dotted
    functions: Dict[str, str] = field(default_factory=dict)  # name -> qualname
    classes: Dict[str, _Class] = field(default_factory=dict)


class CallGraph:
    """The project call graph: function table + forward/reverse edges."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.edges_from: Dict[str, List[CallEdge]] = {}
        self.edges_to: Dict[str, List[CallEdge]] = {}
        #: every qualname sharing a bare method/function name (the
        #: ``via="name"`` fallback table)
        self.by_name: Dict[str, List[str]] = {}

    # ------------------------------------------------------------ queries

    def callees(self, qualname: str) -> List[CallEdge]:
        return self.edges_from.get(qualname, [])

    def callers(self, qualname: str) -> List[CallEdge]:
        return self.edges_to.get(qualname, [])

    def function(self, qualname: str) -> Optional[FunctionInfo]:
        return self.functions.get(qualname)

    def reachable_from(
        self, entries: Iterable[str], via: Optional[Set[str]] = None
    ) -> Set[str]:
        """Every function reachable from ``entries`` along call edges
        (optionally restricted to edge kinds in ``via``)."""
        seen: Set[str] = set()
        stack = sorted(set(entries) & set(self.functions))
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            for edge in self.edges_from.get(current, []):
                if via is not None and edge.via not in via:
                    continue
                if edge.callee not in seen:
                    stack.append(edge.callee)
        return seen

    def find_path(
        self, sources: Iterable[str], target: str
    ) -> Optional[List[CallEdge]]:
        """A shortest entry→target edge path (BFS, deterministic order),
        or ``None`` when unreachable."""
        sources = sorted(set(sources) & set(self.functions))
        if target not in self.functions:
            return None
        if target in sources:
            return []
        parents: Dict[str, CallEdge] = {}
        frontier = list(sources)
        seen = set(sources)
        while frontier:
            nxt: List[str] = []
            for current in frontier:
                for edge in self.edges_from.get(current, []):
                    if edge.callee in seen:
                        continue
                    seen.add(edge.callee)
                    parents[edge.callee] = edge
                    if edge.callee == target:
                        path: List[CallEdge] = []
                        cursor = target
                        while cursor not in sources:
                            edge = parents[cursor]
                            path.append(edge)
                            cursor = edge.caller
                        return list(reversed(path))
                    nxt.append(edge.callee)
            frontier = nxt
        return None

    # -------------------------------------------------------------- export

    def to_dot(self) -> str:
        """GraphViz rendering: solid edges are resolved, dashed edges are
        the by-name fallback over-approximation."""
        lines = [
            "digraph repro_callgraph {",
            "  rankdir=LR;",
            '  node [shape=box, fontsize=9, fontname="monospace"];',
        ]
        for qualname in sorted(self.functions):
            info = self.functions[qualname]
            label = f"{info.short()}\\n{info.path}:{info.lineno}"
            lines.append(f'  "{qualname}" [label="{label}"];')
        seen: Set[Tuple[str, str, str]] = set()
        for caller in sorted(self.edges_from):
            for edge in self.edges_from[caller]:
                key = (edge.caller, edge.callee, edge.via)
                if key in seen:
                    continue
                seen.add(key)
                style = ' [style=dashed, color=gray50]' if edge.via == "name" else ""
                lines.append(f'  "{edge.caller}" -> "{edge.callee}"{style};')
        lines.append("}")
        return "\n".join(lines) + "\n"


# ================================================================ builder


def build_callgraph(
    files: Sequence[Tuple[str, ast.Module]]
) -> CallGraph:
    """Build the graph from ``(module_relative_path, parsed tree)`` pairs.

    Files that failed to parse are simply absent (the engine reports them
    as REP000 separately)."""
    builder = _Builder()
    for path, tree in files:
        builder.collect(path, tree)
    builder.link()
    return builder.graph


class _Builder:
    def __init__(self) -> None:
        self.graph = CallGraph()
        self.modules: Dict[str, _Module] = {}
        #: (function, module, enclosing class, names of sibling nested defs
        #: per enclosing function chain)
        self._pending: List[Tuple[FunctionInfo, _Module, Optional[_Class], Dict[str, str]]] = []

    # ----------------------------------------------------------- phase one

    def collect(self, path: str, tree: ast.Module) -> None:
        module = _Module(name=module_name(path), path=path)
        self.modules[module.name] = module
        for stmt in tree.body:
            self._collect_stmt(stmt, module, cls=None, prefix=module.name,
                               locals_out=None)

    def _collect_stmt(
        self,
        stmt: ast.stmt,
        module: _Module,
        cls: Optional[_Class],
        prefix: str,
        locals_out: Optional[Dict[str, str]],
    ) -> None:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                module.imports[alias.asname or alias.name.split(".")[0]] = (
                    _strip_root(alias.name)
                )
        elif isinstance(stmt, ast.ImportFrom):
            base = self._import_base(module, stmt)
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                target = f"{base}.{alias.name}" if base else alias.name
                module.imports[alias.asname or alias.name] = target
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{prefix}.{stmt.name}"
            info = FunctionInfo(
                qualname=qualname,
                path=module.path,
                module=module.name,
                name=stmt.name,
                cls=cls.name if cls else None,
                lineno=stmt.lineno,
                end_lineno=getattr(stmt, "end_lineno", stmt.lineno) or stmt.lineno,
                node=stmt,
            )
            self.graph.functions[qualname] = info
            self.graph.by_name.setdefault(stmt.name, []).append(qualname)
            if cls is not None and prefix == f"{module.name}.{cls.name}":
                cls.methods[stmt.name] = qualname
            elif cls is None and prefix == module.name:
                module.functions[stmt.name] = qualname
            if locals_out is not None:
                locals_out[stmt.name] = qualname
            nested: Dict[str, str] = {}
            for inner in stmt.body:
                self._collect_stmt(inner, module, cls, qualname, nested)
            self._pending.append((info, module, cls, nested))
        elif isinstance(stmt, ast.ClassDef):
            if prefix == module.name:  # nested classes: methods only by name
                klass = _Class(
                    name=stmt.name,
                    module=module.name,
                    bases=[_expr_text(base) for base in stmt.bases],
                )
                module.classes[stmt.name] = klass
                for inner in stmt.body:
                    self._collect_stmt(
                        inner, module, klass, f"{module.name}.{stmt.name}", None
                    )
            else:
                for inner in stmt.body:
                    self._collect_stmt(inner, module, cls, prefix, None)
        elif isinstance(stmt, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
            # TYPE_CHECKING guards and conditional imports still register.
            for inner in ast.iter_child_nodes(stmt):
                if isinstance(inner, ast.stmt):
                    self._collect_stmt(inner, module, cls, prefix, locals_out)

    def _import_base(self, module: _Module, stmt: ast.ImportFrom) -> str:
        if stmt.level == 0:
            return _strip_root(stmt.module or "")
        is_pkg = module.path.endswith("__init__.py")
        pkg_parts = module.name.split(".") if module.name else []
        if not is_pkg and pkg_parts:
            pkg_parts = pkg_parts[:-1]
        drop = stmt.level - 1
        if drop:
            pkg_parts = pkg_parts[:-drop] if drop <= len(pkg_parts) else []
        base = ".".join(pkg_parts)
        if stmt.module:
            base = f"{base}.{stmt.module}" if base else stmt.module
        return base

    # ----------------------------------------------------------- phase two

    def link(self) -> None:
        for info, module, cls, nested in self._pending:
            for call in _own_calls(info.node):
                edges = self._resolve_call(call, info, module, cls, nested)
                for callee, via in edges:
                    edge = CallEdge(
                        caller=info.qualname, callee=callee,
                        line=call.lineno, via=via,
                    )
                    self.graph.edges_from.setdefault(info.qualname, []).append(edge)
                    self.graph.edges_to.setdefault(callee, []).append(edge)
        for edges in self.graph.edges_from.values():
            edges.sort(key=lambda e: (e.line, e.callee, e.via))
        for edges in self.graph.edges_to.values():
            edges.sort(key=lambda e: (e.caller, e.line, e.via))

    def _resolve_call(
        self,
        call: ast.Call,
        info: FunctionInfo,
        module: _Module,
        cls: Optional[_Class],
        nested: Dict[str, str],
    ) -> List[Tuple[str, str]]:
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_name(func.id, module, nested)
        if isinstance(func, ast.Attribute):
            chain = _attr_chain(func)
            if chain is None:
                # computed receiver, e.g. self.nodes[i].insert(...):
                # fall back on the method name alone
                return self._resolve_by_name(func.attr)
            return self._resolve_chain(chain, module, cls)
        return []

    def _resolve_name(
        self, name: str, module: _Module, nested: Dict[str, str]
    ) -> List[Tuple[str, str]]:
        if name in nested:
            return [(nested[name], "direct")]
        if name in module.functions:
            return [(module.functions[name], "direct")]
        if name in module.classes:
            init = module.classes[name].methods.get("__init__")
            return [(init, "direct")] if init else []
        if name in module.imports:
            resolved = self._resolve_symbol(module.imports[name], set())
            if resolved is not None:
                kind, value = resolved
                if kind == "func":
                    return [(value, "direct")]
                if kind == "class":
                    init = value.methods.get("__init__")
                    return [(init, "direct")] if init else []
        return []

    def _resolve_chain(
        self, chain: List[str], module: _Module, cls: Optional[_Class]
    ) -> List[Tuple[str, str]]:
        base, attrs = chain[0], chain[1:]
        method = attrs[-1]
        if base in ("self", "cls") and cls is not None and len(attrs) == 1:
            found = self._resolve_method(cls, method, set())
            if found is not None:
                return [(found, "self")]
            return self._resolve_by_name(method)
        # Walk the import/module/class tables as far as the chain allows.
        target: Optional[Tuple[str, object]] = None
        if base in module.imports:
            target = self._resolve_symbol(module.imports[base], set())
            if target is None and len(attrs) >= 1:
                # imported *module* alias: resolve attr in that module
                target = self._resolve_symbol(
                    f"{module.imports[base]}.{attrs[0]}", set()
                )
                attrs = attrs[1:]
                if not attrs:
                    if target is not None and target[0] == "func":
                        return [(target[1], "direct")]
                    if target is not None and target[0] == "class":
                        init = target[1].methods.get("__init__")
                        return [(init, "direct")] if init else []
                    return self._resolve_by_name(method)
        elif base in module.classes:
            target = ("class", module.classes[base])
        if target is not None and target[0] == "class" and len(attrs) == 1:
            found = self._resolve_method(target[1], method, set())
            if found is not None:
                return [(found, "direct")]
        return self._resolve_by_name(method)

    def _resolve_by_name(self, method: str) -> List[Tuple[str, str]]:
        candidates = self.graph.by_name.get(method, [])
        return [(qualname, "name") for qualname in sorted(candidates)]

    def _resolve_method(
        self, klass: _Class, method: str, seen: Set[str]
    ) -> Optional[str]:
        """MRO-ish lookup: the class, then project-resolvable bases."""
        key = f"{klass.module}.{klass.name}"
        if key in seen:
            return None
        seen.add(key)
        if method in klass.methods:
            return klass.methods[method]
        mod = self.modules.get(klass.module)
        for base_text in klass.bases:
            base_name = base_text.split(".")[-1]
            base_cls: Optional[_Class] = None
            if mod is not None and base_name in mod.classes:
                base_cls = mod.classes[base_name]
            elif mod is not None and base_name in mod.imports:
                resolved = self._resolve_symbol(mod.imports[base_name], set())
                if resolved is not None and resolved[0] == "class":
                    base_cls = resolved[1]  # type: ignore[assignment]
            if base_cls is not None:
                found = self._resolve_method(base_cls, method, seen)
                if found is not None:
                    return found
        return None

    def _resolve_symbol(
        self, dotted_target: str, seen: Set[str]
    ) -> Optional[Tuple[str, object]]:
        """Resolve a dotted import target to ``("func", qualname)`` or
        ``("class", _Class)``, following one re-export hop per level."""
        if dotted_target in seen:
            return None
        seen.add(dotted_target)
        if "." not in dotted_target:
            return None
        mod_name, _, symbol = dotted_target.rpartition(".")
        module = self.modules.get(mod_name)
        if module is None:
            return None
        if symbol in module.functions:
            return ("func", module.functions[symbol])
        if symbol in module.classes:
            return ("class", module.classes[symbol])
        if symbol in module.imports:  # re-export (costs/__init__.py style)
            return self._resolve_symbol(module.imports[symbol], seen)
        return None


# ================================================================ helpers


def _strip_root(dotted_target: str) -> str:
    """Normalize absolute ``repro.*`` imports to the module-relative
    namespace (``repro.costs.ledger`` -> ``costs.ledger``)."""
    if dotted_target == "repro":
        return ""
    if dotted_target.startswith("repro."):
        return dotted_target[len("repro."):]
    return dotted_target


def _attr_chain(node: ast.Attribute) -> Optional[List[str]]:
    """``a.b.c`` -> ["a", "b", "c"] for pure Name/Attribute chains."""
    parts: List[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return list(reversed(parts))
    return None


def _expr_text(node: ast.expr) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse covers real exprs
        return "<expr>"


def _own_calls(fn: ast.AST) -> Iterable[ast.Call]:
    """Call nodes lexically inside ``fn`` but not inside a nested def or
    class (those belong to their own graph node)."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))
