"""Global-state inventory: module-level mutable state and who touches it.

The escape analysis behind the concurrency pass (RPR801-803).  It walks
every module's top level for *mutable globals* — container literals or
constructor calls (dicts, lists, sets, registries) and *singletons*
(module-level instances of package classes) — then scans every
call-graph node body for writes to them, shadow-aware and resolved
through imports, so a ``REGISTRY.register(...)`` in another module is
attributed to the ``REGISTRY`` defined there.

Like the call graph, the inventory under-approximates: a name that
cannot be positively traced to a module-level mutable binding is never
reported.  Reads are collected too (shared with the effect-summary
layer), so downstream passes can ask "which globals does this function
depend on, and does anything mutate them after import?".
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .symbols import MODULE_NODE, PackageSymbols

#: Constructor names whose call produces a mutable container.
MUTABLE_CONSTRUCTORS = frozenset({
    "dict", "list", "set", "bytearray", "defaultdict", "OrderedDict",
    "Counter", "deque", "ChainMap",
})

#: Method names that mutate a container in place.
MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "clear", "remove", "discard", "appendleft",
    "extendleft", "sort", "reverse",
})


@dataclass(frozen=True)
class GlobalVar:
    """One module-level mutable binding.

    ``kind`` is ``"container"`` (dict/list/set literal or constructor)
    or ``"singleton"`` (instance of a package class, or an alias to
    one).
    """

    qualname: str
    name: str
    module_name: str
    rel: str
    line: int
    kind: str


@dataclass(frozen=True)
class GlobalWrite:
    """One write (or registration call) against a :class:`GlobalVar`.

    ``node`` is the call-graph node performing the write; ``how`` is
    ``"rebind"``, ``"subscript"``, ``"attribute"``, ``"delete"``, or
    ``"call:<method>"``.
    """

    var: GlobalVar
    node: str
    module_name: str
    rel: str
    line: int
    how: str

    @property
    def cross_module(self) -> bool:
        """True when the writer lives outside the defining module."""
        return self.module_name != self.var.module_name

    @property
    def import_time(self) -> bool:
        """True when the write happens at module top level."""
        return self.node.endswith(f".{MODULE_NODE}")


@dataclass(frozen=True)
class SharedDefault:
    """A class attribute or parameter default aliasing shared mutable state."""

    owner: str
    module_name: str
    rel: str
    line: int
    detail: str


@dataclass
class GlobalStateInventory:
    """Mutable module-level state of a package, with all writes and reads."""

    symbols: PackageSymbols
    variables: Dict[str, GlobalVar] = field(default_factory=dict)
    writes: Tuple[GlobalWrite, ...] = ()
    #: graph node -> ordered (var, line) reads inside its body.
    reads: Dict[str, Tuple[Tuple[GlobalVar, int], ...]] = field(
        default_factory=dict
    )

    @classmethod
    def build(cls, symbols: PackageSymbols) -> "GlobalStateInventory":
        """Inventory globals, then scan every node body for accesses."""
        inventory = cls(symbols=symbols)
        for info in symbols.index:
            inventory._scan_globals(info)
        writes: List[GlobalWrite] = []
        for info in symbols.index:
            for node_name, body in symbols.node_bodies(info).items():
                finder = _AccessFinder(inventory, info, node_name, body)
                writes.extend(finder.writes)
                inventory.reads[node_name] = tuple(finder.reads)
            # Decorator expressions execute at import time but live on
            # statements the module node does not own; scan them under
            # the module node so registration decorators are attributed.
            module_node = f"{info.name}.{MODULE_NODE}"
            for dec in _decorators_in(info.tree):
                finder = _AccessFinder(inventory, info, module_node, [],
                                       extra=[dec])
                writes.extend(finder.writes)
                inventory.reads[module_node] += tuple(finder.reads)
        inventory.writes = tuple(writes)
        return inventory

    def post_import_writers(self, qualname: str) -> Tuple[GlobalWrite, ...]:
        """Writes to a variable from anywhere but module top level."""
        return tuple(
            w for w in self.writes
            if w.var.qualname == qualname and not w.import_time
        )

    def iter_variables(self) -> Iterator[GlobalVar]:
        """Every inventoried global, sorted by qualname."""
        for qual in sorted(self.variables):
            yield self.variables[qual]

    # -- module-level scan --------------------------------------------------

    def _scan_globals(self, info) -> None:
        for stmt in info.tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None:
                continue
            kind = self._classify(info, value)
            if kind is None:
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                qual = f"{info.name}.{target.id}"
                self.variables[qual] = GlobalVar(
                    qualname=qual,
                    name=target.id,
                    module_name=info.name,
                    rel=info.rel,
                    line=stmt.lineno,
                    kind=kind,
                )

    def _classify(self, info, value: ast.expr) -> Optional[str]:
        """``"container"``/``"singleton"`` kind of a top-level value."""
        if isinstance(value, (ast.Dict, ast.List, ast.Set,
                              ast.DictComp, ast.ListComp, ast.SetComp)):
            return "container"
        if isinstance(value, ast.Name):
            # Alias of another global in the same module (e.g.
            # ``_ACTIVE = NULL_TELEMETRY``) inherits its kind.
            aliased = self.variables.get(f"{info.name}.{value.id}")
            return aliased.kind if aliased is not None else None
        if isinstance(value, ast.Call):
            func = value.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None
            )
            if name in MUTABLE_CONSTRUCTORS:
                return "container"
            resolved = self.symbols.resolve_value(info, value)
            if resolved is not None and resolved in self.symbols.classes:
                return "singleton"
        return None


def _decorators_in(tree: ast.Module) -> List[ast.expr]:
    decs: List[ast.expr] = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            decs.extend(stmt.decorator_list)
        elif isinstance(stmt, ast.ClassDef):
            decs.extend(stmt.decorator_list)
            for member in stmt.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    decs.extend(member.decorator_list)
    return decs


def _local_bindings(body: List[ast.stmt]) -> Tuple[Set[str], Set[str]]:
    """(locally bound names, ``global``-declared names) of one body.

    Over-approximates locals (nested scopes included), which can only
    suppress findings — the conservative direction.
    """
    bound: Set[str] = set()
    declared_global: Set[str] = set()
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bound.add(node.name)
                args = node.args
                bound.update(
                    a.arg for a in [*args.posonlyargs, *args.args,
                                    *args.kwonlyargs]
                )
                if args.vararg:
                    bound.add(args.vararg.arg)
                if args.kwarg:
                    bound.add(args.kwarg.arg)
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                bound.add(node.id)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound.add(node.name)
            elif isinstance(node, ast.ClassDef):
                bound.add(node.name)
    return bound - declared_global, declared_global


class _AccessFinder(ast.NodeVisitor):
    """Writes and reads against inventoried globals inside one body."""

    def __init__(self, inventory: GlobalStateInventory, info, node_name: str,
                 body: List[ast.stmt],
                 extra: Optional[List[ast.expr]] = None) -> None:
        self.inventory = inventory
        self.info = info
        self.node_name = node_name
        self.is_module_node = node_name.endswith(f".{MODULE_NODE}")
        self.writes: List[GlobalWrite] = []
        self.reads: List[Tuple[GlobalVar, int]] = []
        params: Set[str] = set()
        fn = inventory.symbols.functions.get(node_name)
        if fn is not None:
            params = set(fn.params)
        self.locals, self.declared_global = _local_bindings(body)
        self.locals |= params
        self.locals -= self.declared_global
        for stmt in body:
            self.visit(stmt)
        for expr in (extra or []):
            self.visit(expr)

    # -- name resolution ----------------------------------------------------

    def _resolve(self, expr: ast.expr) -> Optional[GlobalVar]:
        """GlobalVar an expression refers to, honoring local shadowing."""
        variables = self.inventory.variables
        if isinstance(expr, ast.Name):
            if expr.id in self.locals:
                return None
            own = variables.get(f"{self.info.name}.{expr.id}")
            if own is not None:
                return own
            target = self.inventory.symbols.by_module[
                self.info.name
            ].imports.get(expr.id)
            if target is not None:
                return variables.get(target)
            return None
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            if expr.value.id in self.locals:
                return None
            target = self.inventory.symbols.by_module[
                self.info.name
            ].imports.get(expr.value.id)
            if target is not None:
                return variables.get(f"{target}.{expr.attr}")
        return None

    def _record(self, var: GlobalVar, line: int, how: str) -> None:
        self.writes.append(GlobalWrite(
            var=var,
            node=self.node_name,
            module_name=self.info.name,
            rel=self.info.rel,
            line=line,
            how=how,
        ))

    def _write_target(self, target: ast.expr, line: int) -> None:
        if isinstance(target, ast.Name):
            if target.id not in self.declared_global:
                return
            var = self.inventory.variables.get(
                f"{self.info.name}.{target.id}"
            )
            if var is not None:
                self._record(var, line, "rebind")
        elif isinstance(target, ast.Subscript):
            var = self._resolve(target.value)
            if var is not None:
                self._record(var, line, "subscript")
        elif isinstance(target, ast.Attribute):
            var = self._resolve(target.value)
            if var is not None:
                self._record(var, line, "attribute")
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._write_target(element, line)

    # -- visitors -----------------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._write_target(target, node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._write_target(node.target, node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        if isinstance(target, ast.Name):
            var = self._resolve(target)
            if var is not None and (
                target.id in self.declared_global or var.kind == "container"
            ):
                # ``xs += [..]`` mutates in place even without ``global``.
                self._record(var, node.lineno, "rebind")
        else:
            self._write_target(target, node.lineno)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                var = self._resolve(target.value)
                if var is not None:
                    self._record(var, node.lineno, "delete")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            var = self._resolve(func.value)
            if var is not None:
                if var.kind == "container" and func.attr in MUTATOR_METHODS:
                    self._record(var, node.lineno, f"call:{func.attr}")
                elif (var.kind == "singleton" and self.is_module_node
                        and var.module_name != self.info.name):
                    # Import-time method call on a foreign singleton:
                    # registration (``REGISTRY.register(...)``).  Inside
                    # functions a method call is indistinguishable from a
                    # read, so only top-level calls are treated as writes.
                    self._record(var, node.lineno, f"call:{func.attr}")
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            var = self._resolve(node)
            if var is not None:
                self.reads.append((var, node.lineno))
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # ``mod.VAR`` loads of a foreign global; plain-name loads are
        # handled by visit_Name.
        if isinstance(node.ctx, ast.Load) and isinstance(node.value, ast.Name):
            var = self._resolve(node)
            if var is not None:
                self.reads.append((var, node.lineno))
                return  # do not also record the module name itself
        self.generic_visit(node)


def shared_defaults(
    symbols: PackageSymbols, inventory: GlobalStateInventory
) -> List[SharedDefault]:
    """Class attributes and parameter defaults aliasing mutable state.

    Two shapes of RPR803: (1) a class attribute bound to a mutable
    container literal *and* mutated through ``self``/``cls`` by some
    method — an instance-spanning cache; (2) a parameter default that is
    a mutable literal/constructor or resolves to an inventoried global —
    every call without the argument shares one object.
    """
    found: List[SharedDefault] = []
    for cls in symbols.iter_classes():
        mutated = _self_mutated_attrs(cls.node)
        for stmt in cls.node.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None or not _is_mutable_literal(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id in mutated:
                    found.append(SharedDefault(
                        owner=cls.qualname,
                        module_name=cls.module.name,
                        rel=cls.module.rel,
                        line=stmt.lineno,
                        detail=(
                            f"class attribute {target.id!r} is a mutable "
                            f"container mutated through self/cls — shared "
                            f"across every instance"
                        ),
                    ))
    for fn in symbols.iter_functions():
        args = fn.node.args
        defaults = [
            *args.defaults,
            *[d for d in args.kw_defaults if d is not None],
        ]
        for default in defaults:
            detail: Optional[str] = None
            if _is_mutable_literal(default):
                detail = "parameter default is a mutable container literal"
            elif isinstance(default, ast.Name):
                var = _resolve_default(symbols, inventory, fn.module, default)
                if var is not None:
                    detail = (
                        f"parameter default aliases module global "
                        f"{var.qualname} ({var.kind})"
                    )
            if detail is not None:
                found.append(SharedDefault(
                    owner=fn.qualname,
                    module_name=fn.module.name,
                    rel=fn.module.rel,
                    line=default.lineno,
                    detail=detail,
                ))
    return found


def _resolve_default(symbols, inventory, info, name: ast.Name):
    own = inventory.variables.get(f"{info.name}.{name.id}")
    if own is not None:
        return own
    target = symbols.by_module[info.name].imports.get(name.id)
    if target is not None:
        return inventory.variables.get(target)
    return None


def _is_mutable_literal(value: ast.expr) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set)):
        return True
    return (isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in MUTABLE_CONSTRUCTORS
            and not value.args and not value.keywords)


def _self_mutated_attrs(node: ast.ClassDef) -> Set[str]:
    """Attribute names the class mutates through ``self.X``/``cls.X``."""
    mutated: Set[str] = set()
    for member in node.body:
        if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for child in ast.walk(member):
            attr: Optional[ast.Attribute] = None
            if isinstance(child, (ast.Assign, ast.AugAssign)):
                targets = (child.targets if isinstance(child, ast.Assign)
                           else [child.target])
                for target in targets:
                    if (isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Attribute)):
                        attr = target.value
            elif (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr in MUTATOR_METHODS
                    and isinstance(child.func.value, ast.Attribute)):
                attr = child.func.value
            if (attr is not None
                    and isinstance(attr.value, ast.Name)
                    and attr.value.id in ("self", "cls")):
                mutated.add(attr.attr)
    return mutated
