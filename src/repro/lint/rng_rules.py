"""RNG-determinism taint analysis (RPR6xx).

The paper's claim — statistical optimization beats deterministic by N %
at equal timing yield — is only checkable if every reported number is
bit-reproducible from a seed.  This pass builds the package call graph
and traces *nondeterminism sources* up the caller chains to the
*result-producing sinks*:

sources
    unseeded ``np.random.default_rng()``, legacy module-level
    ``np.random.*`` calls (global hidden state), ordered sequences built
    directly from ``set`` iteration (hash-order leaks into results), and
    ``id()``-based keys (address-order leaks).
sinks
    functions in the result/reporting modules (``core/result.py``,
    ``analysis/reporting.py``, ``analysis/tables.py``,
    ``analysis/experiments.py``) — everything a benchmark harness prints
    or persists flows through them.
sanitizers
    a function that declares an explicit ``seed`` or ``rng`` parameter:
    determinism is the *caller's* responsibility there, so taint does
    not propagate past it (unseeded calls inside one are still caught
    locally by RPR401).

RPR601 reports each source that reaches a sink un-sanitized, with the
full call chain.  RPR602–604 are the local source diagnostics, so a
nondeterministic construct is named even before anyone wires it into a
result path.  ``dict`` iteration is exempt everywhere: insertion order
is deterministic in the Pythons this package supports.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from ..errors import DiagnosticSeverity
from .analysis.callgraph import CallGraph
from .analysis.modules import ModuleInfo
from .analysis.symbols import PackageSymbols
from .context import LintContext
from .core import Finding, Rule

RULE_TAINT_PATH = Rule(
    code="RPR601",
    name="rng-taint-path",
    severity=DiagnosticSeverity.ERROR,
    summary="A nondeterminism source reaches a result-producing sink "
            "without passing through an explicit seed/rng parameter — "
            "reported numbers are not reproducible from a seed.",
    pass_name="rng",
)

RULE_MODULE_LEVEL_RNG = Rule(
    code="RPR602",
    name="module-level-rng",
    severity=DiagnosticSeverity.ERROR,
    summary="Legacy np.random.* module calls mutate hidden global state; "
            "use a Generator from np.random.default_rng(seed) threaded "
            "through explicitly.",
    pass_name="rng",
)

RULE_SET_ORDER = Rule(
    code="RPR603",
    name="set-order-dependence",
    severity=DiagnosticSeverity.WARNING,
    summary="Building an ordered sequence directly from set iteration "
            "bakes hash order into the result; wrap in sorted() or keep "
            "it a set.",
    pass_name="rng",
)

RULE_ID_BASED_KEY = Rule(
    code="RPR604",
    name="id-based-key",
    severity=DiagnosticSeverity.WARNING,
    summary="id()-derived keys change between runs with address layout; "
            "key on a stable identifier instead.",
    pass_name="rng",
)

#: Module-name suffixes (relative to the package root) that count as
#: result-producing sinks.
SINK_MODULE_SUFFIXES: Tuple[str, ...] = (
    "core.result",
    "analysis.reporting",
    "analysis.tables",
    "analysis.experiments",
)

#: Parameters that mark a function as seed-threading (a taint sanitizer).
SEED_PARAMS: Tuple[str, ...] = ("seed", "rng")

#: Legacy stateful ``numpy.random`` entry points.
_LEGACY_NP_RANDOM = {
    "rand", "randn", "random", "random_sample", "normal", "uniform",
    "choice", "shuffle", "permutation", "randint", "standard_normal",
    "seed", "exponential", "poisson", "lognormal",
}

Violation = Tuple[Rule, str, int]


def scan_rng(ctx: LintContext) -> Iterator[Finding]:
    """Run the determinism analysis over the indexed source tree."""
    program = ctx.whole_program()
    index = program.index
    symbols = program.symbols
    graph = program.graph
    selected = {info.name for info in index.select(ctx.options.paths)}
    sources = _collect_sources(symbols, graph)
    for info in index.modules():
        if info.name not in selected:
            continue
        # Local diagnostics (RPR602-604); unseeded default_rng seeds the
        # taint walk but is reported locally by RPR401, not here.
        violations: List[Violation] = [
            v for node, v, _ in sources
            if v[0] is not RULE_TAINT_PATH and _node_module(graph, node) is info
        ]
        violations.extend(_taint_findings(graph, sources, info))
        for rule, message, line in sorted(violations, key=lambda v: v[2]):
            suppression = info.suppression_for(line, rule.code)
            yield rule.finding(
                message,
                location=f"{info.rel}:{line}",
                suppressed=suppression is not None,
                justification=suppression,
            )


def _node_module(graph: CallGraph, node: str) -> Optional[ModuleInfo]:
    """Module a graph node (function or ``<module>``) belongs to."""
    return graph.module_of(node)


def _is_sink_module(info: ModuleInfo) -> bool:
    return any(
        info.name == suffix or info.name.endswith(f".{suffix}")
        for suffix in SINK_MODULE_SUFFIXES
    )


def _is_sanitizer(graph: CallGraph, node: str) -> bool:
    fn = graph.function(node)
    return fn is not None and fn.has_param(*SEED_PARAMS)


# ---------------------------------------------------------------------------
# Source collection (the local RPR602/603/604 diagnostics double as the
# taint seeds; unseeded default_rng seeds taint but is reported by RPR401)
# ---------------------------------------------------------------------------


#: One taint seed: (graph node, local violation, short description).
Source = Tuple[str, Violation, str]


def _collect_sources(
    symbols: PackageSymbols, graph: CallGraph
) -> List[Source]:
    """Every nondeterministic construct, with its owning graph node."""
    sources: List[Source] = []
    for info in symbols.index:
        for node_name, body in symbols.node_bodies(info).items():
            finder = _SourceFinder(symbols, info)
            for stmt in body:
                finder.visit(stmt)
            for violation, description in finder.found:
                sources.append((node_name, violation, description))
    return sources


class _SourceFinder(ast.NodeVisitor):
    """Collects the nondeterminism sources inside one body."""

    def __init__(self, symbols: PackageSymbols, module: ModuleInfo) -> None:
        self.symbols = symbols
        self.module = module
        self.found: List[Tuple[Violation, str]] = []

    def _add(self, rule: Rule, message: str, line: int, description: str) -> None:
        self.found.append(((rule, message, line), description))

    # Unseeded default_rng and legacy np.random.* calls.
    def visit_Call(self, node: ast.Call) -> None:
        dotted = self.symbols.resolve_name(self.module, node.func)
        if dotted is not None:
            parts = dotted.split(".")
            if parts[-1] == "default_rng" and not node.args and not node.keywords:
                self._add(
                    RULE_TAINT_PATH,  # taint seed; local report is RPR401
                    "default_rng() without a seed",
                    node.lineno,
                    "unseeded default_rng()",
                )
            elif (len(parts) >= 3 and parts[0] == "numpy"
                    and parts[-2] == "random"
                    and parts[-1] in _LEGACY_NP_RANDOM):
                self._add(
                    RULE_MODULE_LEVEL_RNG,
                    f"np.random.{parts[-1]}() draws from hidden global "
                    f"state; thread a seeded Generator instead",
                    node.lineno,
                    f"module-level np.random.{parts[-1]}()",
                )
        if isinstance(node.func, ast.Name) and node.func.id in ("list", "tuple"):
            if len(node.args) == 1 and _is_set_expr(node.args[0]):
                self._add(
                    RULE_SET_ORDER,
                    f"{node.func.id}() over a set fixes an arbitrary hash "
                    f"order; use sorted() for a stable sequence",
                    node.lineno,
                    f"{node.func.id}() over a set",
                )
        self.generic_visit(node)

    # List comprehensions drawing from a set expression.
    def visit_ListComp(self, node: ast.ListComp) -> None:
        for generator in node.generators:
            if _is_set_expr(generator.iter):
                self._add(
                    RULE_SET_ORDER,
                    "list comprehension over a set fixes an arbitrary hash "
                    "order; use sorted() for a stable sequence",
                    node.lineno,
                    "list built from set iteration",
                )
        self.generic_visit(node)

    # For loops over sets whose body appends to a sequence.
    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter) and _appends_in(node.body):
            self._add(
                RULE_SET_ORDER,
                "loop over a set appends in arbitrary hash order; iterate "
                "sorted(...) instead",
                node.lineno,
                "set-ordered accumulation",
            )
        self.generic_visit(node)

    # id() used as a mapping key or subscript.
    def visit_Subscript(self, node: ast.Subscript) -> None:
        if _is_id_call(node.slice):
            self._add(
                RULE_ID_BASED_KEY,
                "id() used as a subscript key",
                node.lineno,
                "id()-based key",
            )
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        for key in node.keys:
            if key is not None and _is_id_call(key):
                self._add(
                    RULE_ID_BASED_KEY,
                    "id() used as a dict key",
                    node.lineno,
                    "id()-based key",
                )
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        if _is_id_call(node.key):
            self._add(
                RULE_ID_BASED_KEY,
                "id() used as a dict-comprehension key",
                node.lineno,
                "id()-based key",
            )
        self.generic_visit(node)


def _is_set_expr(node: ast.expr) -> bool:
    """Set literal, set comprehension, or a ``set(...)``/set-op call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "set"
    return False


def _appends_in(body: List[ast.stmt]) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "append"):
                return True
    return False


def _is_id_call(node: ast.expr) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
            and len(node.args) == 1)


# ---------------------------------------------------------------------------
# Taint propagation
# ---------------------------------------------------------------------------


def _taint_findings(
    graph: CallGraph,
    sources: List[Source],
    info: ModuleInfo,
) -> List[Violation]:
    """RPR601 violations whose source lives in ``info``.

    For each source, walk up the caller chains (cut at sanitizers) and
    report the first sink-module function reached, with the call chain
    rendered sink-first — the direction results flow from.
    """
    violations: List[Violation] = []
    for node, (_, _, line), description in sources:
        if _node_module(graph, node) is not info:
            continue
        if _is_sanitizer(graph, node):
            continue
        path = _path_to_sink(graph, node)
        if path is None:
            continue
        chain = " -> ".join(path)
        violations.append((
            RULE_TAINT_PATH,
            f"{description} reaches result sink {path[0]} without an "
            f"explicit seed parameter on the path ({chain})",
            line,
        ))
    return violations


def _path_to_sink(graph: CallGraph, source: str) -> Optional[Tuple[str, ...]]:
    source_module = _node_module(graph, source)
    if source_module is not None and _is_sink_module(source_module):
        return (source,)
    for caller, path in graph.walk_callers(
        source, stop=lambda node: _is_sanitizer(graph, node)
    ):
        if _is_sanitizer(graph, caller):
            continue
        module = _node_module(graph, caller)
        if module is not None and _is_sink_module(module):
            return path
    return None
