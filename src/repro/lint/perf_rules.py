"""Performance-antipattern analysis (RPR9xx).

The roadmap's vectorized-MC goal dies by a thousand cuts: one scalar
per-die loop here, one array allocation inside a hot loop there, and the
Monte Carlo engine quietly runs an order of magnitude slower than the
arrays underneath it allow.  This pass finds those cuts statically, on
the shared whole-program substrate:

scalar hot loops (RPR901-904)
    the :class:`~.analysis.loopnest.LoopNestAnalysis` classifies every
    loop's trip count (per-sample / per-gate / per-shard) from iterable
    provenance, and the :class:`~.analysis.hotpath.HotPathAnalysis`
    closes the call graph over telemetry span instrumentation sites;
    scalar loops, allocations, loop-invariant chains, and element-wise
    NumPy indexing are only reported where both agree the code is hot.
algorithmic and determinism hazards (RPR905-906)
    accidentally-quadratic list membership and iteration over unordered
    sets feeding order-sensitive accumulation fire *everywhere* — the
    first is wrong at any temperature, the second threatens the repo's
    bitwise-determinism contract.

With ``--profile TRACE.jsonl`` every hot finding carries the measured
seconds of the spans that reach it (:class:`Finding` ``weight``), so the
report doubles as a prioritized optimization worklist.  Weights never
enter messages — baseline fingerprints stay stable across reprofiling.

Like the rng and concurrency passes this under-approximates: a loop the
analysis cannot positively classify, or an array it cannot positively
prove is NumPy, is not reported.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..errors import DiagnosticSeverity
from .analysis.loopnest import (
    SCALING_TRIP_CLASSES,
    LoopInfo,
    _simple_assignments,
    scalar_induction_names,
)
from .analysis.modules import ModuleInfo
from .context import LintContext
from .core import Finding, Rule

RULE_SCALAR_HOT_LOOP = Rule(
    code="RPR901",
    name="scalar-loop-in-hot-path",
    severity=DiagnosticSeverity.WARNING,
    summary="A scalar Python loop walks samples, gates, or shards inside "
            "a telemetry-instrumented hot path; the iteration belongs in "
            "one batched NumPy pass over the whole axis.",
    pass_name="perf",
)

RULE_ALLOC_IN_HOT_LOOP = Rule(
    code="RPR902",
    name="alloc-in-hot-loop",
    severity=DiagnosticSeverity.WARNING,
    summary="An array is constructed inside a workload-scaling loop on a "
            "hot path; per-iteration allocation dominates small-kernel "
            "cost — hoist the buffer out and fill it in place.",
    pass_name="perf",
)

RULE_LOOP_INVARIANT_CHAIN = Rule(
    code="RPR903",
    name="loop-invariant-chain",
    severity=DiagnosticSeverity.INFO,
    summary="A multi-step attribute chain with a loop-invariant root is "
            "re-evaluated every iteration of a hot workload-scaling "
            "loop; bind it to a local before the loop.",
    pass_name="perf",
)

RULE_ELEMENTWISE_INDEX = Rule(
    code="RPR904",
    name="elementwise-index-in-loop",
    severity=DiagnosticSeverity.WARNING,
    summary="A NumPy array is indexed element-by-element with the "
            "induction variable of a hot workload-scaling loop; "
            "each scalar access round-trips through the Python layer — "
            "operate on the whole axis instead.",
    pass_name="perf",
)

RULE_QUADRATIC_MEMBERSHIP = Rule(
    code="RPR905",
    name="quadratic-membership",
    severity=DiagnosticSeverity.WARNING,
    summary="A membership test against a list runs inside a loop, making "
            "the scan accidentally quadratic; use a set or dict for "
            "O(1) membership.",
    pass_name="perf",
)

RULE_UNORDERED_ACCUMULATION = Rule(
    code="RPR906",
    name="unordered-set-accumulation",
    severity=DiagnosticSeverity.WARNING,
    summary="A loop iterates an unordered set while feeding an "
            "order-sensitive accumulation (float sums, appends); "
            "iteration order varies across processes, threatening "
            "bitwise determinism — sort the set first.",
    pass_name="perf",
)

#: One violation: (rule, message, module, line, node).
Violation = Tuple[Rule, str, ModuleInfo, int, str]

#: NumPy callables that construct a fresh array.
_NUMPY_CTORS = frozenset({
    "array", "asarray", "ascontiguousarray", "copy",
    "zeros", "empty", "ones", "full",
    "zeros_like", "empty_like", "ones_like", "full_like",
    "concatenate", "stack", "vstack", "hstack", "column_stack",
    "arange", "linspace", "tile", "repeat", "eye",
})

#: Annotation texts accepted as "provably a NumPy array".
_NDARRAY_ANNOTATIONS = frozenset({
    "np.ndarray", "numpy.ndarray", "ndarray",
})


def scan_perf(ctx: LintContext) -> Iterator[Finding]:
    """Run the loop-nest and hot-path analyses."""
    program = ctx.whole_program()
    index = program.index
    graph = program.graph
    loopnests = program.loopnests()
    hotpaths = program.hotpaths()
    selected = {info.name for info in index.select(ctx.options.paths)}
    hot_via = hotpaths.hot_via()
    seconds = hotpaths.attribute(ctx.options.profile)

    violations: List[Violation] = []
    for node in loopnests.nodes():
        info = graph.module_of(node)
        if info is None:
            continue
        loops = loopnests.loops_in(node)
        spans = hot_via.get(node)
        body = _node_body(program.symbols, info, node)
        assigns = _simple_assignments(body) if body is not None else {}
        if spans:
            violations.extend(_scalar_loop_findings(info, node, loops, spans))
            violations.extend(
                _alloc_findings(program.symbols, info, node, loops, spans)
            )
            violations.extend(_invariant_chain_findings(info, node, loops, spans))
            violations.extend(
                _elementwise_findings(program.symbols, info, node, loops,
                                      assigns, spans)
            )
        violations.extend(
            _membership_findings(info, node, loops, assigns)
        )
        violations.extend(
            _set_iteration_findings(info, node, loops, assigns)
        )

    by_module: Dict[str, List[Violation]] = defaultdict(list)
    for violation in violations:
        by_module[violation[2].name].append(violation)
    for info in index.modules():
        if info.name not in selected:
            continue
        ordered = sorted(
            by_module.get(info.name, []),
            key=lambda v: (v[3], v[0].code, v[1]),
        )
        for rule, message, _, line, node in ordered:
            suppression = info.suppression_for(line, rule.code)
            yield rule.finding(
                message,
                location=f"{info.rel}:{line}",
                suppressed=suppression is not None,
                justification=suppression,
                weight=seconds.get(node, 0.0),
            )


def _node_body(symbols, info: ModuleInfo, node: str) -> Optional[List[ast.stmt]]:
    return symbols.node_bodies(info).get(node)


def _via(spans: Tuple[str, ...]) -> str:
    return f"hot via {', '.join(spans)}"


# ---------------------------------------------------------------------------
# RPR901: scalar workload loops on hot paths
# ---------------------------------------------------------------------------


def _scalar_loop_findings(
    info: ModuleInfo, node: str, loops: Tuple[LoopInfo, ...],
    spans: Tuple[str, ...],
) -> List[Violation]:
    violations: List[Violation] = []
    for loop in loops:
        if loop.kind != "for" or loop.trip_class not in SCALING_TRIP_CLASSES:
            continue
        violations.append((
            RULE_SCALAR_HOT_LOOP,
            f"{node} runs a scalar {loop.trip_class} Python loop over "
            f"`{loop.iterable}` ({_via(spans)}); batch the axis into one "
            f"NumPy pass",
            info,
            loop.line,
            node,
        ))
    return violations


# ---------------------------------------------------------------------------
# RPR902: array construction inside hot scaling loops
# ---------------------------------------------------------------------------


def _alloc_findings(
    symbols, info: ModuleInfo, node: str, loops: Tuple[LoopInfo, ...],
    spans: Tuple[str, ...],
) -> List[Violation]:
    violations: List[Violation] = []
    for loop in loops:
        if loop.trip_class not in SCALING_TRIP_CLASSES:
            continue
        for child in ast.walk(loop.tree):
            if not isinstance(child, ast.Call):
                continue
            dotted = symbols.resolve_name(info, child.func)
            if dotted is None or not dotted.startswith("numpy."):
                continue
            ctor = dotted.rpartition(".")[2]
            if ctor not in _NUMPY_CTORS:
                continue
            violations.append((
                RULE_ALLOC_IN_HOT_LOOP,
                f"{node} constructs an array via np.{ctor}(...) inside a "
                f"{loop.trip_class} loop ({_via(spans)}); hoist the "
                f"allocation out of the loop",
                info,
                child.lineno,
                node,
            ))
    return violations


# ---------------------------------------------------------------------------
# RPR903: loop-invariant attribute chains re-evaluated per iteration
# ---------------------------------------------------------------------------


def _chain_parts(expr: ast.expr) -> Optional[Tuple[str, int]]:
    """(root name, attr depth) of a pure attribute chain, else None."""
    depth = 0
    node = expr
    while isinstance(node, ast.Attribute):
        depth += 1
        node = node.value
    if isinstance(node, ast.Name) and depth >= 2:
        return node.id, depth
    return None


def _assigned_names(tree: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for child in ast.walk(tree):
        if isinstance(child, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (child.targets if isinstance(child, ast.Assign)
                       else [child.target])
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names.add(leaf.id)
    return names


def _invariant_chain_findings(
    info: ModuleInfo, node: str, loops: Tuple[LoopInfo, ...],
    spans: Tuple[str, ...],
) -> List[Violation]:
    violations: List[Violation] = []
    for loop in loops:
        if loop.trip_class not in SCALING_TRIP_CLASSES:
            continue
        mutated = _assigned_names(loop.tree) | set(loop.induction)
        seen: Set[str] = set()
        for child in ast.walk(loop.tree):
            if not isinstance(child, ast.Attribute):
                continue
            parts = _chain_parts(child)
            if parts is None:
                continue
            root, _ = parts
            if root in mutated:
                continue
            # Only the outermost chain occurrence counts — ast.walk
            # visits sub-chains of the same expression too.
            text = ast.unparse(child)
            if any(text != other and other.startswith(text)
                   for other in seen):
                continue
            if text in seen:
                continue
            seen.add(text)
            violations.append((
                RULE_LOOP_INVARIANT_CHAIN,
                f"{node} re-evaluates loop-invariant chain `{text}` every "
                f"iteration of a {loop.trip_class} loop ({_via(spans)}); "
                f"bind it to a local before the loop",
                info,
                child.lineno,
                node,
            ))
    return violations


# ---------------------------------------------------------------------------
# RPR904: element-wise NumPy indexing by the induction variable
# ---------------------------------------------------------------------------


def _annotation_text(annotation: Optional[ast.expr]) -> Optional[str]:
    if annotation is None:
        return None
    try:
        return ast.unparse(annotation)
    except ValueError:  # pragma: no cover - malformed annotation
        return None


def _ndarray_names(
    symbols, info: ModuleInfo, node: str, assigns: Dict[str, ast.expr],
) -> Set[str]:
    """Local names provably bound to NumPy arrays inside one node.

    Two proofs are accepted: a parameter annotated ``np.ndarray``, and a
    local assigned from a NumPy array constructor.  Anything else stays
    unproven and unreported.
    """
    proven: Set[str] = set()
    fn = symbols.functions.get(node)
    if fn is not None:
        args = fn.node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if _annotation_text(arg.annotation) in _NDARRAY_ANNOTATIONS:
                proven.add(arg.arg)
    for name, expr in assigns.items():
        if isinstance(expr, ast.Call):
            dotted = symbols.resolve_name(info, expr.func)
            if (dotted is not None and dotted.startswith("numpy.")
                    and dotted.rpartition(".")[2] in _NUMPY_CTORS):
                proven.add(name)
    return proven


def _elementwise_findings(
    symbols, info: ModuleInfo, node: str, loops: Tuple[LoopInfo, ...],
    assigns: Dict[str, ast.expr], spans: Tuple[str, ...],
) -> List[Violation]:
    proven = _ndarray_names(symbols, info, node, assigns)
    if not proven:
        return []
    violations: List[Violation] = []
    for loop in loops:
        if loop.trip_class not in SCALING_TRIP_CLASSES or not loop.induction:
            continue
        if not isinstance(loop.tree, ast.For):
            continue
        # Only scalar induction variables are element-wise hazards; a
        # batch loop binding index arrays gathers whole levels per
        # subscript — that *is* the vectorized access pattern.
        targets = set(scalar_induction_names(loop.tree.iter, loop.induction))
        if not targets:
            continue
        seen: Set[str] = set()
        for child in ast.walk(loop.tree):
            if not isinstance(child, ast.Subscript):
                continue
            base = child.value
            if not (isinstance(base, ast.Name) and base.id in proven):
                continue
            index = child.slice
            lead = (index.elts[0]
                    if isinstance(index, ast.Tuple) and index.elts else index)
            if not (isinstance(lead, ast.Name) and lead.id in targets):
                continue
            if base.id in seen:
                continue
            seen.add(base.id)
            violations.append((
                RULE_ELEMENTWISE_INDEX,
                f"{node} indexes NumPy array {base.id} element-wise with "
                f"induction variable {lead.id} in a {loop.trip_class} "
                f"loop ({_via(spans)}); slice the whole axis instead",
                info,
                child.lineno,
                node,
            ))
    return violations


# ---------------------------------------------------------------------------
# RPR905: accidentally-quadratic list membership
# ---------------------------------------------------------------------------


def _list_names(assigns: Dict[str, ast.expr]) -> Set[str]:
    names: Set[str] = set()
    for name, expr in assigns.items():
        if isinstance(expr, (ast.List, ast.ListComp)):
            names.add(name)
        elif (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
                and expr.func.id == "list"):
            names.add(name)
    return names


def _membership_findings(
    info: ModuleInfo, node: str, loops: Tuple[LoopInfo, ...],
    assigns: Dict[str, ast.expr],
) -> List[Violation]:
    lists = _list_names(assigns)
    if not lists:
        return []
    violations: List[Violation] = []
    seen: Set[Tuple[int, str]] = set()
    for loop in loops:
        for child in ast.walk(loop.tree):
            if not isinstance(child, ast.Compare):
                continue
            for op, comparator in zip(child.ops, child.comparators):
                if not isinstance(op, (ast.In, ast.NotIn)):
                    continue
                if not (isinstance(comparator, ast.Name)
                        and comparator.id in lists):
                    continue
                key = (child.lineno, comparator.id)
                if key in seen:
                    continue
                seen.add(key)
                violations.append((
                    RULE_QUADRATIC_MEMBERSHIP,
                    f"{node} tests membership against list "
                    f"{comparator.id} inside a loop — an O(n^2) scan; "
                    f"use a set or dict",
                    info,
                    child.lineno,
                    node,
                ))
    return violations


# ---------------------------------------------------------------------------
# RPR906: unordered-set iteration feeding order-sensitive accumulation
# ---------------------------------------------------------------------------


def _set_expr(expr: ast.expr, assigns: Dict[str, ast.expr]) -> bool:
    if isinstance(expr, ast.Name) and expr.id in assigns:
        expr = assigns[expr.id]
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
            and expr.func.id in ("set", "frozenset")):
        return True
    return False


def _order_sensitive_sink(loop: ast.For) -> Optional[int]:
    """Line of the first order-sensitive accumulation in a loop body.

    Set-algebra augmented assigns (``|= &= ^=``) are commutative *and*
    associative, so they accumulate identically in any order; float
    ``+=`` and friends are only commutative, which is exactly the
    bitwise hazard.
    """
    for child in ast.walk(loop):
        if (isinstance(child, ast.AugAssign)
                and not isinstance(child.op, (ast.BitOr, ast.BitAnd,
                                              ast.BitXor))):
            return child.lineno
        if (isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "append"):
            return child.lineno
    return None


def _set_iteration_findings(
    info: ModuleInfo, node: str, loops: Tuple[LoopInfo, ...],
    assigns: Dict[str, ast.expr],
) -> List[Violation]:
    violations: List[Violation] = []
    for loop in loops:
        if loop.kind != "for" or not isinstance(loop.tree, ast.For):
            continue
        if not _set_expr(loop.tree.iter, assigns):
            continue
        sink_line = _order_sensitive_sink(loop.tree)
        if sink_line is None:
            continue
        violations.append((
            RULE_UNORDERED_ACCUMULATION,
            f"{node} iterates unordered set `{loop.iterable}` while "
            f"accumulating order-sensitively (line {sink_line}); sort "
            f"the set to keep results bitwise-deterministic",
            info,
            loop.line,
            node,
        ))
    return violations
