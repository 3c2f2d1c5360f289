"""Concurrency-safety analysis (RPR8xx).

The parallel MC engine's determinism contract and the roadmap's
request-scoped-session goal both hinge on two properties nothing used to
enforce: that module-level state is not mutated behind the library's
back, and that what crosses a ``ProcessPoolExecutor`` boundary is
picklable and self-contained.  This pass proves both statically, on the
shared whole-program substrate:

global-state escape (RPR801-803)
    the :class:`~.analysis.globalstate.GlobalStateInventory` lists every
    module-level mutable binding (containers, registries, singletons)
    and attributes each write to a call-graph node — function-scope
    writes, cross-module registrations, and shared-default aliasing all
    get their own code so each can be suppressed deliberately.
fork/pickle boundary (RPR804-806)
    the :class:`~.analysis.forkboundary.ForkBoundaryAnalysis` resolves
    every pool-submitted callable and walks its transitive closure;
    anything unresolvable, any fork-inherited handle touched inside a
    worker, and any read of a post-import-mutated global is reported.

Both directions under-approximate: a finding is only emitted when the
offending access is positively resolved, so "no findings" means "nothing
provable", not "nothing wrong" — the same contract as the rng pass.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, List, Set, Tuple

from ..errors import DiagnosticSeverity
from .analysis.globalstate import shared_defaults
from .analysis.modules import ModuleInfo
from .context import LintContext
from .core import Finding, Rule

RULE_GLOBAL_WRITE = Rule(
    code="RPR801",
    name="mutable-module-global-write",
    severity=DiagnosticSeverity.WARNING,
    summary="A function mutates or rebinds a module-level mutable "
            "global; process-global state breaks request-scoped "
            "concurrency — thread the state through parameters or a "
            "session object instead.",
    pass_name="concurrency",
)

RULE_SINGLETON_MUTATION = Rule(
    code="RPR802",
    name="singleton-mutation-outside-activate",
    severity=DiagnosticSeverity.WARNING,
    summary="A module mutates shared state defined in another module "
            "(import-time registration or cross-module write); the "
            "mutation couples program behavior to import order and is "
            "invisible at the defining module.",
    pass_name="concurrency",
)

RULE_CLASS_SHARED_CACHE = Rule(
    code="RPR803",
    name="class-attribute-as-shared-cache",
    severity=DiagnosticSeverity.WARNING,
    summary="A mutable class attribute is mutated through instances, or "
            "a parameter default aliases shared mutable state; every "
            "instance/call silently shares one object.",
    pass_name="concurrency",
)

RULE_UNPICKLABLE_SUBMIT = Rule(
    code="RPR804",
    name="unverifiable-pool-submission",
    severity=DiagnosticSeverity.WARNING,
    summary="A callable submitted to a process pool cannot be resolved "
            "to a module-level function or a __call__-dataclass, so "
            "picklability and worker-side behavior are unverifiable "
            "(lambdas and closures never pickle).",
    pass_name="concurrency",
)

RULE_FORK_INHERITED_HANDLE = Rule(
    code="RPR805",
    name="fork-inherited-handle-in-worker",
    severity=DiagnosticSeverity.WARNING,
    summary="Code reachable from a pool-submitted callable touches a "
            "fork-inherited handle (stream, environment, lock, warning "
            "machinery); workers share these with the parent at fork "
            "time, so behavior depends on fork timing.",
    pass_name="concurrency",
)

RULE_POST_FORK_GLOBAL_READ = Rule(
    code="RPR806",
    name="post-fork-global-read",
    severity=DiagnosticSeverity.WARNING,
    summary="Code reachable from a pool-submitted callable reads a "
            "module global that something mutates after import; the "
            "worker's fork-inherited copy can diverge from the parent's "
            "view.",
    pass_name="concurrency",
)

#: One violation: (rule, message, module, line).
Violation = Tuple[Rule, str, ModuleInfo, int]


def scan_concurrency(ctx: LintContext) -> Iterator[Finding]:
    """Run the global-state and fork-boundary analyses."""
    program = ctx.whole_program()
    index = program.index
    selected = {info.name for info in index.select(ctx.options.paths)}
    violations: List[Violation] = []
    violations.extend(_global_write_findings(program))
    violations.extend(_shared_default_findings(program))
    violations.extend(_fork_boundary_findings(program))
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
        for rule, message, _, line in ordered:
            suppression = info.suppression_for(line, rule.code)
            yield rule.finding(
                message,
                location=f"{info.rel}:{line}",
                suppressed=suppression is not None,
                justification=suppression,
            )


# ---------------------------------------------------------------------------
# RPR801/802: writes against the global-state inventory
# ---------------------------------------------------------------------------


def _global_write_findings(program) -> List[Violation]:
    inventory = program.inventory()
    index = program.index
    violations: List[Violation] = []
    for write in inventory.writes:
        info = index.get(write.module_name)
        if info is None:
            continue
        how = _describe_how(write.how)
        if write.cross_module:
            writer = ("import-time code" if write.import_time
                      else write.node)
            violations.append((
                RULE_SINGLETON_MUTATION,
                f"{writer} mutates {write.var.qualname} "
                f"({write.var.kind} defined in {write.var.rel}) via {how}; "
                f"cross-module mutation couples shared state to import "
                f"order",
                info,
                write.line,
            ))
        elif not write.import_time:
            violations.append((
                RULE_GLOBAL_WRITE,
                f"{write.node} writes module global {write.var.name} "
                f"({write.var.kind}) via {how}; process-global state "
                f"breaks request-scoped concurrency",
                info,
                write.line,
            ))
    return violations


def _describe_how(how: str) -> str:
    if how.startswith("call:"):
        return f"a .{how[5:]}() call"
    return {
        "rebind": "a global-statement rebind",
        "subscript": "item assignment",
        "attribute": "attribute assignment",
        "delete": "item deletion",
    }.get(how, how)


# ---------------------------------------------------------------------------
# RPR803: shared caches through class attributes and defaults
# ---------------------------------------------------------------------------


def _shared_default_findings(program) -> List[Violation]:
    index = program.index
    violations: List[Violation] = []
    for shared in shared_defaults(program.symbols, program.inventory()):
        info = index.get(shared.module_name)
        if info is None:
            continue
        violations.append((
            RULE_CLASS_SHARED_CACHE,
            f"{shared.owner}: {shared.detail}",
            info,
            shared.line,
        ))
    return violations


# ---------------------------------------------------------------------------
# RPR804-806: the fork/pickle boundary
# ---------------------------------------------------------------------------


def _fork_boundary_findings(program) -> List[Violation]:
    fork = program.fork_boundaries()
    effects = program.effects()
    inventory = program.inventory()
    graph = program.graph
    index = program.index
    violations: List[Violation] = []
    for site in fork.sites:
        info = index.get(site.module_name)
        if info is None:
            continue
        for description in site.unresolved:
            violations.append((
                RULE_UNPICKLABLE_SUBMIT,
                f"{site.enclosing} submits {description} to a process "
                f"pool via .{site.method}(); picklability and worker-side "
                f"purity cannot be verified statically",
                info,
                site.line,
            ))

    # Per-function hazards inside any worker closure, deduplicated
    # across sites: the hazard is a property of the function, the sites
    # only determine reachability.
    worker_nodes = sorted(fork.worker_nodes())
    seen_handles: Set[Tuple[str, str]] = set()
    seen_reads: Set[Tuple[str, str]] = set()
    for node in worker_nodes:
        node_info = graph.module_of(node)
        if node_info is None:
            continue
        by_category: Dict[str, List] = defaultdict(list)
        for touch in effects.io_in(node):
            by_category[touch.category].append(touch)
        for category in sorted(by_category):
            if (node, category) in seen_handles:
                continue
            seen_handles.add((node, category))
            touches = by_category[category]
            whats = ", ".join(sorted({t.what for t in touches}))
            violations.append((
                RULE_FORK_INHERITED_HANDLE,
                f"{node} runs in process-pool workers and touches "
                f"fork-inherited {category} state ({whats}); worker "
                f"behavior depends on fork timing",
                node_info,
                min(t.line for t in touches),
            ))
        reads_by_var: Dict[str, List[int]] = defaultdict(list)
        for var, line in inventory.reads.get(node, ()):
            if inventory.post_import_writers(var.qualname):
                reads_by_var[var.qualname].append(line)
        for var_qual in sorted(reads_by_var):
            if (node, var_qual) in seen_reads:
                continue
            seen_reads.add((node, var_qual))
            writers = sorted({
                w.node for w in inventory.post_import_writers(var_qual)
            })
            violations.append((
                RULE_POST_FORK_GLOBAL_READ,
                f"{node} runs in process-pool workers and reads module "
                f"global {var_qual}, mutated after import by "
                f"{', '.join(writers)}; the fork-inherited copy can "
                f"diverge from the parent's view",
                node_info,
                min(reads_by_var[var_qual]),
            ))
    return violations
