"""Session-discipline rule for the service subsystem (RPR707).

The job service multiplexes tenants and jobs inside one process, so the
process-global telemetry session accessors that are fine in a
one-command CLI become cross-talk hazards there: a handler that calls
``get_telemetry()`` (or enters ``activate()`` / ``telemetry_session()``)
reads *whichever* session happens to be live — another request's, a
fallback job's, or none — instead of the one threaded to it.  Inside the
service, the sanctioned mechanism is an explicit
:class:`repro.service.context.SessionContext` (whose ``bind()`` scopes a
session to the current thread/task via a context variable); the global
accessors are reserved for code outside the service boundary.

RPR707 flags every call to a global session accessor in a module where
``SessionContext`` is in scope — any module of the ``repro.service``
package, plus any module that imports ``SessionContext`` (a module that
has the explicit mechanism available has no excuse to reach for the
ambient one).  Deliberate exceptions carry an inline
``# lint: ignore[RPR707]`` justification.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from ..errors import DiagnosticSeverity
from .analysis.modules import ModuleInfo
from .context import LintContext
from .core import Finding, Rule

RULE_GLOBAL_SESSION_ACCESS = Rule(
    code="RPR707",
    name="process-global-session-access",
    severity=DiagnosticSeverity.WARNING,
    summary="A process-global telemetry session accessor is called where "
            "SessionContext is in scope; in multi-tenant service code the "
            "ambient session may belong to another request or job.  Thread "
            "an explicit SessionContext and use its bind() instead.",
    pass_name="artifacts",
)

#: The process-global session entry points the rule polices.
GLOBAL_ACCESSORS: Tuple[str, ...] = (
    "get_telemetry",
    "activate",
    "telemetry_session",
)

#: Package whose modules are always in scope for the rule.
SERVICE_PACKAGE = "service"


def scan_global_session_access(ctx: LintContext) -> Iterator[Finding]:
    """Flag global session accessor calls inside SessionContext scope."""
    index = ctx.module_index()
    for info in index.select(ctx.options.paths):
        if not _session_context_in_scope(info):
            continue
        for name, line in _accessor_calls(info.tree):
            suppression = info.suppression_for(
                line, RULE_GLOBAL_SESSION_ACCESS.code
            )
            yield RULE_GLOBAL_SESSION_ACCESS.finding(
                f"{name}() reads the process-global telemetry session; "
                "service code must thread a SessionContext and bind() it",
                location=f"{info.rel}:{line}",
                suppressed=suppression is not None,
                justification=suppression,
            )


def _session_context_in_scope(info: ModuleInfo) -> bool:
    """Whether the module has the explicit session mechanism available."""
    if SERVICE_PACKAGE in info.name.split("."):
        return True
    for node in ast.walk(info.tree):
        if isinstance(node, ast.ImportFrom):
            if any(alias.name == "SessionContext" for alias in node.names):
                return True
    return False


def _accessor_calls(tree: ast.AST) -> List[Tuple[str, int]]:
    """(name, line) of every global-accessor call, attribute or bare."""
    calls: List[Tuple[str, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in GLOBAL_ACCESSORS:
            calls.append((func.attr, node.lineno))
        elif isinstance(func, ast.Name) and func.id in GLOBAL_ACCESSORS:
            calls.append((func.id, node.lineno))
    return sorted(calls, key=lambda c: c[1])
