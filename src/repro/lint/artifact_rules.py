"""Artifact-durability pass (RPR7xx).

The campaign subsystem's resume guarantee rests on one invariant: a
result file either exists with its complete content or does not exist at
all.  :mod:`repro.atomicio` provides that (tmp file + fsync +
``os.replace``); a bare ``open(path, "w")`` — or ``Path.write_text`` /
``write_bytes`` — can be interrupted half-written, and a half-written
artifact is *worse* than a missing one because the store and every
baseline/report consumer will trust it.

RPR701 flags raw write calls whose surroundings look artifact-flavored:
the call expression, enclosing function, or module name mentions results,
artifacts, reports, baselines, stores, ledgers, or summaries (or the
module lives in ``repro.campaign``).  Scratch writes — debug dumps,
exports of circuit files, test fixtures — do not match and stay out of
scope.  Append-mode opens are exempt by design: append-only logs cannot
go through whole-file replace and take the flush+fsync route instead
(see :class:`repro.campaign.ledger.EventLedger`); deliberate exceptions
carry an inline ``# lint: ignore[RPR701]`` justification.

RPR702 polices clock discipline for the same durability artifacts:
``time.time()`` is a *wall* clock — NTP slews and steps make differences
of two readings meaningless as durations, and recorded runtimes silently
corrupt.  Durations must come from ``time.perf_counter()`` or
``time.monotonic()``; the few legitimate wall-clock reads (the ledger's
human-correlation ``ts`` field, telemetry's cross-process epoch anchor)
each carry an inline ``# lint: ignore[RPR702]`` justification.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from ..errors import DiagnosticSeverity
from .analysis.modules import ModuleInfo
from .context import LintContext
from .core import Finding, Rule

RULE_RAW_ARTIFACT_WRITE = Rule(
    code="RPR701",
    name="raw-artifact-write",
    severity=DiagnosticSeverity.WARNING,
    summary="A result/artifact path is written with a bare open()/"
            "write_text()/write_bytes(); a crash mid-write leaves a "
            "half-written file that consumers will trust.  Route the "
            "write through repro.atomicio (tmp + fsync + os.replace).",
    pass_name="artifacts",
)

RULE_WALL_CLOCK_DURATION = Rule(
    code="RPR702",
    name="wall-clock-duration",
    severity=DiagnosticSeverity.WARNING,
    summary="time.time() is a wall clock: NTP steps make differences of "
            "two readings meaningless as durations.  Use "
            "time.perf_counter() or time.monotonic() for timing; justify "
            "deliberate wall-clock reads with an inline suppression.",
    pass_name="artifacts",
)

#: Identifier fragments that mark a write as artifact-flavored.
ARTIFACT_TOKENS: Tuple[str, ...] = (
    "artifact", "result", "ledger", "store", "report",
    "baseline", "meta", "summary",
)

#: Module-name suffixes whose writes are artifact-flavored regardless of
#: identifier spelling (the campaign subsystem persists results only).
ARTIFACT_MODULE_PREFIXES: Tuple[str, ...] = ("campaign",)

#: Modules exempt from the rule: the atomic-write substrate itself.
EXEMPT_MODULE_SUFFIXES: Tuple[str, ...] = ("atomicio",)


def scan_artifact_writes(ctx: LintContext) -> Iterator[Finding]:
    """Flag raw writes to artifact-flavored paths across the tree."""
    index = ctx.module_index()
    for info in index.select(ctx.options.paths):
        if _is_exempt_module(info):
            continue
        for message, line in _module_violations(info):
            suppression = info.suppression_for(line, RULE_RAW_ARTIFACT_WRITE.code)
            yield RULE_RAW_ARTIFACT_WRITE.finding(
                message,
                location=f"{info.rel}:{line}",
                suppressed=suppression is not None,
                justification=suppression,
            )


def scan_wall_clock_reads(ctx: LintContext) -> Iterator[Finding]:
    """Flag ``time.time()`` reads; durations need a monotonic clock."""
    index = ctx.module_index()
    for info in index.select(ctx.options.paths):
        for line in _wall_clock_calls(info.tree):
            suppression = info.suppression_for(line, RULE_WALL_CLOCK_DURATION.code)
            yield RULE_WALL_CLOCK_DURATION.finding(
                "time.time() read; use time.perf_counter() or "
                "time.monotonic() if this feeds a duration",
                location=f"{info.rel}:{line}",
                suppressed=suppression is not None,
                justification=suppression,
            )


def _wall_clock_calls(tree: ast.AST) -> List[int]:
    """Line numbers of every ``time.time()`` / bare imported ``time()`` call."""
    bare_time_imported = any(
        isinstance(node, ast.ImportFrom) and node.module == "time"
        and any(alias.name == "time" and alias.asname is None
                for alias in node.names)
        for node in ast.walk(tree)
    )
    lines: List[int] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "time"
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"):
            lines.append(node.lineno)
        elif (bare_time_imported and isinstance(func, ast.Name)
                and func.id == "time"):
            lines.append(node.lineno)
    return sorted(lines)


def _is_exempt_module(info: ModuleInfo) -> bool:
    return any(
        info.name == suffix or info.name.endswith(f".{suffix}")
        for suffix in EXEMPT_MODULE_SUFFIXES
    )


def _is_artifact_module(info: ModuleInfo) -> bool:
    parts = info.name.split(".")
    return any(prefix in parts for prefix in ARTIFACT_MODULE_PREFIXES)


def _module_violations(info: ModuleInfo) -> List[Tuple[str, int]]:
    finder = _WriteFinder(module_flavored=_is_artifact_module(info))
    finder.visit(info.tree)
    return sorted(finder.found, key=lambda v: v[1])


class _WriteFinder(ast.NodeVisitor):
    """Collects raw-write calls, tracking the enclosing function name."""

    def __init__(self, module_flavored: bool) -> None:
        self.module_flavored = module_flavored
        self.found: List[Tuple[str, int]] = []
        self._function_stack: List[str] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._function_stack.append(node.name)
        self.generic_visit(node)
        self._function_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._function_stack.append(node.name)
        self.generic_visit(node)
        self._function_stack.pop()

    def visit_Call(self, node: ast.Call) -> None:
        description = _raw_write_call(node)
        if description is not None and self._flavored(node):
            self.found.append((
                f"{description} on an artifact-flavored path; use "
                f"repro.atomicio for an all-or-nothing write",
                node.lineno,
            ))
        self.generic_visit(node)

    def _flavored(self, node: ast.Call) -> bool:
        if self.module_flavored:
            return True
        tokens: Set[str] = set()
        for name in ast.walk(node):
            if isinstance(name, ast.Name):
                tokens.add(name.id.lower())
            elif isinstance(name, ast.Attribute):
                tokens.add(name.attr.lower())
            elif isinstance(name, ast.Constant) and isinstance(name.value, str):
                tokens.add(name.value.lower())
        tokens.update(fn.lower() for fn in self._function_stack)
        return any(
            token_fragment in token
            for token in tokens
            for token_fragment in ARTIFACT_TOKENS
        )


def _raw_write_call(node: ast.Call) -> Optional[str]:
    """A human description of the raw write, or None when not one."""
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        mode = _mode_argument(node, positional_index=1)
        if mode is not None and _is_write_mode(mode):
            return f'open(..., "{mode}")'
        return None
    if isinstance(func, ast.Attribute):
        if func.attr in ("write_text", "write_bytes"):
            return f"{func.attr}()"
        if func.attr == "open":
            mode = _mode_argument(node, positional_index=0)
            if mode is not None and _is_write_mode(mode):
                return f'.open("{mode}")'
    return None


def _mode_argument(node: ast.Call, positional_index: int) -> Optional[str]:
    mode: Optional[ast.expr] = None
    if len(node.args) > positional_index:
        mode = node.args[positional_index]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


def _is_write_mode(mode: str) -> bool:
    # Truncating ("w") and exclusive ("x") opens; append-only logs ("a")
    # legitimately cannot use whole-file replace and are out of scope.
    return ("w" in mode or "x" in mode) and "a" not in mode
