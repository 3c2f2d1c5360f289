"""AST lint over the library's own source tree (RPR4xx).

``repro lint --self`` parses every module under ``src/repro`` and enforces
the conventions the statistical results depend on: reproducible RNG use,
no exact float comparison of physical quantities, the :mod:`repro.units`
helpers instead of bare power-of-ten conversion literals, the
:class:`~repro.errors.ReproError` hierarchy for raised exceptions, and no
mutable default arguments.

Findings are suppressed inline with a justification::

    if delta_l == 0.0:  # lint: ignore[RPR402] exact zero is a fast path
        ...

The pragma must sit on the reported line and name the rule code; the
justification text is carried into the report (and the JSON output), so
acknowledged violations stay visible without failing the run.
"""

from __future__ import annotations

import ast
import builtins
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..errors import DiagnosticSeverity
from .analysis.modules import ModuleInfo
from .context import LintContext
from .core import Finding, Rule

RULE_UNSEEDED_RNG = Rule(
    code="RPR401",
    name="unseeded-rng",
    severity=DiagnosticSeverity.ERROR,
    summary="np.random.default_rng() without a seed breaks run-to-run "
            "reproducibility of every statistical comparison.",
    pass_name="codebase",
)

RULE_FLOAT_EQUALITY = Rule(
    code="RPR402",
    name="float-equality",
    severity=DiagnosticSeverity.WARNING,
    summary="== / != against a float literal on physical quantities is "
            "almost always a tolerance bug; use math.isclose or an explicit "
            "fast-path suppression.",
    pass_name="codebase",
)

RULE_RAW_UNIT_LITERAL = Rule(
    code="RPR403",
    name="raw-unit-literal",
    severity=DiagnosticSeverity.WARNING,
    summary="Bare 1e-9-style conversion factors duplicate repro.units; the "
            "named helpers keep the SI convention greppable and typo-proof.",
    pass_name="codebase",
)

RULE_FOREIGN_EXCEPTION = Rule(
    code="RPR404",
    name="foreign-exception",
    severity=DiagnosticSeverity.WARNING,
    summary="Library code should raise ReproError subclasses so callers can "
            "catch everything from this package with one except clause.",
    pass_name="codebase",
)

RULE_MUTABLE_DEFAULT = Rule(
    code="RPR405",
    name="mutable-default",
    severity=DiagnosticSeverity.ERROR,
    summary="Mutable default arguments are shared across calls — state "
            "leaks between invocations that are meant to be independent.",
    pass_name="codebase",
)

#: Conversion factors with a named repro.units equivalent.
_UNIT_FACTORS: Dict[float, str] = {
    1e-9: "nm()/ns()/nA()/nW()",
    1e-12: "ps()/pF()",
    1e-15: "fF()",
    1e-6: "um()/uA()/uW()",
    1e9: "to_nm()/to_ns()/to_nA()/to_nW()",
    1e12: "to_ps()",
    1e15: "to_fF()",
    1e6: "to_um()/to_uA()/to_uW()",
}

#: Built-in exceptions that are fine to raise from library code.
_ALLOWED_BUILTIN_RAISES = {"NotImplementedError", "StopIteration"}

#: Built-in exception names RPR404 recognizes as foreign.
_BUILTIN_EXCEPTIONS = {
    name for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
}

def repro_error_names() -> Set[str]:
    """Names of every class in the ReproError hierarchy (plus the base)."""
    from .. import errors

    names = set()
    for name in dir(errors):
        obj = getattr(errors, name)
        if isinstance(obj, type) and issubclass(obj, errors.ReproError):
            names.add(name)
    return names


def scan_codebase(ctx: LintContext) -> Iterator[Finding]:
    """Run every RPR4xx rule over all ``*.py`` files under ``source_root``.

    ASTs come from the context's shared :class:`ModuleIndex` — the same
    parse the units and rng passes use.
    """
    allowed_raises = repro_error_names() | _ALLOWED_BUILTIN_RAISES
    for info in ctx.module_index().select(ctx.options.paths):
        yield from _scan_module(info, allowed_raises)


def _scan_module(info: ModuleInfo, allowed_raises: Set[str]) -> Iterator[Finding]:
    visitor = _CodebaseVisitor(
        allowed_raises=allowed_raises, skip_units=info.path.name == "units.py"
    )
    visitor.visit(info.tree)
    for rule, message, line in visitor.violations:
        suppression = info.suppression_for(line, rule.code)
        yield rule.finding(
            message,
            location=f"{info.rel}:{line}",
            suppressed=suppression is not None,
            justification=suppression,
        )


class _CodebaseVisitor(ast.NodeVisitor):
    """One-walk collector for all RPR4xx violations in a module."""

    def __init__(self, allowed_raises: Set[str], skip_units: bool = False) -> None:
        self.violations: List[Tuple[Rule, str, int]] = []
        self._allowed_raises = allowed_raises
        self._skip_units = skip_units
        self._class_bases: Dict[str, Set[str]] = {}

    # -- RPR401: unseeded RNG -------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node.func)
        if name == "default_rng" and not node.args and not node.keywords:
            self.violations.append((
                RULE_UNSEEDED_RNG,
                "default_rng() called without a seed; pass an explicit seed "
                "so statistical runs are reproducible",
                node.lineno,
            ))
        self.generic_visit(node)

    # -- RPR402: exact float comparison ---------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        has_eq = any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        if has_eq:
            for operand in [node.left, *node.comparators]:
                if (isinstance(operand, ast.Constant)
                        and isinstance(operand.value, float)):
                    self.violations.append((
                        RULE_FLOAT_EQUALITY,
                        f"exact ==/!= comparison against float literal "
                        f"{operand.value!r}; use math.isclose or a tolerance",
                        operand.lineno,
                    ))
                    break
        self.generic_visit(node)

    # -- RPR403: raw unit-conversion literals ---------------------------------

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if not self._skip_units and isinstance(node.op, (ast.Mult, ast.Div)):
            for operand in (node.left, node.right):
                if (isinstance(operand, ast.Constant)
                        and isinstance(operand.value, float)
                        and operand.value in _UNIT_FACTORS):
                    self.violations.append((
                        RULE_RAW_UNIT_LITERAL,
                        f"raw conversion factor {operand.value:g}; use the "
                        f"repro.units helper ({_UNIT_FACTORS[operand.value]})",
                        operand.lineno,
                    ))
        self.generic_visit(node)

    # -- RPR404: exceptions outside the ReproError hierarchy ------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_bases[node.name] = {
            base for base in (_call_name(b) for b in node.bases) if base
        }
        self.generic_visit(node)

    def visit_Raise(self, node: ast.Raise) -> None:
        exc_name = None
        if isinstance(node.exc, ast.Call):
            exc_name = _call_name(node.exc.func)
        elif node.exc is not None:
            exc_name = _call_name(node.exc)
        if exc_name and self._is_foreign(exc_name):
            self.violations.append((
                RULE_FOREIGN_EXCEPTION,
                f"raises {exc_name}, which is outside the ReproError "
                f"hierarchy; library callers cannot catch it as a repro error",
                node.lineno,
            ))
        self.generic_visit(node)

    def _is_foreign(self, name: str) -> bool:
        allowed = self._allowed_raises
        seen: Set[str] = set()
        frontier = {name}
        while frontier:
            current = frontier.pop()
            if current in allowed:
                return False
            if current in seen:
                continue
            seen.add(current)
            frontier.update(self._class_bases.get(current, set()))
        # Only names we can positively identify as builtin exceptions are
        # flagged; unresolved names are given the benefit of the doubt.
        return name in _BUILTIN_EXCEPTIONS

    # -- RPR405: mutable default arguments ------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def _check_defaults(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_literal(default):
                self.violations.append((
                    RULE_MUTABLE_DEFAULT,
                    f"function {node.name!r} has a mutable default argument; "
                    f"default to None and construct inside the body",
                    default.lineno,
                ))


def _call_name(node: ast.expr) -> Optional[str]:
    """Trailing identifier of a Name/Attribute expression, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and not node.args and not node.keywords:
        return _call_name(node.func) in {"list", "dict", "set"}
    return False
