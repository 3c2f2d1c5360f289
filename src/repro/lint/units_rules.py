"""Interprocedural units-propagation pass (RPR5xx).

The library's contract is *strict SI internally, named helpers at the
boundary* (:mod:`repro.units`).  This pass abstractly interprets every
function over the unit lattice (:mod:`repro.lint.analysis.unitlattice`):
parameters and variables pick up units from the ``*_ps``/``*_nw`` naming
convention and from ``repro.units`` helper calls, assignments and
arithmetic propagate them, and calls into the package itself propagate
each callee's *return-unit summary* — computed to a fixpoint over the
whole program first, which is what makes the pass interprocedural: a
function returning ``to_ps(...)`` taints its callers' expressions with
``time[ps]`` even three modules away.

Three rules fire on provable violations only (UNKNOWN and dimensionless
operands always get the benefit of the doubt):

* **RPR501** — ``+``/``-``/comparison between different concrete units;
* **RPR502** — double conversion (a converted value converted again);
* **RPR503** — a function whose name promises a unit (``*_ps``,
  ``*_nw``, …) but whose inferred return unit disagrees.

``units.py`` itself is exempt (it *defines* the conversions).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import DiagnosticSeverity
from .analysis.modules import ModuleInfo
from .analysis.symbols import FunctionInfo, PackageSymbols
from .analysis.unitlattice import (
    DIMENSIONLESS,
    INTO_SI,
    OUT_OF_SI,
    UNKNOWN,
    Unit,
    join,
    mixable,
    unit_from_name,
)
from .context import LintContext
from .core import Finding, Rule

RULE_UNIT_MIXING = Rule(
    code="RPR501",
    name="unit-mixing",
    severity=DiagnosticSeverity.ERROR,
    summary="Adding, subtracting, or comparing quantities of different "
            "units (time[ps] vs time[SI], power vs time) silently corrupts "
            "every leakage/delay number downstream.",
    pass_name="units",
)

RULE_DOUBLE_CONVERSION = Rule(
    code="RPR502",
    name="double-conversion",
    severity=DiagnosticSeverity.WARNING,
    summary="A repro.units conversion applied to an already-converted "
            "quantity (to_ps(to_ps(x)), ps(x_si)) is off by twelve orders "
            "of magnitude, not a no-op.",
    pass_name="units",
)

RULE_UNIT_NAME_MISMATCH = Rule(
    code="RPR503",
    name="unit-name-mismatch",
    severity=DiagnosticSeverity.WARNING,
    summary="A function named *_ps/*_nw/... promises that unit, but its "
            "inferred return unit disagrees — callers trust the name.",
    pass_name="units",
)

#: Builtins that preserve the unit of their (joined) arguments.
_UNIT_PRESERVING_CALLS = {"abs", "min", "max", "float", "sum"}

#: Fixpoint cap for return-unit summaries (recursion depth insurance; the
#: lattice has height 2, so honest convergence takes 2-3 rounds).
_MAX_SUMMARY_ROUNDS = 8

Violation = Tuple[Rule, str, int]


def scan_units(ctx: LintContext) -> Iterator[Finding]:
    """Run the units-propagation analysis over the indexed source tree."""
    program = ctx.whole_program()
    index = program.index
    symbols = program.symbols
    summaries = _return_unit_summaries(symbols)
    for info in index.select(ctx.options.paths):
        if info.path.name == "units.py":
            continue
        violations = _check_module(info, symbols, summaries)
        for rule, message, line in sorted(violations, key=lambda v: v[2]):
            suppression = info.suppression_for(line, rule.code)
            yield rule.finding(
                message,
                location=f"{info.rel}:{line}",
                suppressed=suppression is not None,
                justification=suppression,
            )


# ---------------------------------------------------------------------------
# Interprocedural summaries
# ---------------------------------------------------------------------------


def _return_unit_summaries(symbols: PackageSymbols) -> Dict[str, Unit]:
    """Fixpoint of every function's inferred return unit.

    Starts all-UNKNOWN and re-evaluates until stable, so call chains of
    any depth converge (``a() -> b() -> to_ps(...)`` gives both ``a``
    and ``b`` a ``time[ps]`` summary).
    """
    summaries: Dict[str, Unit] = {
        fn.qualname: UNKNOWN for fn in symbols.iter_functions()
    }
    for _ in range(_MAX_SUMMARY_ROUNDS):
        changed = False
        for fn in symbols.iter_functions():
            if fn.module.path.name == "units.py":
                inferred = _units_module_summary(fn)
            else:
                evaluator = _UnitEvaluator(
                    symbols, fn.module, summaries, fn.class_name, report=False
                )
                inferred = evaluator.run_function(fn)
            if inferred != summaries[fn.qualname]:
                summaries[fn.qualname] = inferred
                changed = True
        if not changed:
            break
    return summaries


def _units_module_summary(fn: FunctionInfo) -> Unit:
    """Trusted summaries for the conversion helpers themselves."""
    if fn.name in INTO_SI:
        return INTO_SI[fn.name]
    if fn.name in OUT_OF_SI:
        return OUT_OF_SI[fn.name][1]
    return UNKNOWN


def _check_module(
    info: ModuleInfo,
    symbols: PackageSymbols,
    summaries: Dict[str, Unit],
) -> List[Violation]:
    """All RPR5xx violations of one module (functions + top level)."""
    violations: List[Violation] = []
    # Top-level statements, with defs excluded (checked per function).
    toplevel = _UnitEvaluator(symbols, info, summaries, None, report=True)
    for stmt in info.tree.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            toplevel.exec_stmt(stmt)
    violations.extend(toplevel.violations)
    for fn in symbols.iter_functions():
        if fn.module is not info:
            continue
        evaluator = _UnitEvaluator(
            symbols, info, summaries, fn.class_name, report=True
        )
        inferred = evaluator.run_function(fn)
        violations.extend(evaluator.violations)
        promised = unit_from_name(fn.name)
        if (promised is not None and inferred.is_concrete
                and inferred != promised):
            violations.append((
                RULE_UNIT_NAME_MISMATCH,
                f"function {fn.name!r} promises {promised} by name but "
                f"returns {inferred}",
                fn.line,
            ))
    return violations


# ---------------------------------------------------------------------------
# The abstract interpreter
# ---------------------------------------------------------------------------


class _UnitEvaluator:
    """One environment's walk over statements and expressions.

    Flow-sensitivity is deliberately coarse: statements run in source
    order, branch bodies share the evolving environment, and merges
    never *sharpen* a unit — combined with "flag provable clashes only",
    that keeps the pass quiet on correct code.
    """

    def __init__(
        self,
        symbols: PackageSymbols,
        module: ModuleInfo,
        summaries: Dict[str, Unit],
        class_name: Optional[str],
        report: bool,
    ) -> None:
        self.symbols = symbols
        self.module = module
        self.summaries = summaries
        self.class_name = class_name
        self.report = report
        self.env: Dict[str, Unit] = {}
        self.violations: List[Violation] = []
        self._returns: List[Unit] = []

    # -- entry points -------------------------------------------------------

    def run_function(self, fn: FunctionInfo) -> Unit:
        """Interpret a function body; returns the joined return unit."""
        self.env = {}
        self._returns = []
        for param in fn.params:
            unit = unit_from_name(param)
            if unit is not None:
                self.env[param] = unit
        for stmt in fn.node.body:
            self.exec_stmt(stmt)
        if not self._returns:
            return UNKNOWN
        result = self._returns[0]
        for unit in self._returns[1:]:
            result = join(result, unit)
        return result

    # -- statements ---------------------------------------------------------

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            unit = self.eval(stmt.value)
            for target in stmt.targets:
                self._bind(target, unit)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._bind(stmt.target, self.eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            unit = self.eval(stmt.value)
            if isinstance(stmt.op, (ast.Add, ast.Sub)) and isinstance(
                stmt.target, ast.Name
            ):
                current = self.env.get(stmt.target.id, UNKNOWN)
                self._check_mix(current, unit, stmt.lineno, "augmented assignment")
                self.env[stmt.target.id] = join(current, unit)
        elif isinstance(stmt, ast.Return):
            unit = self.eval(stmt.value) if stmt.value is not None else UNKNOWN
            self._returns.append(unit)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, (ast.If,)):
            self.eval(stmt.test)
            for child in [*stmt.body, *stmt.orelse]:
                self.exec_stmt(child)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.eval(stmt.iter)
            self._bind(stmt.target, UNKNOWN)
            for child in [*stmt.body, *stmt.orelse]:
                self.exec_stmt(child)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test)
            for child in [*stmt.body, *stmt.orelse]:
                self.exec_stmt(child)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.eval(item.context_expr)
            for child in stmt.body:
                self.exec_stmt(child)
        elif isinstance(stmt, ast.Try):
            for child in [*stmt.body, *stmt.orelse, *stmt.finalbody]:
                self.exec_stmt(child)
            for handler in stmt.handlers:
                for child in handler.body:
                    self.exec_stmt(child)
        # Function/class definitions and everything else: no unit flow.

    def _bind(self, target: ast.expr, unit: Unit) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = unit
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, UNKNOWN)

    # -- expressions --------------------------------------------------------

    def eval(self, node: ast.expr) -> Unit:
        """Abstract unit of an expression (recording violations en route)."""
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            return unit_from_name(node.id) or UNKNOWN
        if isinstance(node, ast.Attribute):
            self.eval(node.value)
            return unit_from_name(node.attr) or UNKNOWN
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)) and not isinstance(
                node.value, bool
            ):
                return DIMENSIONLESS
            return UNKNOWN
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node)
        if isinstance(node, ast.Compare):
            return self._eval_compare(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return join(self.eval(node.body), self.eval(node.orelse))
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self.eval(value)
            return UNKNOWN
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for element in node.elts:
                self.eval(element)
            return UNKNOWN
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        return UNKNOWN

    def _eval_binop(self, node: ast.BinOp) -> Unit:
        left = self.eval(node.left)
        right = self.eval(node.right)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            self._check_mix(left, right, node.lineno, "arithmetic")
            if left == right:
                return left
            if left.is_concrete and not right.is_concrete:
                return left
            if right.is_concrete and not left.is_concrete:
                return right
            return UNKNOWN
        if isinstance(node.op, ast.Mult):
            if left.is_concrete and right is DIMENSIONLESS:
                return left
            if right.is_concrete and left is DIMENSIONLESS:
                return right
            return UNKNOWN
        if isinstance(node.op, ast.Div):
            if left.is_concrete and right is DIMENSIONLESS:
                return left
            if left.is_concrete and left == right:
                return DIMENSIONLESS
            return UNKNOWN
        return UNKNOWN

    def _eval_compare(self, node: ast.Compare) -> Unit:
        operands = [self.eval(node.left)]
        operands += [self.eval(comp) for comp in node.comparators]
        for index, op in enumerate(node.ops):
            if isinstance(op, (ast.Eq, ast.NotEq, ast.Lt, ast.LtE,
                               ast.Gt, ast.GtE)):
                self._check_mix(
                    operands[index], operands[index + 1],
                    node.lineno, "comparison",
                )
        return DIMENSIONLESS

    def _eval_call(self, node: ast.Call) -> Unit:
        helper = self._units_helper(node.func)
        if helper is not None and len(node.args) == 1 and not node.keywords:
            return self._eval_conversion(helper, node)
        arg_units = [self.eval(arg) for arg in node.args]
        for keyword in node.keywords:
            self.eval(keyword.value)
        name = node.func.id if isinstance(node.func, ast.Name) else None
        if name in _UNIT_PRESERVING_CALLS and arg_units:
            result = arg_units[0]
            for unit in arg_units[1:]:
                result = join(result, unit)
            return result
        qual = self.symbols.resolve_call(self.module, node.func, self.class_name)
        if qual is not None:
            return self.summaries.get(qual, UNKNOWN)
        return UNKNOWN

    def _eval_conversion(self, helper: str, node: ast.Call) -> Unit:
        arg_unit = self.eval(node.args[0])
        line = node.lineno
        if helper in INTO_SI:
            result = INTO_SI[helper]
            if arg_unit.is_concrete:
                self._record(
                    RULE_DOUBLE_CONVERSION,
                    f"{helper}() converts a plain number into SI, but its "
                    f"argument already carries {arg_unit}",
                    line,
                )
            return result
        expected, result = OUT_OF_SI[helper]
        if arg_unit.is_concrete and arg_unit != expected:
            if arg_unit.dimension == expected.dimension:
                self._record(
                    RULE_DOUBLE_CONVERSION,
                    f"{helper}() expects {expected} but its argument is "
                    f"already {arg_unit} — converted twice",
                    line,
                )
            else:
                self._record(
                    RULE_UNIT_MIXING,
                    f"{helper}() expects {expected}, got {arg_unit}",
                    line,
                )
        return result

    def _units_helper(self, func: ast.expr) -> Optional[str]:
        """Name of the ``repro.units`` helper a call targets, if any."""
        dotted = self.symbols.resolve_name(self.module, func)
        if dotted is None:
            return None
        parts = dotted.split(".")
        name = parts[-1]
        if name not in INTO_SI and name not in OUT_OF_SI:
            return None
        if len(parts) == 1 or parts[-2] == "units":
            return name
        return None

    def _check_mix(self, a: Unit, b: Unit, line: int, where: str) -> None:
        if not mixable(a, b):
            self._record(
                RULE_UNIT_MIXING,
                f"{where} mixes {a} with {b}",
                line,
            )

    def _record(self, rule: Rule, message: str, line: int) -> None:
        if self.report:
            self.violations.append((rule, message, line))
