"""The multi-pass lint engine and its report object.

The engine is deliberately dumb: it asks the registry for the checks of
every runnable pass (a pass runs when the context carries its subject),
executes them in order, and folds the findings into a :class:`LintReport`.
All intelligence lives in the rules; all policy (what fails a build) lives
in :meth:`LintReport.exit_code`.  The rule modules only declare their
rules and check functions; :data:`REGISTRY` below is the one table that
wires them into passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from ..errors import DiagnosticSeverity, LintError
from . import (
    artifact_rules,
    circuit_rules,
    codebase,
    concurrency_rules,
    config_rules,
    perf_rules,
    rng_rules,
    service_rules,
    tech_rules,
    units_rules,
)
from .context import LintContext
from .core import PASS_NAMES, Finding, RuleRegistry

#: The rule table: every rule, and each pass's check functions in the
#: order the engine runs them.  A new rule or check is added here.
REGISTRY = RuleRegistry(
    rules=(
        circuit_rules.RULE_UNUSED_INPUT,
        circuit_rules.RULE_DANGLING_GATE,
        circuit_rules.RULE_DUPLICATE_PIN,
        circuit_rules.RULE_HIGH_FANOUT,
        circuit_rules.RULE_RECONVERGENCE,
        circuit_rules.RULE_CONSTANT_CONE,
        tech_rules.RULE_VTH_ORDERING,
        tech_rules.RULE_LEAKAGE_ORDERING,
        tech_rules.RULE_LEAKAGE_SIZE_MONOTONE,
        tech_rules.RULE_DELAY_LOAD_MONOTONE,
        tech_rules.RULE_DELAY_VTH_ORDERING,
        tech_rules.RULE_TECH_BOUNDS,
        tech_rules.RULE_FO4_BAND,
        config_rules.RULE_YIELD_BAND,
        config_rules.RULE_CONFIDENCE_MISMATCH,
        config_rules.RULE_DEGENERATE_CHUNKING,
        config_rules.RULE_SIGMA_FIRST_ORDER,
        config_rules.RULE_LBIAS_GRID,
        config_rules.RULE_ANNEAL_SCHEDULE,
        config_rules.RULE_INFEASIBLE_TARGET,
        codebase.RULE_UNSEEDED_RNG,
        codebase.RULE_FLOAT_EQUALITY,
        codebase.RULE_RAW_UNIT_LITERAL,
        codebase.RULE_FOREIGN_EXCEPTION,
        codebase.RULE_MUTABLE_DEFAULT,
        units_rules.RULE_UNIT_MIXING,
        units_rules.RULE_DOUBLE_CONVERSION,
        units_rules.RULE_UNIT_NAME_MISMATCH,
        rng_rules.RULE_TAINT_PATH,
        rng_rules.RULE_MODULE_LEVEL_RNG,
        rng_rules.RULE_SET_ORDER,
        rng_rules.RULE_ID_BASED_KEY,
        artifact_rules.RULE_RAW_ARTIFACT_WRITE,
        artifact_rules.RULE_WALL_CLOCK_DURATION,
        service_rules.RULE_GLOBAL_SESSION_ACCESS,
        concurrency_rules.RULE_GLOBAL_WRITE,
        concurrency_rules.RULE_SINGLETON_MUTATION,
        concurrency_rules.RULE_CLASS_SHARED_CACHE,
        concurrency_rules.RULE_UNPICKLABLE_SUBMIT,
        concurrency_rules.RULE_FORK_INHERITED_HANDLE,
        concurrency_rules.RULE_POST_FORK_GLOBAL_READ,
        perf_rules.RULE_SCALAR_HOT_LOOP,
        perf_rules.RULE_ALLOC_IN_HOT_LOOP,
        perf_rules.RULE_LOOP_INVARIANT_CHAIN,
        perf_rules.RULE_ELEMENTWISE_INDEX,
        perf_rules.RULE_QUADRATIC_MEMBERSHIP,
        perf_rules.RULE_UNORDERED_ACCUMULATION,
    ),
    checks={
        "circuit": (
            circuit_rules.check_unused_inputs,
            circuit_rules.check_dangling_gates,
            circuit_rules.check_duplicate_pins,
            circuit_rules.check_high_fanout,
            circuit_rules.check_shallow_reconvergence,
            circuit_rules.check_constant_cones,
        ),
        "technology": (
            tech_rules.check_vth_ordering,
            tech_rules.check_leakage_ordering,
            tech_rules.check_leakage_size_monotone,
            tech_rules.check_delay_load_monotone,
            tech_rules.check_delay_vth_ordering,
            tech_rules.check_tech_bounds,
            tech_rules.check_fo4_band,
        ),
        "config": (
            config_rules.check_yield_band,
            config_rules.check_confidence_mismatch,
            config_rules.check_degenerate_chunking,
            config_rules.check_sigma_first_order,
            config_rules.check_lbias_grid,
            config_rules.check_anneal_schedule,
            config_rules.check_infeasible_target,
        ),
        "codebase": (codebase.scan_codebase,),
        "units": (units_rules.scan_units,),
        "rng": (rng_rules.scan_rng,),
        "artifacts": (
            artifact_rules.scan_artifact_writes,
            artifact_rules.scan_wall_clock_reads,
            service_rules.scan_global_session_access,
        ),
        "concurrency": (concurrency_rules.scan_concurrency,),
        "perf": (perf_rules.scan_perf,),
    },
)


@dataclass(frozen=True)
class LintReport:
    """Outcome of one engine run.

    ``findings`` contains *everything* the rules emitted, including
    suppressed findings; :meth:`active` filters to the ones that count.
    """

    findings: Tuple[Finding, ...]
    passes: Tuple[str, ...]

    def active(self) -> Tuple[Finding, ...]:
        """Unsuppressed findings (the ones that can fail a build)."""
        return tuple(f for f in self.findings if not f.suppressed)

    def by_severity(self, severity: DiagnosticSeverity) -> Tuple[Finding, ...]:
        """Active findings at exactly the given severity."""
        return tuple(f for f in self.active() if f.severity is severity)

    @property
    def n_errors(self) -> int:
        """Count of active error findings."""
        return len(self.by_severity(DiagnosticSeverity.ERROR))

    @property
    def n_warnings(self) -> int:
        """Count of active warning findings."""
        return len(self.by_severity(DiagnosticSeverity.WARNING))

    @property
    def n_info(self) -> int:
        """Count of active info findings."""
        return len(self.by_severity(DiagnosticSeverity.INFO))

    @property
    def n_suppressed(self) -> int:
        """Count of suppressed findings."""
        return len(self.findings) - len(self.active())

    def worst(self) -> Optional[DiagnosticSeverity]:
        """Highest severity among active findings, or None when clean."""
        active = self.active()
        if not active:
            return None
        return max((f.severity for f in active), key=lambda s: s.rank)

    def counts(self) -> Dict[str, int]:
        """Summary counts (the JSON reporter's ``summary`` block)."""
        return {
            "errors": self.n_errors,
            "warnings": self.n_warnings,
            "info": self.n_info,
            "suppressed": self.n_suppressed,
        }

    def exit_code(self, strict: bool = False) -> int:
        """Process exit code: 1 on errors (or, with ``strict``, warnings)."""
        if self.n_errors:
            return 1
        if strict and self.n_warnings:
            return 1
        return 0


def select_passes(
    ctx: LintContext, passes: Optional[Sequence[str]] = None
) -> Tuple[str, ...]:
    """The passes a run over ``ctx`` executes, in engine order.

    Asking for a pass whose subject is missing from the context raises
    :class:`LintError` (a silent skip would read as a clean bill of
    health the engine never issued).
    """
    available = ctx.available_passes()
    if passes is None:
        return available
    for name in passes:
        if name not in PASS_NAMES:
            raise LintError(f"unknown pass {name!r}; expected {PASS_NAMES}")
        if name not in available:
            raise LintError(
                f"pass {name!r} requested but its subject is missing "
                f"from the context (available: {available or 'none'})"
            )
    return tuple(n for n in PASS_NAMES if n in passes)


class LintEngine:
    """Runs registry passes over a context."""

    def __init__(self, registry: RuleRegistry) -> None:
        self.registry = registry

    def run(
        self,
        ctx: LintContext,
        passes: Optional[Sequence[str]] = None,
    ) -> LintReport:
        """Execute the runnable passes and collect a report.

        ``passes`` restricts the run; asking for a pass whose subject is
        missing from the context raises :class:`LintError` (a silent skip
        would read as a clean bill of health the engine never issued).
        """
        selected = select_passes(ctx, passes)
        ignored = self.registry.validate_codes(ctx.options.ignore)
        findings = []
        for pass_name in selected:
            for check in self.registry.checks(pass_name):
                for finding in check(ctx):
                    if finding.code not in ignored:
                        findings.append(finding)
        findings.sort(key=_finding_order)
        return LintReport(findings=tuple(findings), passes=tuple(selected))


def _finding_order(finding: Finding) -> Tuple[int, float, str, str, str, bool]:
    # A *total* order: ties break on content, never on the order the
    # checks emitted them, so a report does not depend on check order.
    # Profiled weight ranks within a severity (heavier first); unprofiled
    # findings all carry 0.0 and sort by code, location, then message.
    return (
        -finding.severity.rank,
        -finding.weight,
        finding.code,
        finding.location or "",
        finding.message,
        finding.suppressed,
    )


def run_lint(
    ctx: LintContext, passes: Optional[Iterable[str]] = None
) -> LintReport:
    """Convenience wrapper: run the default registry over a context."""
    return LintEngine(REGISTRY).run(ctx, passes=tuple(passes) if passes is not None else None)
