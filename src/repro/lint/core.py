"""Rule and finding primitives of the static-analysis engine.

A :class:`Rule` is a stable, documented invariant with an ``RPRxxx`` code;
a :class:`Finding` is one concrete violation of a rule, possibly
*suppressed* (acknowledged with a justification rather than fixed).  The
:class:`RuleRegistry` maps codes to rules and groups the check functions
into the analyzer passes (``circuit``, ``technology``, ``config``,
``codebase``, the interprocedural ``units`` / ``rng`` / ``concurrency``
passes, and the ``artifacts`` durability pass) the engine runs.

Check functions take a :class:`repro.lint.context.LintContext` and yield
findings; one check may report for several related rules (the AST pass
does), so checks are listed per *pass*, not per rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Dict, Iterable, Iterator, Mapping, Optional, Tuple

from ..errors import DiagnosticSeverity, LintError

#: The analyzer passes, in the order the engine runs them.
PASS_NAMES: Tuple[str, ...] = (
    "circuit", "technology", "config", "codebase", "units", "rng",
    "artifacts", "concurrency", "perf",
)


@dataclass(frozen=True)
class Rule:
    """One registered static-analysis invariant.

    Attributes
    ----------
    code:
        Stable identifier, ``RPR`` + three digits; the hundreds digit is
        the pass (1 circuit, 2 technology, 3 config, 4 codebase,
        5 units, 6 rng, 7 artifacts, 8 concurrency, 9 perf).
    name:
        Short kebab-case slug (kept stable too — :func:`lint_circuit`
        compatibility and suppression pragmas rely on it).
    severity:
        Default severity of findings for this rule.
    summary:
        One-line rationale, rendered into ``docs/static_analysis.md``.
    pass_name:
        Which analyzer pass emits this rule.
    """

    code: str
    name: str
    severity: DiagnosticSeverity
    summary: str
    pass_name: str

    def __post_init__(self) -> None:
        if not (len(self.code) == 6 and self.code.startswith("RPR")
                and self.code[3:].isdigit()):
            raise LintError(f"rule code must look like RPR123, got {self.code!r}")
        if self.pass_name not in PASS_NAMES:
            raise LintError(
                f"{self.code}: unknown pass {self.pass_name!r}; "
                f"expected one of {PASS_NAMES}"
            )

    def finding(
        self,
        message: str,
        location: Optional[str] = None,
        suppressed: bool = False,
        justification: Optional[str] = None,
        weight: float = 0.0,
    ) -> "Finding":
        """Create a finding for this rule."""
        return Finding(
            rule=self,
            message=message,
            location=location,
            suppressed=suppressed,
            justification=justification,
            weight=weight,
        )


@dataclass(frozen=True)
class Finding:
    """One concrete rule violation.

    ``suppressed`` findings were acknowledged at the violation site (an
    inline ``# lint: ignore[CODE]`` pragma); they are still reported but
    never affect the exit code.

    ``weight`` ranks findings of equal severity (higher first): the perf
    pass sets it to the measured seconds a ``--profile`` trace attributes
    to the finding's enclosing hot path.  It is presentation metadata —
    deliberately excluded from baseline fingerprints, so reprofiling
    never resurrects acknowledged findings.
    """

    rule: Rule
    message: str
    location: Optional[str] = None
    suppressed: bool = False
    justification: Optional[str] = None
    weight: float = 0.0

    @property
    def code(self) -> str:
        """The rule's stable ``RPRxxx`` code."""
        return self.rule.code

    @property
    def name(self) -> str:
        """The rule's kebab-case slug."""
        return self.rule.name

    @property
    def severity(self) -> DiagnosticSeverity:
        """Severity of this finding (the rule's default)."""
        return self.rule.severity

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable representation (used by the JSON reporter)."""
        return {
            "code": self.code,
            "name": self.name,
            "severity": self.severity.value,
            "pass": self.rule.pass_name,
            "message": self.message,
            "location": self.location,
            "suppressed": self.suppressed,
            "justification": self.justification,
            "weight": self.weight,
        }


#: Signature of a check function: context in, findings out.
CheckFunction = Callable[["object"], Iterable[Finding]]


class RuleRegistry:
    """An immutable table: rules by code, check functions by pass.

    Built once from explicit ``rules`` and ``checks``; the table every
    lint run uses is :data:`repro.lint.engine.REGISTRY`.  Construction
    rejects duplicate codes, duplicate names, and unknown pass names.
    """

    def __init__(
        self,
        rules: Iterable[Rule] = (),
        checks: Optional[Mapping[str, Iterable[CheckFunction]]] = None,
    ) -> None:
        by_code: Dict[str, Rule] = {}
        names = set()
        for rule in rules:
            if rule.code in by_code:
                raise LintError(f"duplicate rule code {rule.code}")
            if rule.name in names:
                raise LintError(f"duplicate rule name {rule.name!r}")
            by_code[rule.code] = rule
            names.add(rule.name)
        by_pass: Dict[str, Tuple[CheckFunction, ...]] = {}
        for pass_name, fns in (checks or {}).items():
            if pass_name not in PASS_NAMES:
                raise LintError(f"unknown pass {pass_name!r}")
            by_pass[pass_name] = tuple(fns)
        self._rules: Mapping[str, Rule] = MappingProxyType(by_code)
        self._checks: Mapping[str, Tuple[CheckFunction, ...]] = (
            MappingProxyType(by_pass)
        )

    def rule(self, code: str) -> Rule:
        """Look up a rule by ``RPRxxx`` code (raises :class:`LintError`)."""
        try:
            return self._rules[code]
        except KeyError:
            known = ", ".join(sorted(self._rules))
            raise LintError(f"unknown rule {code!r}; registered: {known}") from None

    def rules(self, pass_name: Optional[str] = None) -> Tuple[Rule, ...]:
        """All rules (of one pass, if given), sorted by code."""
        selected = [
            r for r in self._rules.values()
            if pass_name is None or r.pass_name == pass_name
        ]
        return tuple(sorted(selected, key=lambda r: r.code))

    def checks(self, pass_name: str) -> Tuple[CheckFunction, ...]:
        """Check functions listed for a pass, in run order."""
        return self._checks.get(pass_name, ())

    def codes(self) -> Tuple[str, ...]:
        """All registered rule codes, sorted."""
        return tuple(sorted(self._rules))

    def validate_codes(self, codes: Iterable[str]) -> Tuple[str, ...]:
        """Normalize a code collection, rejecting unknown entries."""
        out = []
        for code in codes:
            self.rule(code)  # raises on unknown
            out.append(code)
        return tuple(out)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules())
