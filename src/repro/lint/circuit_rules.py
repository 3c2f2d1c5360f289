"""Circuit-structure lint (RPR1xx).

Generalizes the original ad-hoc :func:`repro.circuit.validate.lint_circuit`
checks (unused inputs, dangling gates, duplicate pins, fanout pathologies)
and adds the two structural pathologies the statistical analyses are
sensitive to:

* **shallow reconvergent fanout** (RPR105) — the signal-probability and
  leakage-state weighting assume independent gate inputs; a net that forks
  and re-merges within a few levels violates that locally and hardest;
* **trivially-constant cones** (RPR106) — XOR/XNOR gates with all pins
  tied to one net compute a constant, so their entire transitive fanout
  cone is dead logic that silently dilutes leakage/delay statistics.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set

from ..circuit.netlist import Circuit
from ..errors import DiagnosticSeverity
from ..tech.library import CellFunction, evaluate_function
from .context import LintContext
from .core import Finding, Rule

RULE_UNUSED_INPUT = Rule(
    code="RPR101",
    name="unused-input",
    severity=DiagnosticSeverity.WARNING,
    summary="A primary input drives no gate — dead port or mis-parsed netlist.",
    pass_name="circuit",
)

RULE_DANGLING_GATE = Rule(
    code="RPR102",
    name="dangling-gate",
    severity=DiagnosticSeverity.WARNING,
    summary="A gate drives neither logic nor a primary output — an undriven "
            "cone that still burns leakage but never affects timing.",
    pass_name="circuit",
)

RULE_DUPLICATE_PIN = Rule(
    code="RPR103",
    name="duplicate-pin",
    severity=DiagnosticSeverity.INFO,
    summary="One net feeds several pins of the same gate; legal, but usually "
            "a netlist-generation slip that degenerates the cell function.",
    pass_name="circuit",
)

RULE_HIGH_FANOUT = Rule(
    code="RPR104",
    name="high-fanout",
    severity=DiagnosticSeverity.WARNING,
    summary="A net drives more pins than any sized repeater tree should; the "
            "RC delay model degrades badly past this point.",
    pass_name="circuit",
)

RULE_RECONVERGENCE = Rule(
    code="RPR105",
    name="shallow-reconvergence",
    severity=DiagnosticSeverity.INFO,
    summary="Fanout branches of one net re-merge within a few levels, which "
            "is where the independence assumption behind signal probabilities "
            "and state-weighted leakage is least accurate.",
    pass_name="circuit",
)

RULE_CONSTANT_CONE = Rule(
    code="RPR106",
    name="constant-cone",
    severity=DiagnosticSeverity.WARNING,
    summary="A gate's output is provably constant (e.g. XOR of a net with "
            "itself), so its whole fanout cone is dead logic skewing the "
            "power and timing statistics.",
    pass_name="circuit",
)


def check_unused_inputs(ctx: LintContext) -> Iterator[Finding]:
    """RPR101: primary inputs with no consumers."""
    circuit = ctx.circuit
    assert circuit is not None
    for pi in circuit.inputs:
        if not circuit.fanout_of(pi):
            yield RULE_UNUSED_INPUT.finding(
                f"primary input {pi!r} drives nothing", location=pi
            )


def check_dangling_gates(ctx: LintContext) -> Iterator[Finding]:
    """RPR102: gates driving neither logic nor a primary output."""
    circuit = ctx.circuit
    assert circuit is not None
    outputs = set(circuit.outputs)
    for gate in circuit.gates():
        if not circuit.fanout_of(gate.name) and gate.name not in outputs:
            yield RULE_DANGLING_GATE.finding(
                f"gate {gate.name!r} drives neither logic nor a primary output",
                location=gate.name,
            )


def check_duplicate_pins(ctx: LintContext) -> Iterator[Finding]:
    """RPR103: one net on several pins of the same gate."""
    circuit = ctx.circuit
    assert circuit is not None
    for gate in circuit.gates():
        if len(set(gate.fanins)) != len(gate.fanins):
            yield RULE_DUPLICATE_PIN.finding(
                f"gate {gate.name!r} connects one net to several pins",
                location=gate.name,
            )


def check_high_fanout(ctx: LintContext) -> Iterator[Finding]:
    """RPR104: nets loaded beyond the ``max_fanout`` threshold."""
    circuit = ctx.circuit
    assert circuit is not None
    limit = ctx.options.max_fanout
    for name in list(circuit.inputs) + [g.name for g in circuit.gates()]:
        fanout = len(circuit.fanout_of(name))
        if fanout > limit:
            yield RULE_HIGH_FANOUT.finding(
                f"net {name!r} drives {fanout} pins (> {limit})", location=name
            )


def check_shallow_reconvergence(ctx: LintContext) -> Iterator[Finding]:
    """RPR105: fanout branches that re-merge within ``reconvergence_depth``."""
    circuit = ctx.circuit
    assert circuit is not None
    depth_limit = ctx.options.reconvergence_depth
    for source in list(circuit.inputs) + [g.name for g in circuit.gates()]:
        branches = sorted(set(circuit.fanout_of(source)))
        if len(branches) < 2:
            continue
        meet = _first_reconvergence(circuit, branches, depth_limit)
        if meet is not None:
            yield RULE_RECONVERGENCE.finding(
                f"fanout of net {source!r} reconverges at gate {meet!r} "
                f"within {depth_limit} levels",
                location=source,
            )


def _first_reconvergence(
    circuit: Circuit, branches: List[str], depth_limit: int
) -> str | None:
    """First gate (in topological order) reached via >= 2 distinct branches.

    Breadth-first from each immediate consumer, bounded to ``depth_limit``
    levels past the fork; a gate collecting two branch ids is a
    reconvergence point.
    """
    reached_via: Dict[str, Set[int]] = {}
    frontier: Dict[str, Set[int]] = {}
    for idx, gate_name in enumerate(branches):
        frontier.setdefault(gate_name, set()).add(idx)
    for _ in range(depth_limit):
        meets = [
            name for name, ids in frontier.items()
            if len(ids | reached_via.get(name, set())) >= 2
        ]
        if meets:
            return min(meets, key=circuit.gate_index)
        next_frontier: Dict[str, Set[int]] = {}
        for name, ids in frontier.items():
            known = reached_via.setdefault(name, set())
            new_ids = ids - known
            if not new_ids:
                continue
            known |= new_ids
            for consumer in set(circuit.fanout_of(name)):
                next_frontier.setdefault(consumer, set()).update(new_ids)
        if not next_frontier:
            return None
        frontier = next_frontier
    return None


def check_constant_cones(ctx: LintContext) -> Iterator[Finding]:
    """RPR106: gates whose output value is independent of every input.

    Constants are seeded by parity cells fed one net on every pin
    (``XOR(a, a) = 0``, ``XNOR(a, a) = 1``) and propagated forward in
    topological order: a gate seeing a *controlling* constant (0 on an
    AND/NAND pin, 1 on an OR/NOR pin) or only constant fanins is constant
    itself.
    """
    circuit = ctx.circuit
    assert circuit is not None
    constants: Dict[str, bool] = {}
    for name in circuit.topological_order():
        gate = circuit.gate(name)
        function = circuit.cell_of(gate).function
        value = _constant_output(function, gate.fanins, constants)
        if value is None:
            continue
        constants[name] = value
        yield RULE_CONSTANT_CONE.finding(
            f"gate {name!r} ({gate.cell_name}) always outputs "
            f"{int(value)}; its fanout cone is dead logic",
            location=name,
        )


def _constant_output(
    function: CellFunction,
    fanins: tuple,
    constants: Dict[str, bool],
) -> bool | None:
    """The gate's constant output value, or None if it can still toggle."""
    known = [constants.get(f) for f in fanins]
    if all(v is not None for v in known):
        return evaluate_function(function, [bool(v) for v in known])
    # Controlling constants decide the output regardless of other pins.
    if function in (CellFunction.AND, CellFunction.NAND) and False in known:
        return function is CellFunction.NAND
    if function in (CellFunction.OR, CellFunction.NOR) and True in known:
        return function is CellFunction.OR
    # Parity algebra: XOR is constant iff every live pin carries the same
    # net an even number of times (x ^ x = 0); constant pins fold in as a
    # fixed parity offset.
    if function in (CellFunction.XOR, CellFunction.XNOR):
        live_pins = [f for f, v in zip(fanins, known) if v is None]
        if live_pins and len(set(live_pins)) == 1 and len(live_pins) % 2 == 0:
            ones = sum(1 for v in known if v is True)
            parity = ones % 2 == 1
            return parity if function is CellFunction.XOR else not parity
    return None
