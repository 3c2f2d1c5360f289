"""Technology / library lint (RPR2xx).

The optimizers only produce meaningful results when the characterized
library satisfies the structural sanity invariants the paper's argument
rests on: the low-Vth flavour must actually leak more (and switch faster)
than the high-Vth flavour, leakage must grow with drive size, and delay
must grow with load.  A library violating any of these still *runs* —
the optimizer just quietly chases a nonsensical trade-off, which is
exactly the failure mode a static pass should front-load.
"""

from __future__ import annotations

import math
from typing import Iterator

from ..errors import DiagnosticSeverity
from ..tech.library import Library
from ..tech.technology import VthClass
from ..units import to_nm, to_ps
from .context import LintContext
from .core import Finding, Rule

RULE_VTH_ORDERING = Rule(
    code="RPR201",
    name="vth-ordering",
    severity=DiagnosticSeverity.ERROR,
    summary="The dual-Vth pair must satisfy 0 < vth_low < vth_high < vdd; "
            "anything else inverts or degenerates the leakage/speed trade-off.",
    pass_name="technology",
)

RULE_LEAKAGE_ORDERING = Rule(
    code="RPR202",
    name="leakage-ordering",
    severity=DiagnosticSeverity.ERROR,
    summary="Every cell's low-Vth leakage must be positive and strictly "
            "above its high-Vth leakage, or Vth reassignment optimizes in "
            "the wrong direction.",
    pass_name="technology",
)

RULE_LEAKAGE_SIZE_MONOTONE = Rule(
    code="RPR203",
    name="leakage-size-monotone",
    severity=DiagnosticSeverity.ERROR,
    summary="Cell leakage must be non-decreasing in drive size; downsizing "
            "is only a leakage-recovery move if wider devices leak more.",
    pass_name="technology",
)

RULE_DELAY_LOAD_MONOTONE = Rule(
    code="RPR204",
    name="delay-load-monotone",
    severity=DiagnosticSeverity.ERROR,
    summary="Cell delay must be non-decreasing in load capacitance at the "
            "nominal corner — the RC model invariant STA sorts arrivals by.",
    pass_name="technology",
)

RULE_DELAY_VTH_ORDERING = Rule(
    code="RPR205",
    name="delay-vth-ordering",
    severity=DiagnosticSeverity.ERROR,
    summary="The high-Vth flavour of every cell must be at least as slow as "
            "the low-Vth flavour; a free high-Vth swap means the model lost "
            "the speed cost that makes the optimization non-trivial.",
    pass_name="technology",
)

RULE_TECH_BOUNDS = Rule(
    code="RPR206",
    name="tech-bounds",
    severity=DiagnosticSeverity.WARNING,
    summary="Technology values outside their physically plausible bands "
            "almost always mean a unit slip (nm passed as meters, C as K).",
    pass_name="technology",
)

RULE_FO4_BAND = Rule(
    code="RPR207",
    name="fo4-band",
    severity=DiagnosticSeverity.WARNING,
    summary="The library's FO4 inverter delay should land between ~1 ps and "
            "~1 ns; outside that band the drive calibration is off by orders "
            "of magnitude.",
    pass_name="technology",
)

#: Load multiples of the unit input capacitance used by the monotonicity probes.
_LOAD_STEPS = (0.0, 1.0, 2.0, 4.0, 8.0)


def check_vth_ordering(ctx: LintContext) -> Iterator[Finding]:
    """RPR201: the dual-Vth pair orders as 0 < low < high < vdd."""
    tech = _tech(ctx)
    if not 0.0 < tech.vth_low < tech.vth_high < tech.vdd:
        yield RULE_VTH_ORDERING.finding(
            f"need 0 < vth_low < vth_high < vdd, got vth_low={tech.vth_low}, "
            f"vth_high={tech.vth_high}, vdd={tech.vdd}",
            location=tech.name,
        )


def check_leakage_ordering(ctx: LintContext) -> Iterator[Finding]:
    """RPR202: positive leakage, strictly higher for the low-Vth flavour."""
    lib = ctx.library
    assert lib is not None
    size = lib.sizes[0]
    for name in lib.cell_names():
        cell = lib.cell(name)
        for vth in VthClass:
            table = cell.leakage_by_state(size, vth)
            if not (table > 0.0).all():
                yield RULE_LEAKAGE_ORDERING.finding(
                    f"cell {name} has non-positive {vth.value}-Vth state "
                    f"leakage (min {table.min():.3e} A)",
                    location=name,
                )
        low = cell.mean_leakage(size, VthClass.LOW)
        high = cell.mean_leakage(size, VthClass.HIGH)
        if not low > high:
            yield RULE_LEAKAGE_ORDERING.finding(
                f"cell {name}: low-Vth leakage ({low:.3e} A) is not above "
                f"high-Vth leakage ({high:.3e} A)",
                location=name,
            )


def check_leakage_size_monotone(ctx: LintContext) -> Iterator[Finding]:
    """RPR203: mean leakage non-decreasing along the size grid."""
    lib = ctx.library
    assert lib is not None
    for name in lib.cell_names():
        cell = lib.cell(name)
        for vth in VthClass:
            leaks = [cell.mean_leakage(s, vth) for s in lib.sizes]
            for prev, cur, s_prev, s_cur in zip(
                leaks, leaks[1:], lib.sizes, lib.sizes[1:]
            ):
                if cur < prev:
                    yield RULE_LEAKAGE_SIZE_MONOTONE.finding(
                        f"cell {name} ({vth.value} Vth): leakage drops from "
                        f"{prev:.3e} A at size {s_prev} to {cur:.3e} A at "
                        f"size {s_cur}",
                        location=name,
                    )
                    break


def check_delay_load_monotone(ctx: LintContext) -> Iterator[Finding]:
    """RPR204: delay non-decreasing in load at the nominal corner."""
    lib = ctx.library
    assert lib is not None
    size = lib.sizes[0]
    for name in lib.cell_names():
        cell = lib.cell(name)
        for vth in VthClass:
            delays = [
                cell.delay(size, step * lib.c_in_unit, vth)
                for step in _LOAD_STEPS
            ]
            if any(b < a for a, b in zip(delays, delays[1:])):
                yield RULE_DELAY_LOAD_MONOTONE.finding(
                    f"cell {name} ({vth.value} Vth): delay is not "
                    f"non-decreasing over loads {_LOAD_STEPS} x c_in",
                    location=name,
                )


def check_delay_vth_ordering(ctx: LintContext) -> Iterator[Finding]:
    """RPR205: the high-Vth flavour is never faster than the low-Vth one."""
    lib = ctx.library
    assert lib is not None
    size = lib.sizes[0]
    load = 4.0 * lib.c_in_unit
    for name in lib.cell_names():
        cell = lib.cell(name)
        d_low = cell.delay(size, load, VthClass.LOW)
        d_high = cell.delay(size, load, VthClass.HIGH)
        if d_high < d_low:
            yield RULE_DELAY_VTH_ORDERING.finding(
                f"cell {name}: high-Vth delay ({to_ps(d_high):.2f} ps) beats "
                f"low-Vth delay ({to_ps(d_low):.2f} ps)",
                location=name,
            )


def check_tech_bounds(ctx: LintContext) -> Iterator[Finding]:
    """RPR206: plausibility bands that catch unit slips."""
    tech = _tech(ctx)
    loc = tech.name

    def out_of(value: float, lo: float, hi: float, what: str, unit: str) -> Finding | None:
        if not lo <= value <= hi:
            return RULE_TECH_BOUNDS.finding(
                f"{what} = {value:g} {unit} outside the plausible band "
                f"[{lo:g}, {hi:g}] {unit} — check units",
                location=loc,
            )
        return None

    checks = [
        out_of(to_nm(tech.lnom), 5.0, 1000.0, "nominal channel length", "nm"),
        out_of(tech.vdd, 0.3, 5.5, "supply voltage", "V"),
        out_of(to_nm(tech.tox), 0.5, 20.0, "oxide thickness", "nm"),
        out_of(tech.temperature, 200.0, 450.0, "operating temperature", "K"),
        out_of(to_nm(tech.wmin), 10.0, 10000.0, "minimum width", "nm"),
        out_of(tech.mobility_n, 1e-3, 1.0, "NMOS mobility", "m^2/Vs"),
        out_of(tech.mobility_p, 1e-3, 1.0, "PMOS mobility", "m^2/Vs"),
    ]
    for finding in checks:
        if finding is not None:
            yield finding

    # A separation below one decade of subthreshold swing makes the dual-Vth
    # knob nearly worthless (< 10x leakage ratio at the device level).
    separation = tech.vth_high - tech.vth_low
    if 0 < separation < tech.subthreshold_swing:
        ratio = math.pow(10.0, separation / tech.subthreshold_swing)
        yield RULE_TECH_BOUNDS.finding(
            f"dual-Vth separation {separation * 1e3:.0f} mV buys only a "
            f"{ratio:.1f}x device leakage ratio (< one decade); the high-Vth "
            f"flavour barely pays for its delay cost",
            location=loc,
        )


def check_fo4_band(ctx: LintContext) -> Iterator[Finding]:
    """RPR207: FO4 delay within the calibration band."""
    lib = ctx.library
    assert lib is not None
    fo4 = lib.fo4_delay()
    lo, hi = ctx.options.fo4_min, ctx.options.fo4_max
    if not lo <= fo4 <= hi:
        yield RULE_FO4_BAND.finding(
            f"FO4 delay {to_ps(fo4):.3f} ps outside the plausible band "
            f"[{to_ps(lo):.1f}, {to_ps(hi):.1f}] ps — drive calibration or "
            f"capacitance units are off",
            location=lib.tech.name,
        )


def _tech(ctx: LintContext):
    lib = ctx.library
    assert lib is not None
    return lib.tech
