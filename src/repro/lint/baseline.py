"""Baseline files: freeze pre-existing findings, fail only on regressions.

Adopting a new analysis pass on a living codebase usually surfaces
findings nobody can fix in the adopting PR.  A *baseline* records their
fingerprints (``repro lint --self --write-baseline``); subsequent runs
with ``--baseline`` treat exactly those findings as acknowledged — they
are reported (like inline suppressions) but never fail the build, while
any *new* finding still does.

Fingerprints are ``code::file::message`` — deliberately line-free, so an
unrelated edit that shifts a frozen finding by a few lines does not
resurrect it, while any change to what the finding *says* (or where it
lives) does.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from typing import FrozenSet, List, Optional, Tuple

from ..atomicio import atomic_write_json
from ..errors import LintError
from .core import Finding
from .engine import REGISTRY, LintReport

#: Schema version of the baseline file.
BASELINE_VERSION = 1

#: Justification attached to baselined findings in reports.
BASELINE_JUSTIFICATION = "frozen in baseline"


def fingerprint(finding: Finding) -> str:
    """Stable, line-number-free identity of a finding."""
    location = finding.location or ""
    file_part, _, line_part = location.rpartition(":")
    if file_part and line_part.isdigit():
        location = file_part
    return f"{finding.code}::{location}::{finding.message}"


def write_baseline(report: LintReport, path: Path) -> int:
    """Freeze the report's active findings; returns the entry count."""
    entries = sorted({fingerprint(f) for f in report.active()})
    payload = {"version": BASELINE_VERSION, "entries": entries}
    atomic_write_json(Path(path), payload, indent=2)
    return len(entries)


def load_baseline(path: Path) -> FrozenSet[str]:
    """Read a baseline file back into a fingerprint set."""
    path = Path(path)
    if not path.exists():
        raise LintError(f"baseline file does not exist: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise LintError(f"baseline file {path} is not valid JSON: {err}") from err
    if not isinstance(payload, dict) or "entries" not in payload:
        raise LintError(f"baseline file {path} has no 'entries' list")
    version = payload.get("version")
    if version != BASELINE_VERSION:
        raise LintError(
            f"baseline file {path} has version {version!r}; "
            f"this build reads version {BASELINE_VERSION}"
        )
    entries = payload["entries"]
    if not isinstance(entries, list) or not all(
        isinstance(e, str) for e in entries
    ):
        raise LintError(f"baseline file {path}: 'entries' must be strings")
    return frozenset(entries)


def apply_baseline(report: LintReport, entries: FrozenSet[str]) -> LintReport:
    """Suppress every active finding whose fingerprint is frozen.

    Baselined findings stay visible in every report format (tagged with
    :data:`BASELINE_JUSTIFICATION`) but no longer affect the exit code —
    identical semantics to an inline pragma, applied from the outside.
    """
    findings = tuple(
        replace(f, suppressed=True, justification=BASELINE_JUSTIFICATION)
        if not f.suppressed and fingerprint(f) in entries
        else f
        for f in report.findings
    )
    return LintReport(findings=findings, passes=report.passes)


def dead_entries(
    entries: FrozenSet[str],
    report: LintReport,
    source_root: Optional[Path] = None,
) -> List[Tuple[str, str]]:
    """Baseline entries that no current finding matches, with reasons.

    A dead entry is debt pretending to be acknowledged debt: the finding
    it froze was fixed (or its rule/file disappeared), but the baseline
    still advertises a violation.  ``report`` must come from a run over
    the same tree the baseline was written from; ``source_root`` (the
    linted package directory) sharpens the reason for vanished files.
    Returns ``(entry, reason)`` pairs, sorted by entry.
    """
    current = {fingerprint(f) for f in report.findings}
    known_codes = set(REGISTRY.codes())
    dead: List[Tuple[str, str]] = []
    for entry in sorted(entries):
        parts = entry.split("::", 2)
        if len(parts) != 3:
            dead.append((entry, "malformed fingerprint (want code::file::message)"))
            continue
        code, file_part, _ = parts
        if code not in known_codes:
            dead.append((entry, f"rule {code} is not registered"))
            continue
        if entry in current:
            continue
        if (file_part and source_root is not None
                and not (Path(source_root).parent / file_part).exists()):
            dead.append((entry, f"file {file_part} no longer exists"))
        else:
            dead.append((entry, "no current finding matches"))
    return dead


def prune_baseline(
    path: Path,
    report: LintReport,
    source_root: Optional[Path] = None,
) -> Tuple[int, List[Tuple[str, str]]]:
    """Drop dead entries from a baseline file, atomically.

    Returns ``(kept, removed)`` where ``removed`` is the
    ``(entry, reason)`` list that :func:`dead_entries` reported.  The
    file is rewritten only when something was actually removed.
    """
    entries = load_baseline(path)
    removed = dead_entries(entries, report, source_root)
    if not removed:
        return len(entries), []
    kept = sorted(entries - {entry for entry, _ in removed})
    payload = {"version": BASELINE_VERSION, "entries": kept}
    atomic_write_json(Path(path), payload, indent=2)
    return len(kept), removed
