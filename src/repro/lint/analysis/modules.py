"""Module loader with cached ASTs — the ground truth every source pass shares.

The codebase (RPR4xx), units (RPR5xx), and rng (RPR6xx) passes all walk
the same ``*.py`` files under the lint root.  A :class:`ModuleIndex`
reads and parses each file exactly once and carries, per module, the
text, the AST, the dotted module name, the report location prefix, and
the inline suppression pragmas — so adding a pass never adds a parse.

The index is built lazily by :meth:`repro.lint.context.LintContext.module_index`
and cached on the context, which is what makes the sharing automatic:
every check reached through one engine run sees the same object.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, Optional, Sequence, Set, Tuple

from ...errors import LintError

#: Inline suppression pragma: ``# lint: ignore[RPR402, RPR501] why``.
PRAGMA = re.compile(
    r"#\s*lint:\s*ignore\[(?P<codes>[A-Z0-9,\s]+)\]\s*(?P<why>.*)$"
)


def collect_pragmas(text: str) -> Dict[int, Tuple[Set[str], str]]:
    """Map line number -> (codes, justification) for inline pragmas."""
    pragmas: Dict[int, Tuple[Set[str], str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = PRAGMA.search(line)
        if match:
            codes = {c.strip() for c in match.group("codes").split(",") if c.strip()}
            pragmas[lineno] = (codes, match.group("why").strip(" -—"))
    return pragmas


@dataclass(frozen=True)
class ModuleInfo:
    """One parsed source file.

    Attributes
    ----------
    name:
        Dotted module name relative to the lint root's parent, e.g.
        ``repro.timing.mc`` (``__init__.py`` maps to its package name).
    path:
        Absolute file path.
    rel:
        Location prefix used in findings, e.g. ``repro/timing/mc.py``.
    text / tree:
        Source text and its (single) parse.
    pragmas:
        Inline suppressions, line -> (codes, justification).
    """

    name: str
    path: Path
    rel: str
    text: str
    tree: ast.Module
    pragmas: Dict[int, Tuple[Set[str], str]] = field(hash=False)

    def suppression_for(self, line: int, code: str) -> Optional[str]:
        """Justification of a pragma covering ``code`` on ``line``, or None."""
        entry = self.pragmas.get(line)
        if entry is None:
            return None
        codes, why = entry
        if code in codes:
            return why or "suppressed without justification"
        return None


class ModuleIndex:
    """All modules under one lint root, parsed once.

    The root is a package directory (``src/repro`` for ``--self`` runs,
    a temp directory in tests); every ``*.py`` below it becomes one
    :class:`ModuleInfo`, keyed by dotted name.
    """

    def __init__(self, root: Path, modules: Dict[str, ModuleInfo]) -> None:
        self.root = root
        self._modules = modules
        self._by_path = {info.path: info for info in modules.values()}

    @classmethod
    def load(cls, root: Path) -> "ModuleIndex":
        """Read and parse every ``*.py`` under ``root`` (exactly once each)."""
        root = Path(root)
        if not root.exists():
            raise LintError(f"codebase lint root does not exist: {root}")
        modules: Dict[str, ModuleInfo] = {}
        for path in sorted(root.rglob("*.py")):
            info = _load_module(path, root)
            modules[info.name] = info
        return cls(root=root, modules=modules)

    def modules(self) -> Tuple[ModuleInfo, ...]:
        """All modules, sorted by dotted name (deterministic report order)."""
        return tuple(self._modules[name] for name in sorted(self._modules))

    def get(self, name: str) -> Optional[ModuleInfo]:
        """Module by dotted name, or None."""
        return self._modules.get(name)

    def by_path(self, path: Path) -> Optional[ModuleInfo]:
        """Module by absolute file path, or None."""
        return self._by_path.get(path)

    def __contains__(self, name: str) -> bool:
        return name in self._modules

    def __len__(self) -> int:
        return len(self._modules)

    def __iter__(self) -> Iterator[ModuleInfo]:
        return iter(self.modules())

    def select(self, paths: Optional[Sequence[str]]) -> Tuple[ModuleInfo, ...]:
        """Modules whose file matches one of ``paths`` (all when None).

        A path selects a module when it resolves to the module's file or
        to one of its ancestor directories — so ``--paths src/repro/timing``
        selects the whole subpackage.  Whole-program structures (call
        graph, return-unit summaries) are still built from every module;
        this only narrows where findings are *reported*.

        An entry that selects no module (a typo, a missing file, a path
        outside the root) raises :class:`LintError`: a silent skip would
        read as a clean bill of health for files never linted.
        """
        if paths is None:
            return self.modules()
        resolved = {p: Path(p).resolve() for p in paths}
        matched = set()
        selected = []
        for info in self.modules():
            file = info.path.resolve()
            hits = [p for p, r in resolved.items()
                    if file == r or r in file.parents]
            if hits:
                matched.update(hits)
                selected.append(info)
        unmatched = [p for p in resolved if p not in matched]
        if unmatched:
            raise LintError(
                f"--paths entries select no module under {self.root}: "
                + ", ".join(unmatched)
            )
        return tuple(selected)


def _load_module(path: Path, root: Path) -> ModuleInfo:
    text = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as err:
        raise LintError(f"cannot parse {path}: {err}") from err
    relpath = path.relative_to(root.parent) if root.parent in path.parents else path
    parts = list(path.relative_to(root).parts) if root in path.parents else [path.name]
    parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    name = ".".join([root.name, *parts]) if parts else root.name
    return ModuleInfo(
        name=name,
        path=path,
        rel=str(relpath),
        text=text,
        tree=tree,
        pragmas=collect_pragmas(text),
    )
