"""Layer tracer: times the program's layers from outside the program.

Every layer is a public function or method of ``repro``.  The tracer
replaces each binding of it -- the defining module, every module that
bound it with ``from ... import``, and the class for methods -- with a
wrapper that counts calls and measures busy time.  Spans nest on a
stack, so each layer's *self* time is its duration minus the part its
directly nested layer spans cover.  The engine's per-move strategy
calls (``COUNTED``) get count-only wrappers, so moves and candidates are
counted apart from the engine's own bookkeeping.  ``uninstall`` puts
every original binding back.

Nothing here touches ``src/``: the program's own spans and counters are
read separately, through a ``repro.telemetry`` session.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: (layer name, defining module, attribute, class for methods or None).
#: Two entries may share a layer name; their figures add up.
LAYERS: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    ("timing.ssta.run_ssta", "repro.timing.ssta", "run_ssta", None),
    ("timing.ssta.gate_delay_canonicals", "repro.timing.ssta",
     "gate_delay_canonicals", None),
    ("timing.graph.nominal_delays", "repro.timing.graph", "nominal_delays",
     "TimingView"),
    ("timing.sta.run_sta", "repro.timing.sta", "run_sta", None),
    ("timing.incremental.notify", "repro.timing.incremental", "notify",
     "IncrementalSTA"),
    ("power.statistical.analyze_statistical_leakage", "repro.power.statistical",
     "analyze_statistical_leakage", None),
    ("power.leakage.gate_leakage_currents", "repro.power.leakage",
     "gate_leakage_currents", None),
    ("core.sizing.minimize_delay", "repro.core.sizing", "minimize_delay", None),
    ("core.metrics.snapshot_metrics", "repro.core.metrics", "snapshot_metrics",
     None),
    ("core.engine.run", "repro.core.engine", "run", "GreedyEngine"),
    ("core.engine.is_feasible", "repro.core.statistical", "is_feasible",
     "StatisticalStrategy"),
    ("core.engine.is_feasible", "repro.core.deterministic", "is_feasible",
     "DeterministicStrategy"),
    ("variation.model.sample", "repro.variation.model", "sample",
     "VariationModel"),
    ("variation.model.sample", "repro.variation.model", "sample_from_normals",
     "VariationModel"),
    ("timing.mc.TimingKernel.delays", "repro.timing.mc", "delays",
     "TimingKernel"),
    ("timing.mc.run_monte_carlo_sta", "repro.timing.mc", "run_monte_carlo_sta",
     None),
    ("power.mc.run_monte_carlo_leakage", "repro.power.mc",
     "run_monte_carlo_leakage", None),
    ("timing.yield_est.estimate_timing_yield", "repro.timing.yield_est",
     "estimate_timing_yield", None),
)

#: (count name, defining module, attribute, class): strategy methods the
#: greedy engine calls once per applied move, reverted move and scored
#: candidate.  Only a class's own definition is wrapped, so an inherited
#: hook is counted once, through the base class.
COUNTED: Tuple[Tuple[str, str, str, str], ...] = tuple(
    (count, module, attr, cls)
    for count, attr in (("hook_applied", "on_move_applied"),
                        ("hook_reverted", "on_move_reverted"),
                        ("move_cost", "move_cost"))
    for module, cls in (("repro.core.engine", "ConstraintStrategy"),
                        ("repro.core.statistical", "StatisticalStrategy"),
                        ("repro.core.deterministic", "DeterministicStrategy"))
)


@dataclass
class LayerStats:
    """Accumulated figures of one layer."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    #: Dies drawn (``variation.model.sample`` only).
    dies: int = 0


class LayerTracer:
    """Installs layer wrappers and accumulates their statistics."""

    def __init__(self) -> None:
        self.stats: Dict[str, LayerStats] = {}
        self.counts: Dict[str, int] = {name: 0 for name, *_ in COUNTED}
        self.engine_runs: List[object] = []
        self._stack: List[List[float]] = []  # [child seconds] per open span
        self._restore: List[Tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every layer."""
        for layer, module_name, attr, cls_name in LAYERS:
            module = importlib.import_module(module_name)
            if cls_name is not None:
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._bind(cls, attr, original, self._wrap(layer, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(layer, original)
            # Rebind the name wherever ``from ... import`` copied it.
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if not (name == "repro" or name.startswith("repro.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, key, original, wrapper)
        for count, module_name, attr, cls_name in COUNTED:
            cls = getattr(importlib.import_module(module_name), cls_name)
            if attr in cls.__dict__:
                original = cls.__dict__[attr]
                self._bind(cls, attr, original, self._count(count, original))

    def uninstall(self) -> None:
        """Restore every original binding."""
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def bound_names(self, layer_attr: str) -> List[str]:
        """Where a wrapped name was rebound (``module.name`` strings)."""
        return sorted(
            f"{getattr(owner, '__name__', owner)}.{key}"
            for owner, key, _ in self._restore
            if key == layer_attr
        )

    def _bind(self, owner: object, key: str, original: object,
              wrapper: object) -> None:
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    # -- measurement ------------------------------------------------------------

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        stats = self.stats.setdefault(layer, LayerStats())
        stack = self._stack
        is_sampler = layer == "variation.model.sample"
        is_engine_run = layer == "core.engine.run"
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[0]
            if is_sampler:  # returns (z, delta_l, delta_vth), one row per die
                stats.dies += int(result[0].shape[0])
            if is_engine_run:
                self.engine_runs.append(result)
            return result

        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def layer(self, name: str) -> LayerStats:
        """Statistics of one installed layer."""
        return self.stats[name]
