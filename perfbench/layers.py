"""Per-layer attribution measured from outside the program.

:func:`install` wraps the per-call entry point of every pipeline layer
(never a per-state hot function) with a timer that keeps a stack of open
calls, so each layer gets its *self* time: its duration minus the part
covered by wrapped calls it made.  Work
counts are not recorded here; they come from the program's own
deterministic counters (``repro.obs.metrics().snapshot()``).

The wrappers replace attributes at the places the program looks them up
(``repro.core.engine`` module globals and class attributes), so the
program under ``src/`` is not modified.  Passes run with ``jobs=1``, so
every wrapped call happens on the main thread and one stack suffices.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class LayerRecorder:
    """Self time per layer, plus per-implementation time and model-
    checking work for the engine layers."""

    def __init__(self, snapshot: Callable[[], Dict]):
        self._snapshot = snapshot
        self._stack: List[List[float]] = []   # [start, child seconds]
        self.self_time: Dict[str, float] = defaultdict(float)
        self.by_implementation: Dict[str, float] = defaultdict(float)
        self.states_by_implementation: Dict[str, float] = defaultdict(float)

    def wrap(self, owner, attribute: str, layer: str,
             implementation_arg: Optional[int] = None) -> None:
        original = getattr(owner, attribute)
        recorder = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            implementation = None
            if implementation_arg is not None:
                implementation = kwargs.get(
                    "implementation", args[implementation_arg]
                    if len(args) > implementation_arg else None)
                before = recorder._states()
            frame = [time.perf_counter(), 0.0]
            recorder._stack.append(frame)
            try:
                return original(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[0]
                recorder._stack.pop()
                if recorder._stack:
                    recorder._stack[-1][1] += duration
                recorder.self_time[layer] += duration - frame[1]
                if implementation is not None:
                    key = f"{layer}.{implementation}"
                    recorder.by_implementation[key] += duration
                    recorder.states_by_implementation[key] += \
                        recorder._states() - before

        setattr(owner, attribute, timed)

    def _states(self) -> float:
        return self._snapshot()["counters"].get("mc.states_explored", 0)

    def summary(self) -> Dict:
        return {"self": dict(self.self_time),
                "by_implementation": dict(self.by_implementation),
                "states_by_implementation":
                    dict(self.states_by_implementation)}


def install() -> LayerRecorder:
    """Wrap every layer entry point; returns the recorder."""
    from repro import obs
    from repro.core import engine
    from repro.core.cegar import CounterexampleValidator
    from repro.mc import McVerdictCache, ModelChecker
    from repro.threat import ThreatInstrumentor

    recorder = LayerRecorder(lambda: obs.metrics().snapshot())
    # verify_one(prop, implementation, ...); run_extraction(implementation)
    recorder.wrap(engine, "verify_one", "engine.verify",
                  implementation_arg=1)
    recorder.wrap(engine, "run_extraction", "engine.extract",
                  implementation_arg=0)
    recorder.wrap(engine, "run_conformance", "conformance.run")
    recorder.wrap(engine, "measure_coverage", "conformance.coverage")
    recorder.wrap(engine, "extract_model", "extraction.extract")
    recorder.wrap(engine, "check_with_cegar", "cegar")
    recorder.wrap(engine, "run_attack", "testbed.attack")
    recorder.wrap(ThreatInstrumentor, "build", "threat.build")
    recorder.wrap(ModelChecker, "check", "mc.check")
    recorder.wrap(McVerdictCache, "get", "mc.cache.get")
    recorder.wrap(McVerdictCache, "put", "mc.cache.put")
    recorder.wrap(CounterexampleValidator, "validate", "cpv.validate")
    return recorder
