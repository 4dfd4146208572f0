"""``repro.faults`` — the deterministic fault-injection harness.

Robustness engineering needs reproducible failures: the engine's crash
isolation, per-group timeouts and serial-fallback paths are only
testable if a worker can be made to raise, hang or die *on demand, at a
precise point, every time*.  This module provides that as a tiny,
dependency-free layer:

- a :class:`FaultSpec` names a *site* (a string like
  ``"engine.verify_group"``), an optional *key* (e.g. a property
  identifier, so only the group that verifies ``SEC-01`` is hit), a
  *kind* (``raise`` / ``hang`` / ``exit``) and the 1-based call index
  ``nth`` at which it fires (``nth=0`` fires on *every* matching call —
  e.g. ``channel.impair@downlink:attach_accept:raise:0:all`` suppresses
  a downlink message persistently to drive a timer to its abort limit);
- a :class:`FaultPlan` bundles specs and is installed process-wide
  (:func:`install`); a forked :class:`~repro.workers.Worker` inherits
  the parent's plan and resets its call counters when it starts, so
  the k-th call is counted per process and re-fires deterministically
  in every replacement worker;
- production code marks injection points with :func:`trip`, which is a
  single ``is None`` check when no plan is installed — zero overhead in
  normal operation.

Scoping: a spec with ``scope="worker"`` (the default) only fires inside
worker processes (engine workers and ``repro serve`` workers), never
in the main process — that is what lets the
engine's in-process serial fallback *complete* a group whose worker
attempts persistently crashed or hung.  ``scope="all"`` fires
everywhere, which exercises the catch-at-the-group-boundary path that
turns checker exceptions into ``Verdict.ERROR`` results.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

KIND_RAISE = "raise"
KIND_HANG = "hang"
KIND_EXIT = "exit"
KINDS = (KIND_RAISE, KIND_HANG, KIND_EXIT)

SCOPE_ALL = "all"
SCOPE_WORKER = "worker"
SCOPES = (SCOPE_ALL, SCOPE_WORKER)

#: Exit status a ``kind="exit"`` fault kills its process with (unless
#: the spec overrides it) — distinctive enough to spot in pool reports.
DEFAULT_EXIT_CODE = 13

#: How long a ``kind="hang"`` fault sleeps by default.  Finite so a
#: stray hang cannot wedge a test run forever; long enough to exceed any
#: sane ``group_timeout_seconds``.
DEFAULT_HANG_SECONDS = 30.0


class FaultSpecError(ValueError):
    """Raised for malformed fault specifications."""


class InjectedFault(RuntimeError):
    """The exception a ``kind="raise"`` fault throws at its site."""


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault: fire ``kind`` on the ``nth`` call to
    ``site`` (optionally restricted to calls carrying ``key``)."""

    site: str
    kind: str
    nth: int = 1
    key: Optional[str] = None
    scope: str = SCOPE_WORKER
    exit_code: int = DEFAULT_EXIT_CODE
    hang_seconds: float = DEFAULT_HANG_SECONDS

    def __post_init__(self):
        if not self.site:
            raise FaultSpecError("fault site must be non-empty")
        if self.kind not in KINDS:
            raise FaultSpecError(
                f"unknown fault kind {self.kind!r}; one of {KINDS}")
        if self.scope not in SCOPES:
            raise FaultSpecError(
                f"unknown fault scope {self.scope!r}; one of {SCOPES}")
        if self.nth < 0:
            raise FaultSpecError(
                "nth is 1-based and must be >= 1 (or 0 for every call)")

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse the CLI form ``site[@key]:kind[:nth[:scope]]``.

        Examples: ``engine.verify_group@SEC-01:exit:1``,
        ``cegar.iteration:raise:3:all``, ``testbed.run_attack@P1:hang``.

        The key may itself contain colons (the ``channel.impair`` site
        keys faults by ``direction:message``), so the spec is split at
        the first component that names a fault kind.
        """
        fragments = text.split(":")
        kind_index = next(
            (index for index, fragment in enumerate(fragments[1:], 1)
             if fragment in KINDS), None)
        if kind_index is None or len(fragments) - kind_index > 3:
            raise FaultSpecError(
                f"bad fault spec {text!r}; expected "
                f"site[@key]:kind[:nth[:scope]]")
        parts = ([":".join(fragments[:kind_index])]
                 + fragments[kind_index:])
        site_part, kind = parts[0], parts[1]
        key: Optional[str] = None
        if "@" in site_part:
            site_part, key = site_part.split("@", 1)
        nth = 1
        if len(parts) >= 3 and parts[2]:
            try:
                nth = int(parts[2])
            except ValueError:
                raise FaultSpecError(
                    f"bad call index {parts[2]!r} in {text!r}") from None
        scope = parts[3] if len(parts) == 4 else SCOPE_WORKER
        return cls(site=site_part, kind=kind, nth=nth, key=key,
                   scope=scope)

    def to_dict(self) -> Dict:
        return {"site": self.site, "kind": self.kind, "nth": self.nth,
                "key": self.key, "scope": self.scope,
                "exit_code": self.exit_code,
                "hang_seconds": self.hang_seconds}

    @classmethod
    def from_dict(cls, payload: Dict) -> "FaultSpec":
        return cls(**payload)

    def describe(self) -> str:
        target = f"{self.site}@{self.key}" if self.key else self.site
        return f"{target}:{self.kind}:{self.nth}:{self.scope}"


@dataclass(frozen=True)
class FaultPlan:
    """An ordered bundle of fault specs, installed process-wide."""

    specs: Tuple[FaultSpec, ...] = ()

    @classmethod
    def of(cls, *specs: FaultSpec) -> "FaultPlan":
        return cls(specs=tuple(specs))

    @classmethod
    def parse(cls, texts: Sequence[str]) -> "FaultPlan":
        return cls(specs=tuple(FaultSpec.parse(text) for text in texts))

    def to_dict(self) -> Dict:
        return {"specs": [spec.to_dict() for spec in self.specs]}

    @classmethod
    def from_dict(cls, payload: Dict) -> "FaultPlan":
        return cls(specs=tuple(FaultSpec.from_dict(item)
                               for item in payload.get("specs", [])))

    def describe(self) -> str:
        return ", ".join(spec.describe() for spec in self.specs)


# ---------------------------------------------------------------------------
# Process-global runtime state
# ---------------------------------------------------------------------------
_lock = threading.Lock()
_plan: Optional[FaultPlan] = None
#: per-spec call counters, keyed by the spec's position in the plan
_counts: Dict[int, int] = {}


def _new_lock_in_child() -> None:
    # A fork copies _lock as it is, but only the forking thread: a copy
    # held by any other thread would never be released in the child.
    global _lock
    _lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_lock_in_child)


def install(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` process-wide (``None`` uninstalls) and reset
    call counters, so installation marks time zero deterministically."""
    global _plan
    with _lock:
        _plan = plan
        _counts.clear()


def installed() -> Optional[FaultPlan]:
    return _plan


def clear() -> None:
    """Uninstall any plan and forget all call counts."""
    install(None)


def reset_counters() -> None:
    """Zero the call counters without uninstalling the plan: a worker
    counts from zero, so a fault re-fires in every replacement."""
    with _lock:
        _counts.clear()


def call_counts() -> Dict[str, int]:
    """Current per-spec call counts (``describe() -> count``; tests)."""
    with _lock:
        plan = _plan
        if plan is None:
            return {}
        return {plan.specs[index].describe(): count
                for index, count in _counts.items()}


def _in_worker_process() -> bool:
    return multiprocessing.parent_process() is not None


def trip(site: str, key: Optional[str] = None) -> None:
    """Mark an injection point; fires any matching installed fault.

    Counting is deterministic per process: every call matching a spec's
    ``(site, key)`` filter increments that spec's private counter, and
    the spec fires exactly when the counter reaches ``nth`` (in an
    allowed scope).  ``nth=0`` fires on every matching call.  No plan
    installed → one attribute read.
    """
    plan = _plan
    if plan is None:
        return
    firing: List[FaultSpec] = []
    with _lock:
        if _plan is not plan:   # racing uninstall
            return
        for index, spec in enumerate(plan.specs):
            if spec.site != site:
                continue
            if spec.key is not None and spec.key != key:
                continue
            count = _counts.get(index, 0) + 1
            _counts[index] = count
            if spec.nth != 0 and count != spec.nth:
                continue
            if spec.scope == SCOPE_WORKER and not _in_worker_process():
                continue
            firing.append(spec)
    for spec in firing:
        _fire(spec, site, key)


def _fire(spec: FaultSpec, site: str, key: Optional[str]) -> None:
    target = f"{site}@{key}" if key else site
    when = "every call" if spec.nth == 0 else f"call #{spec.nth}"
    if spec.kind == KIND_RAISE:
        raise InjectedFault(
            f"injected fault: {spec.kind} at {target} ({when})")
    if spec.kind == KIND_HANG:
        time.sleep(spec.hang_seconds)
        return
    # KIND_EXIT: die the way a segfaulting or OOM-killed checker does —
    # immediately, with no interpreter cleanup.
    os._exit(spec.exit_code)


__all__ = [
    "DEFAULT_EXIT_CODE", "DEFAULT_HANG_SECONDS", "FaultPlan", "FaultSpec",
    "FaultSpecError", "InjectedFault", "KINDS", "KIND_EXIT", "KIND_HANG",
    "KIND_RAISE", "SCOPES", "SCOPE_ALL", "SCOPE_WORKER", "call_counts",
    "clear", "install", "installed", "reset_counters", "trip",
]
