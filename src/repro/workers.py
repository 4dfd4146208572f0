"""Killable worker processes: the one process-supervision primitive.

``repro serve`` runs each fleet slot's jobs on one :class:`Worker`, and
the verification engine runs its property groups on up to ``jobs`` of
them.  A worker is a forked child serving one *handler* over a pipe:
for each request it replies ``(ok, result, metrics)`` — ``result`` is
the :func:`exception_chain` when the handler raised (``ok`` false), and
``metrics`` a drain of the child's :mod:`repro.obs` registry.  The
parent owns the deadline; past it, :meth:`Worker.kill` is the recovery.

A worker leads its own process group only when its parent is not itself
a worker, and a kill signals the group it leads, else only its PID.  So
a serve deadline's group kill also reclaims the engine workers of that
job, and an engine-level kill never signals the serve worker above it.
Workers are forked (``killpg`` already ties serve to POSIX): they
inherit the installed fault plan and their handler's state unpickled.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import threading
from multiprocessing import util
from typing import Callable, List, Optional

from . import faults, obs

#: The start method of every worker.
_context = multiprocessing.get_context("fork")

#: Serialises pipe creation and fork: a child forked by another thread
#: between ``Pipe()`` and closing the parent's copy of the child end
#: would hold that end open and hide the worker's death from the owner.
_fork_lock = threading.Lock()


def _new_lock_in_child() -> None:
    # A worker is forked while its parent holds _fork_lock; the child
    # needs its own to fork workers of its own.
    global _fork_lock
    _fork_lock = threading.Lock()


os.register_at_fork(after_in_child=_new_lock_in_child)


def exception_chain(exc: BaseException) -> str:
    """Compact, deterministic rendering of an exception and its causes."""
    parts: List[str] = []
    seen = set()
    current: Optional[BaseException] = exc
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        parts.append(f"{type(current).__name__}: {current}")
        current = current.__cause__ or current.__context__
    return " <- caused by ".join(parts)


def _child_main(conn, parent_end, handler: Callable) -> None:
    """Worker process body: serve requests off ``conn`` until the
    parent closes its end of the pipe."""
    parent_end.close()
    obs.reset()
    faults.reset_counters()
    with contextlib.suppress(EOFError, BrokenPipeError):
        while True:
            request = conn.recv()
            try:
                ok, result = True, handler(request)
            except Exception as exc:  # noqa: BLE001 - request isolation
                ok, result = False, exception_chain(exc)
            # Spans the handler did not ship itself stay in the child.
            obs.drain_spans()
            conn.send((ok, result, obs.metrics().drain()))


def _kill(process, leads_group: bool) -> None:
    """SIGKILL a worker, and its process group when it leads one."""
    with contextlib.suppress(ProcessLookupError):  # already gone
        if leads_group:
            os.killpg(process.pid, signal.SIGKILL)
        else:
            os.kill(process.pid, signal.SIGKILL)


def _reap(process, conn, leads_group: bool) -> None:
    _kill(process, leads_group)
    process.join()
    conn.close()


class Worker:
    """One forked worker process serving ``handler``, and the parent's
    end of its pipe (``conn``)."""

    def __init__(self, name: str, handler: Callable):
        #: a worker forked by another worker stays in that one's group
        self.leads_group = multiprocessing.parent_process() is None
        with _fork_lock:
            self.conn, child_end = _context.Pipe()
            # Not daemonic: a serve worker forks engine workers.
            self.process = _context.Process(
                target=_child_main, args=(child_end, self.conn, handler),
                name=name)
            self.process.start()
            if self.leads_group:
                # Before the child can fork workers of its own.
                os.setpgid(self.process.pid, self.process.pid)
            child_end.close()
        self.name = f"{name} (pid {self.process.pid})"
        #: Kill, reap and close; idempotent, and also run at interpreter
        #: exit, before multiprocessing joins its non-daemonic children.
        self.close = util.Finalize(
            self, _reap, args=(self.process, self.conn, self.leads_group),
            exitpriority=0)

    def kill(self) -> None:
        """Kill from any thread; the owner reaps and closes."""
        if self.process.exitcode is None:
            _kill(self.process, self.leads_group)
