"""Deadline enforcement and worker-fleet supervision for the service.

Python threads cannot be killed, so a job that hangs — a pathological
model, a stuck fault injection, an engine bug — would silently wedge
one worker forever and, with enough of them, the whole fleet.  The
watchdog is the monitor thread that keeps the service honest:

- **deadlines** — a ``RUNNING`` job past its ``deadline_seconds`` is
  marked :data:`~repro.serve.jobs.JobStatus.TIMEOUT` (terminal; the
  exception chain names the deadline), its ``finish`` is journaled,
  and the worker executing it is *abandoned*: when the stuck pipeline
  eventually returns, the worker notices it was written off, refuses
  to overwrite the ``TIMEOUT`` verdict (``serve.late_completions``)
  and exits its loop;

- **fleet strength** — every scan respawns a replacement for each
  worker thread that died or was abandoned
  (``serve.workers_respawned``), so a hung or crashed worker never
  shrinks effective capacity.

The scan interval bounds the detection margin: a job is marked
``TIMEOUT`` no later than ``deadline + interval`` after it started.
All state transitions go through the record's own lock, so a watchdog
marking ``TIMEOUT`` and a worker finishing late can never interleave
into a corrupt status.  The timeout is counted and the worker abandoned
(and replaced) *before* the status turns ``TIMEOUT``, so an observer of
the terminal status never reads stale counters.

Lock order: a record's ``lock`` may be held while taking the service's
``_fleet_lock`` (the abandon-and-respawn above), never the reverse —
no code takes a record lock while holding ``_fleet_lock``.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from .. import obs
from .jobs import JobStatus


class Watchdog:
    """Monitor thread: deadline enforcement + worker respawn."""

    def __init__(self, service, interval_seconds: float = 0.25):
        self.service = service
        self.interval_seconds = max(0.005, interval_seconds)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def start(self) -> "Watchdog":
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop,
                                        name="serve-watchdog",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self, wait: bool = True) -> None:
        self._stop.set()
        thread = self._thread
        if wait and thread is not None and thread.is_alive():
            thread.join(timeout=5)

    @property
    def alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                self.scan()
            except Exception:  # noqa: BLE001 - the watchdog must survive
                obs.count("serve.watchdog_errors")
            self._stop.wait(self.interval_seconds)

    def scan(self, now: Optional[float] = None) -> int:
        """One supervision pass; returns how many jobs were timed out.

        Separated from the loop (and accepting an injected clock) so
        tests can drive supervision deterministically.
        """
        timed_out = self._enforce_deadlines(now)
        self.service._respawn_dead_workers()
        return timed_out

    def _enforce_deadlines(self, now: Optional[float] = None) -> int:
        current = now if now is not None else time.time()
        timed_out = 0
        for record in self.service.registry.list(JobStatus.RUNNING):
            deadline = record.deadline_seconds
            if deadline is None or record.started_at is None:
                continue
            overshoot = current - record.started_at - deadline
            if overshoot < 0:
                continue
            with record.lock:
                if record.status is not JobStatus.RUNNING:
                    continue  # finished between list() and lock
                # Account first, publish last: whoever sees TIMEOUT also
                # sees the count and the replacement worker.  Takes
                # _fleet_lock under record.lock (see the lock order in
                # the module docstring).
                obs.count("serve.jobs_timed_out")
                self.service._abandon_worker(record.worker)
                record.error = (
                    f"JobDeadlineExceeded: job {record.job_id} exceeded "
                    f"its {deadline:.3f}s deadline "
                    f"(running {current - record.started_at:.3f}s on "
                    f"{record.worker or 'unknown worker'})")
                record.finished_at = current
                record.status = JobStatus.TIMEOUT
            timed_out += 1
            self.service._journal_finish(record)
        return timed_out


__all__ = ["Watchdog"]
