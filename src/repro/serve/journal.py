"""Write-ahead job journal: the service's crash-recovery log.

The scheduler (:mod:`repro.serve.service`) is an in-memory queue; this
module is what makes it *durable*.  Every job lifecycle transition is
appended to one JSONL file **before** the transition takes effect:

- ``submit`` — the full job payload (config wire form, digest, kind,
  deadline), written before the job is queued;
- ``start``  — written by the worker before the pipeline runs;
- ``finish`` — the terminal status (``done`` / ``failed`` /
  ``timeout``), written when the record is finalised.

A restarted ``repro serve --journal DIR`` replays the file: every job
with a ``submit`` but no terminal ``finish`` is *pending* — it was
queued or running when the process died — and is re-queued in original
submission order (deterministic recovery).  Jobs whose digest is
already in the result store complete as O(1) store hits during replay;
jobs that were running at the crash re-run cold (the pipeline is
side-effect free until the store write, so a re-run is safe).

Durability idioms are those of :mod:`repro.blobstore`: appends are
``flush + fsync`` so a journaled transition survives the process;
rotation (compaction to only-pending ``submit`` records) writes a temp
file and ``os.replace``\\ s it atomically; a corrupted tail — the
half-written last line a SIGKILL leaves behind — is *quarantined as a
truncate*: the undecodable suffix is moved to ``DIR/quarantine/`` and
the journal is cut back to the longest clean prefix instead of taking
the service down.

``append`` is a :func:`repro.faults.trip` site (``journal.append``,
keyed by the event name) so journal-write failures are exercised under
deterministic fault injection: a failing append fails the *job*, never
the worker or the service.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from .. import faults, obs, schema
from ..blobstore import write_atomic

#: Lifecycle events a journal line may carry.
EVENT_SUBMIT = "submit"
EVENT_START = "start"
EVENT_FINISH = "finish"
EVENTS = (EVENT_SUBMIT, EVENT_START, EVENT_FINISH)

#: Terminal statuses: a ``finish`` carrying one of these closes the job.
TERMINAL_STATUSES = ("done", "failed", "timeout")


class JournalError(Exception):
    """Raised for malformed journal operations (not for corrupt files —
    those are quarantined and truncated, never raised)."""


@dataclass
class JournalReplay:
    """What :meth:`JobJournal.replay` recovered from disk."""

    #: ``submit`` entries with no terminal ``finish``, submission order
    pending: List[Dict] = field(default_factory=list)
    #: job ids that reached a terminal status before the restart
    finished: List[str] = field(default_factory=list)
    #: highest numeric job id seen (0 when the journal was empty) —
    #: the registry's id counter must advance past it so replayed and
    #: fresh jobs never collide
    max_job_number: int = 0
    #: total well-formed lines read
    entries_read: int = 0
    #: bytes of corrupted tail quarantined (0 = the file was clean)
    truncated_bytes: int = 0


class JobJournal:
    """Append-only JSONL write-ahead log for service jobs."""

    FILENAME = "journal.jsonl"
    QUARANTINE = "quarantine"

    def __init__(self, root: os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / self.FILENAME
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, event: str, job_id: str, **fields) -> None:
        """Durably append one lifecycle transition.

        The ``journal.append`` fault site (keyed by ``event``) fires
        *before* the write, modelling a full disk or a yanked volume;
        callers treat a raising append as "this transition did not
        happen".
        """
        if event not in EVENTS:
            raise JournalError(f"unknown journal event {event!r}; "
                               f"one of {EVENTS}")
        faults.trip("journal.append", key=event)
        entry = schema.stamp({"event": event, "job_id": job_id, **fields})
        line = json.dumps(entry, sort_keys=True, separators=(",", ":"),
                          default=str)
        with self._lock:
            with open(self.path, "a") as handle:
                handle.write(line + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        obs.count("serve.journal_appends")

    def append_submit(self, record) -> None:
        """Journal a submission (call before queueing the record)."""
        self.append(
            EVENT_SUBMIT, record.job_id,
            digest=record.digest, kind=record.kind,
            implementation=record.implementation,
            payload=dict(record.payload),
            deadline_seconds=record.deadline_seconds,
            submitted_at=record.submitted_at,
        )

    def append_start(self, record) -> None:
        self.append(EVENT_START, record.job_id, worker=record.worker)

    def append_finish(self, record) -> None:
        self.append(EVENT_FINISH, record.job_id,
                    status=record.status.value,
                    store_hit=record.store_hit, error=record.error)

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(self) -> JournalReplay:
        """Reconstruct the pending-job set from the journal file.

        Tolerates the file not existing (fresh start) and a corrupted
        tail (quarantine-as-truncate, ``serve.journal_truncated_tails``
        counted).  A ``start`` without a ``finish`` is still *pending*:
        the job was running at the crash and must re-run.
        """
        replay = JournalReplay()
        try:
            raw = self.path.read_bytes()
        except OSError:
            return replay
        clean_bytes = 0
        submits: Dict[str, Dict] = {}
        order: List[str] = []
        closed: List[str] = []
        for line in raw.split(b"\n"):
            candidate = clean_bytes + len(line) + 1
            if not line:
                if candidate <= len(raw):
                    clean_bytes = candidate
                continue
            try:
                entry = json.loads(line)
                if not isinstance(entry, dict):
                    raise ValueError("journal line is not an object")
                schema.check(entry, "journal entry")
                event = entry.get("event")
                job_id = entry.get("job_id")
                if event not in EVENTS or not job_id:
                    raise ValueError(f"malformed journal entry: {entry}")
            except (ValueError, schema.SchemaVersionError):
                # Corrupted (usually half-written) suffix: everything
                # from this line on is untrustworthy.  Truncate to the
                # clean prefix and quarantine the rest.
                self._truncate_tail(raw, clean_bytes)
                replay.truncated_bytes = len(raw) - clean_bytes
                break
            clean_bytes = candidate
            replay.entries_read += 1
            replay.max_job_number = max(replay.max_job_number,
                                        _job_number(job_id))
            if event == EVENT_SUBMIT:
                if job_id not in submits:
                    order.append(job_id)
                submits[job_id] = entry
            elif event == EVENT_FINISH \
                    and entry.get("status") in TERMINAL_STATUSES:
                closed.append(job_id)
        for job_id in closed:
            submits.pop(job_id, None)
        replay.finished = closed
        replay.pending = [submits[job_id] for job_id in order
                          if job_id in submits]
        if replay.pending:
            obs.count("serve.journal_replayed", len(replay.pending))
        return replay

    def _truncate_tail(self, raw: bytes, clean_bytes: int) -> None:
        quarantine = self.root / self.QUARANTINE
        quarantine.mkdir(parents=True, exist_ok=True)
        index = sum(1 for _ in quarantine.iterdir())
        target = quarantine / f"tail-{index:03d}.bin"
        target.write_bytes(raw[clean_bytes:])
        with self._lock:
            with open(self.path, "r+b") as handle:
                handle.truncate(clean_bytes)
        obs.count("serve.journal_truncated_tails")

    # ------------------------------------------------------------------
    # Rotation
    # ------------------------------------------------------------------
    def rotate(self, pending: List[Dict]) -> None:
        """Atomically compact the journal to the given ``submit`` rows.

        Called after a replay: the finished-job history has served its
        purpose, so the new journal holds exactly the still-pending
        submissions (their ``start``/``finish`` lines will be appended
        as they re-execute).  Written with
        :func:`repro.blobstore.write_atomic`, so a crash mid-rotation
        leaves the old journal intact.
        """
        lines = []
        for entry in pending:
            if entry.get("event") != EVENT_SUBMIT:
                raise JournalError("rotate takes submit entries only, "
                                   f"got {entry.get('event')!r}")
            lines.append(json.dumps(entry, sort_keys=True,
                                    separators=(",", ":"), default=str))
        text = "".join(line + "\n" for line in lines)
        with self._lock:
            write_atomic(self.path, text, "serve.journal_")
        obs.count("serve.journal_rotations")

    # ------------------------------------------------------------------
    def stats(self) -> Dict:
        """Health-block summary: journal size and quarantine count."""
        try:
            size = self.path.stat().st_size
        except OSError:
            size = 0
        quarantine = self.root / self.QUARANTINE
        quarantined = (sum(1 for _ in quarantine.iterdir())
                       if quarantine.is_dir() else 0)
        return {"path": str(self.path), "bytes": size,
                "quarantined_tails": quarantined}


def _job_number(job_id: str) -> int:
    """``"j000042"`` → 42 (0 for ids not in the registry's format)."""
    digits = job_id.lstrip("j")
    return int(digits) if digits.isdigit() else 0


__all__ = [
    "EVENTS", "EVENT_FINISH", "EVENT_START", "EVENT_SUBMIT", "JobJournal",
    "JournalError", "JournalReplay", "TERMINAL_STATUSES",
]
