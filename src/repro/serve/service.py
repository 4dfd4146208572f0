"""The scheduler: a durable job queue drained by a fleet of worker processes.

The split mirrors Klever's bridge/scheduler architecture: the HTTP layer
(:mod:`repro.serve.http`) only translates requests, this module owns the
queue, the worker fleet, the result-store short-circuit, the write-ahead
journal, the drain lifecycle, per-job deadlines and queue admission
control.

Every job travels one of two paths:

- **store hit** — the job's content address is already filed: the record
  is marked ``DONE`` *at submission time*, with ``store_hit=True`` and an
  empty per-job counter delta.  No extraction, no model checking — the
  acceptance criterion "second identical submission consumes zero
  ``engine.*``/``mc.*`` work" is checked against exactly this emptiness.
- **cold run** — a fleet slot dequeues the job, re-checks the store (an
  identical job submitted while the first was still running coalesces
  into a hit here), then hands it to the slot's worker process, which
  runs the full pipeline via :meth:`ProChecker.from_config(...).analyze()
  <repro.core.prochecker.ProChecker.analyze>` — inheriting the engine's
  worker fan-out, retry/timeout resilience and crash isolation —
  and sends the report back to be filed in the store.

``"type": "fuzz"`` payloads take the same route: the worker runs the
campaign (:mod:`repro.fuzz`) and sends back its ``FuzzResult.summary()``,
which is filed inline on the job record.  Campaigns are
**store-exempt** — they always run cold.

The fleet: each slot is one long-lived :class:`~repro.workers.Worker`
process (the same killable primitive the engine runs its property groups
on), owned by exactly one parent thread.  The owner sends the job over
the worker's pipe and waits for the reply until the job's deadline.  The
reply carries the result plus a drain of the worker's own metrics
registry; that drain becomes the record's ``counters`` and is merged
into the service's registry, as the engine merges its workers' drains.
A worker runs one job at a time and nothing else, so per-job counters
are exact even when jobs overlap; they appear when the job finishes.
A serve worker leads its own process group, and the engine workers a
``"jobs": 2`` job forks stay in it, so killing the group on a deadline
reclaims both layers; the worker exits when the parent closes its end
of the pipe — a SIGKILLed service leaves none behind.

Resilience layer:

- **journal** (:mod:`repro.serve.journal`) — with a journal attached,
  every submit/start/finish is logged write-ahead; a restarted service
  replays unfinished jobs deterministically (store hits stay O(1),
  running-at-crash jobs re-run cold).  A failing *start* append fails
  the job, never the worker; a failing *finish* append is counted and
  tolerated — the job's report is already in the store, so a replay
  resolves it as a hit (the journal self-heals through the store).
- **drain** — :meth:`AnalysisService.drain` stops admission and
  dequeueing; in-flight jobs finish, queued jobs stay ``QUEUED`` (and
  journaled) for the next incarnation.  ``repro serve`` wires SIGTERM
  and SIGINT to exactly this.  :meth:`AnalysisService.stop` is the hard
  stop: it kills the workers and puts a running job back to ``QUEUED``.
- **deadlines** — a job still running ``deadline_seconds`` after it
  started is marked ``TIMEOUT``; its worker is killed and a fresh one
  forked (``serve.workers_respawned``), so capacity never decays.  A
  worker that dies mid-job (a crash, an ``exit`` fault) fails only that
  job, whose error names the exit status, and is replaced the same way.
- **backpressure** — with ``max_queue`` set, submissions beyond the
  queue bound raise :class:`QueueFullError`, which the HTTP layer maps
  to ``429`` + ``Retry-After``; :class:`~repro.serve.client.ServeClient`
  retries those with jittered exponential backoff.

Fault injection: the ``serve.run_job`` site (keyed by implementation)
trips inside the worker, so the default ``worker`` scope fires there;
an installed plan reaches the workers through the fork, and each worker
counts calls from zero.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Dict, List, Optional, Tuple

from .. import faults, obs
from ..core.prochecker import AnalysisConfig, ProChecker
from ..fuzz import FuzzConfig, Fuzzer, campaign_digest
from ..store import ResultStore, job_digest, job_key
from ..workers import Worker, exception_chain
from .jobs import KIND_FUZZ, JobRecord, JobRegistry, JobStatus
from .journal import JobJournal


class ServiceError(Exception):
    """Raised for unacceptable submissions (e.g. fault-plan configs)."""


class QueueFullError(ServiceError):
    """Admission control: the queue is at ``max_queue``.  The HTTP
    layer maps this to ``429`` with a ``Retry-After`` header."""

    def __init__(self, message: str, retry_after_seconds: float = 1.0):
        super().__init__(message)
        self.retry_after_seconds = retry_after_seconds


class ServiceDrainingError(ServiceError):
    """The service is draining (or stopped) and accepts no new work.
    Mapped to ``503`` + ``Retry-After`` — another instance (or the
    restarted one) will take the submission."""

    def __init__(self, message: str, retry_after_seconds: float = 5.0):
        super().__init__(message)
        self.retry_after_seconds = retry_after_seconds


def _run_in_worker(request: Tuple[str, Dict]) -> object:
    """One job, inside a worker: the report payload or the campaign
    summary."""
    kind, payload = request
    faults.trip("serve.run_job", key=payload.get("implementation"))
    if kind == KIND_FUZZ:
        return Fuzzer(FuzzConfig.from_dict(payload)).run().summary()
    config = AnalysisConfig.from_dict(payload)
    return ProChecker.from_config(config).analyze().to_dict()


class AnalysisService:
    """Durable job queue + worker-process fleet in front of the
    verification pipeline."""

    def __init__(self, store: ResultStore, workers: int = 2,
                 default_engine_jobs: Optional[int] = 1,
                 journal: Optional[JobJournal] = None,
                 max_queue: Optional[int] = None,
                 default_deadline_seconds: Optional[float] = None,
                 retry_after_seconds: float = 1.0):
        """``workers`` concurrent jobs; each job's *internal* check-phase
        width defaults to ``default_engine_jobs`` when the submitted
        config leaves ``jobs`` unset (``None`` delegates to the config's
        own default of all cores — sensible for a single-job service,
        oversubscribed for a wide worker fleet).

        ``journal`` makes the queue durable, ``max_queue`` bounds it,
        ``default_deadline_seconds`` applies to jobs whose payload does
        not carry its own ``deadline_seconds``.  Deadlines and queue
        bounds are scheduling knobs: they never enter job identity.
        """
        self.store = store
        self.workers = max(1, workers)
        self.default_engine_jobs = default_engine_jobs
        self.journal = journal
        self.max_queue = max_queue
        self.default_deadline_seconds = default_deadline_seconds
        self.retry_after_seconds = retry_after_seconds
        self.registry = JobRegistry()
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        #: slot index -> its current worker; only the slot's owner
        #: thread replaces an entry
        self._workers: List[Worker] = []
        self._owners: List[threading.Thread] = []
        self._started = False
        self._stopping = False
        self._draining = False
        self._recovered = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "AnalysisService":
        if self._started:
            return self
        self._started = True
        self._stopping = False
        self._draining = False
        self._rebuild_queue()
        if self.journal is not None and not self._recovered:
            self._recover()
        self._workers = [Worker(f"serve-worker-{index}", _run_in_worker)
                         for index in range(self.workers)]
        self._owners = [threading.Thread(target=self._owner_loop,
                                         args=(index,),
                                         name=f"serve-owner-{index}",
                                         daemon=True)
                        for index in range(self.workers)]
        for owner in self._owners:
            owner.start()
        return self

    def drain(self, wait: bool = True,
              timeout: Optional[float] = None) -> bool:
        """Enter drain mode: stop accepting and dequeueing new work.

        In-flight jobs run to completion; queued jobs stay ``QUEUED``
        (journaled — the next incarnation replays them).  With
        ``wait=True``, blocks until no job is ``RUNNING`` (bounded by
        ``timeout``); returns whether the service is fully idle.
        """
        already = self._draining
        self._draining = True
        if not already:
            obs.count("serve.drains")
        if wait:
            return self.wait_idle(timeout)
        return not self.registry.list(JobStatus.RUNNING)

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no job is ``RUNNING``; returns False on timeout."""
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        while self.registry.list(JobStatus.RUNNING):
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.02)
        return True

    def stop(self) -> None:
        """Hard stop: kill the workers and wait for their owners.

        A running job goes back to ``QUEUED`` (its journal holds a start
        without a finish, so a replay or the next :meth:`start` runs it
        again); queued jobs stay ``QUEUED``.  :meth:`drain` is the
        graceful path.  Idempotent, and restartable: ``stop()`` then
        ``start()`` forks a fresh fleet over the same registry and queue.
        """
        if not self._started or self._stopping:
            return
        self._stopping = True
        for _ in self._owners:
            self._queue.put(None)
        for worker in self._workers:
            worker.kill()
        for owner in self._owners:
            owner.join()
        self._owners, self._workers = [], []
        self._started = False
        self._stopping = False

    @property
    def started(self) -> bool:
        return self._started

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def ready(self) -> bool:
        """Readiness: accepting submissions (liveness is being up)."""
        return self._started and not self._draining and not self._stopping

    # ------------------------------------------------------------------
    # Journal recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Replay the journal: re-queue every unfinished job, in the
        original submission order.  Jobs whose digest is already in the
        store complete as O(1) hits right here; the rest run cold."""
        replay = self.journal.replay()
        self.registry.advance_past(replay.max_job_number)
        for entry in replay.pending:
            record = JobRecord(
                job_id=entry["job_id"],
                digest=entry["digest"],
                implementation=entry.get("implementation", ""),
                payload=dict(entry.get("payload") or {}),
                kind=entry.get("kind", "analysis"),
                deadline_seconds=entry.get("deadline_seconds"),
                submitted_at=entry.get("submitted_at", time.time()),
            )
            self.registry.add(record)
        # Compact: the finished history has served its purpose; the new
        # journal holds exactly the still-pending submissions.
        self.journal.rotate(list(replay.pending))
        for entry in replay.pending:
            record = self.registry.get(entry["job_id"])
            if record.kind != KIND_FUZZ \
                    and self.store.get(record.digest) is not None:
                obs.count("serve.store_hits")
                self._finish_hit(record)
            else:
                obs.count("serve.jobs_requeued")
                self._queue.put(record.job_id)
        self._recovered = True

    # ------------------------------------------------------------------
    # Submission (the bridge side)
    # ------------------------------------------------------------------
    def submit(self, payload: Dict) -> JobRecord:
        """Accept one job payload: an analysis config, or a fuzz
        campaign when the payload says ``"type": "fuzz"``.

        Raises :class:`~repro.schema.SchemaVersionError` /
        :class:`~repro.core.engine.EngineError` /
        :class:`~repro.store.StoreError` /
        :class:`~repro.fuzz.FuzzConfigError` on malformed payloads,
        :class:`ServiceError` on fault-plan submissions (a shared
        service must not let one client sabotage the worker fleet),
        :class:`ServiceDrainingError` while draining and
        :class:`QueueFullError` past the queue bound.
        """
        self._admit()
        if payload.get("type") == KIND_FUZZ:
            return self._submit_fuzz(payload)
        config = AnalysisConfig.from_dict(payload)
        if config.fault_plan is not None:
            raise ServiceError(
                "fault-plan submissions are not accepted in service "
                "mode; use the one-shot CLI (--inject-fault) instead")
        if config.jobs is None and self.default_engine_jobs is not None:
            config.jobs = self.default_engine_jobs
        digest = job_digest(config)
        record = JobRecord(
            job_id=self.registry.allocate_id(),
            digest=digest,
            implementation=config.implementation,
            payload=config.to_dict(),
            deadline_seconds=self._resolve_deadline(payload),
        )
        self._journal_submit(record)
        self.registry.add(record)
        if self.store.get(digest) is not None:
            # O(1) path: identical job already analysed — serve it
            # straight from the store, consuming zero pipeline work.
            obs.count("serve.store_hits")
            self._finish_hit(record)
        else:
            obs.count("serve.jobs_queued")
            self._queue.put(record.job_id)
        return record

    def _submit_fuzz(self, payload: Dict) -> JobRecord:
        """Queue one fuzz campaign.

        Campaigns are *store-exempt*: they are open-ended discovery
        work, not content-addressed analyses — identical resubmission
        deliberately re-runs (the determinism contract makes that a
        byte-identical re-derivation, which is exactly what a CI
        re-check wants).  The campaign digest still names the job so
        clients can correlate runs.
        """
        config = FuzzConfig.from_dict(payload)
        record = JobRecord(
            job_id=self.registry.allocate_id(),
            digest=campaign_digest(config),
            implementation=config.implementation,
            payload=config.to_dict(),
            kind=KIND_FUZZ,
            deadline_seconds=self._resolve_deadline(payload),
        )
        self._journal_submit(record)
        self.registry.add(record)
        obs.count("serve.fuzz_jobs_queued")
        self._queue.put(record.job_id)
        return record

    def _admit(self) -> None:
        """Admission control: drain state first, then the queue bound."""
        if self._draining or self._stopping:
            obs.count("serve.drain_rejections")
            raise ServiceDrainingError(
                "service is draining and accepts no new jobs; retry "
                "against the restarted instance",
                retry_after_seconds=max(5.0, self.retry_after_seconds))
        if self.max_queue is not None \
                and self._queue.qsize() >= self.max_queue:
            obs.count("serve.queue_rejections")
            raise QueueFullError(
                f"queue is full ({self.max_queue} job(s) pending); "
                f"retry after backoff",
                retry_after_seconds=self.retry_after_seconds)

    def _resolve_deadline(self, payload: Dict) -> Optional[float]:
        deadline = payload.get("deadline_seconds")
        if deadline is None:
            return self.default_deadline_seconds
        try:
            deadline = float(deadline)
        except (TypeError, ValueError):
            raise ServiceError(
                f"deadline_seconds must be a positive number, "
                f"got {payload.get('deadline_seconds')!r}") from None
        if deadline <= 0:
            raise ServiceError("deadline_seconds must be > 0")
        return deadline

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def job(self, job_id: str) -> JobRecord:
        return self.registry.get(job_id)

    def jobs(self, status: Optional[JobStatus] = None,
             implementation: Optional[str] = None) -> List[JobRecord]:
        return self.registry.list(status, implementation)

    def report(self, digest: str) -> Optional[Dict]:
        return self.store.get(digest)

    def progress(self, job_id: str) -> Dict:
        """Progress of one job: status and elapsed wall-clock.  Its
        counters are the worker's exact registry drain, filed when the
        job finishes (empty while it runs and for store hits)."""
        record = self.registry.get(job_id)
        return {
            "status": record.status.value,
            "elapsed_seconds": record.elapsed_seconds(),
            "counters": dict(record.counters),
        }

    def stats(self) -> Dict:
        """Service-level health block (the ``/v1/health`` body).

        ``live`` is trivially true when the process answers; ``ready``
        is the readiness half of the split — up, not draining, not
        stopping.  A full queue is *backpressure* (429 on submit), not
        unreadiness; it is reported separately as ``queue_full``.
        """
        by_status: Dict[str, int] = {}
        for record in self.registry.list():
            by_status[record.status.value] = \
                by_status.get(record.status.value, 0) + 1
        alive = sum(1 for worker in self._workers
                    if worker.process.is_alive())
        queued = self._queue.qsize()
        return {
            "live": True,
            "ready": self.ready,
            "draining": self._draining,
            "workers": self.workers,
            "workers_alive": alive,
            "queued": queued,
            "max_queue": self.max_queue,
            "queue_full": (self.max_queue is not None
                           and queued >= self.max_queue),
            "jobs": by_status,
            "store": self.store.stats(),
            "journal": (self.journal.stats()
                        if self.journal is not None else None),
        }

    # ------------------------------------------------------------------
    # The worker fleet (the scheduler side)
    # ------------------------------------------------------------------
    def _owner_loop(self, index: int) -> None:
        """Owner thread of slot ``index``: feed its worker one job at a
        time until the stop sentinel, then reap the worker."""
        while True:
            job_id = self._queue.get()
            if job_id is None:
                break
            if self._stopping or self._draining:
                # Drain/stop: leave the job QUEUED (it is journaled — a
                # restart replays it); keep cycling so the stop
                # sentinel is reached.
                continue
            record: Optional[JobRecord] = None
            try:
                record = self.registry.get(job_id)
                self._run_job(record, index)
            except Exception as exc:  # noqa: BLE001 - owner must survive
                obs.count("serve.worker_loop_errors")
                if record is not None:
                    # An exception outside the per-job isolation
                    # boundary (e.g. dispatch) must not strand the
                    # record RUNNING or QUEUED forever; fail it instead.
                    self._strand_failed(record, exc)
        self._workers[index].close()

    def _strand_failed(self, record: JobRecord, exc: BaseException) -> None:
        record.error = exception_chain(exc)
        self._finalize(record, JobStatus.FAILED, "serve.jobs_failed")
        obs.count("serve.jobs_stranded")

    def _run_job(self, record: JobRecord, index: int) -> None:
        worker = self._workers[index]
        record.status = JobStatus.RUNNING
        record.started_at = time.time()
        record.worker = worker.name
        try:
            # Write-ahead: a failing start append fails this job (the
            # journal can no longer promise recovery for it) but never
            # the worker.
            self._journal_start(record)
            # In-flight coalescing: an identical job may have finished
            # (and filed its report) between submission and now.
            if record.kind != KIND_FUZZ \
                    and self.store.get(record.digest) is not None:
                obs.count("serve.store_hits")
                self._finish_hit(record)
                return
            timeout = None
            if record.deadline_seconds is not None:
                timeout = max(0.0, record.started_at
                              + record.deadline_seconds - time.time())
            try:
                worker.conn.send((record.kind, record.payload))
                if not worker.conn.poll(timeout):
                    self._time_out(record, index)
                    return
                ok, result, metrics = worker.conn.recv()
            except (EOFError, OSError):
                self._worker_died(record, index)
                return
            obs.metrics().merge(metrics)
            counters = dict(metrics.get("counters", {}))
            if not ok:
                record.error = result
                self._finalize(record, JobStatus.FAILED,
                               "serve.jobs_failed", counters)
            elif record.kind == KIND_FUZZ:
                record.result = result
                self._finalize(record, JobStatus.DONE,
                               "serve.fuzz_jobs_completed", counters)
            else:
                config = AnalysisConfig.from_dict(record.payload)
                self.store.put(record.digest, result, key=job_key(config))
                self._finalize(record, JobStatus.DONE,
                               "serve.jobs_completed", counters)
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            record.error = exception_chain(exc)
            self._finalize(record, JobStatus.FAILED, "serve.jobs_failed")

    def _time_out(self, record: JobRecord, index: int) -> None:
        """The deadline passed: kill the worker, fork its replacement,
        then publish ``TIMEOUT`` — whoever sees the status also sees
        the counters and the fresh worker."""
        running = time.time() - record.started_at
        self._replace_worker(index)
        record.error = (
            f"JobDeadlineExceeded: job {record.job_id} exceeded its "
            f"{record.deadline_seconds:.3f}s deadline (running "
            f"{running:.3f}s on {record.worker}, which was killed)")
        self._finalize(record, JobStatus.TIMEOUT, "serve.jobs_timed_out")

    def _worker_died(self, record: JobRecord, index: int) -> None:
        """The worker exited mid-job.  Under :meth:`stop` that was the
        hard stop, and the job goes back to ``QUEUED``; otherwise only
        this job fails and the worker is replaced."""
        process = self._workers[index].process
        self._replace_worker(index)
        if self._stopping:
            record.status = JobStatus.QUEUED
            record.started_at = None
            record.worker = ""
            return
        record.error = (f"WorkerExited: {record.worker} exited with "
                        f"status {process.exitcode} while running job "
                        f"{record.job_id}")
        self._finalize(record, JobStatus.FAILED, "serve.jobs_failed")

    def _replace_worker(self, index: int) -> None:
        """Reap slot ``index``'s worker; fork a fresh one unless the
        service is stopping."""
        self._workers[index].close()
        if not self._stopping:
            self._workers[index] = Worker(f"serve-worker-{index}",
                                          _run_in_worker)
            obs.count("serve.workers_respawned")

    def _finalize(self, record: JobRecord, status: JobStatus, counter: str,
                  counters: Optional[Dict[str, float]] = None) -> None:
        """Terminal transition: account first, publish the status last."""
        record.finished_at = time.time()
        if counters is not None:
            record.counters = counters
        obs.count(counter)
        record.status = status
        self._journal_finish(record)

    def _finish_hit(self, record: JobRecord) -> None:
        record.store_hit = True
        record.counters = {}
        record.finished_at = time.time()
        record.status = JobStatus.DONE
        self._journal_finish(record)

    # ------------------------------------------------------------------
    # Journal plumbing
    # ------------------------------------------------------------------
    def _journal_submit(self, record: JobRecord) -> None:
        """Write-ahead: raising here fails the *submission* — the job
        is neither registered nor queued, so the caller can retry."""
        if self.journal is not None:
            self.journal.append_submit(record)

    def _journal_start(self, record: JobRecord) -> None:
        if self.journal is not None:
            self.journal.append_start(record)

    def _journal_finish(self, record: JobRecord) -> None:
        """Best-effort: the job's outcome is already decided (and a
        DONE analysis is in the store), so a failing finish append is
        counted and tolerated — a replay resolves the job as a store
        hit instead of losing the verdict."""
        if self.journal is None:
            return
        try:
            self.journal.append_finish(record)
        except Exception:  # noqa: BLE001 - durability must not undo work
            obs.count("serve.journal_append_failures")

    def _rebuild_queue(self) -> None:
        """Re-derive the queue from the registry (restart path).

        A previous fleet leaves stop sentinels behind, and a draining
        worker consumes a job id while leaving its record ``QUEUED`` —
        so on (re)start the registry, not the residual queue, is the
        source of truth: drop everything queued and re-enqueue every
        ``QUEUED`` record in submission order.
        """
        self._drain_residual_queue()
        for record in self.registry.list(JobStatus.QUEUED):
            self._queue.put(record.job_id)

    def _drain_residual_queue(self) -> None:
        while True:
            try:
                self._queue.get_nowait()
            except queue.Empty:
                return
