"""The service resilience layer: journal recovery, drain, deadlines and
worker processes, backpressure, and the client retry discipline."""

import json
import os
import re
import subprocess
import sys
import threading
import time

import pytest

from repro import faults, obs
from repro.core import AnalysisConfig
from repro.serve import (AnalysisService, JobJournal, JobRecord, JobStatus,
                         QueueFullError, ServeClient, ServeClientError,
                         ServiceDrainingError, create_server)
from repro.store import ResultStore

SMALL = ["SEC-01"]
OTHER = ["SEC-02"]
TERMINAL = (JobStatus.DONE, JobStatus.FAILED, JobStatus.TIMEOUT)

PIPELINE_COUNTERS = ("engine", "mc", "extraction", "cegar")


def _config(implementation="srsue", props=SMALL, **extra):
    payload = AnalysisConfig(implementation, property_ids=props).to_dict()
    payload.update(extra)
    return payload


def _wait(service, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = service.job(job_id)
        if record.status in TERMINAL:
            return record
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not reach a terminal status")


def _wait_running(service, job_id, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if service.job(job_id).status is JobStatus.RUNNING:
            return
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} never started running")


def _pipeline_work(before, after):
    delta = obs.diff_snapshots(before, after)
    return [name for name in delta.get("counters", {})
            if name.split(".")[0] in PIPELINE_COUNTERS]


def _counter_delta(before, after, name):
    delta = obs.diff_snapshots(before, after)
    return delta.get("counters", {}).get(name, 0)


class TestJournalRecovery:
    def test_restart_replays_queued_jobs_to_done(self, tmp_path):
        # Crash simulation: submissions journal + queue, but the fleet
        # never starts — exactly the state a SIGKILL leaves behind.
        store_dir, journal_dir = tmp_path / "store", tmp_path / "journal"
        crashed = AnalysisService(ResultStore(store_dir), workers=1,
                                  journal=JobJournal(journal_dir))
        first = crashed.submit(_config(props=SMALL))
        second = crashed.submit(_config(props=OTHER))

        revived = AnalysisService(ResultStore(store_dir), workers=1,
                                  journal=JobJournal(journal_dir))
        revived.start()
        try:
            for job_id in (first.job_id, second.job_id):
                assert _wait(revived, job_id).status is JobStatus.DONE
            assert revived.report(first.digest) is not None
            assert revived.report(second.digest) is not None
        finally:
            revived.stop()

    def test_replay_ignores_retired_config_keys(self, tmp_path):
        # Journals written before four AnalysisConfig fields were
        # retired carry them in every submit payload; replay must still
        # run such a job under the same digest.
        store_dir, journal_dir = tmp_path / "store", tmp_path / "journal"
        journal = JobJournal(journal_dir)
        crashed = AnalysisService(ResultStore(store_dir), workers=1,
                                  journal=journal)
        job = crashed.submit(_config())
        entries = [json.loads(line) for line in
                   journal.path.read_text().splitlines()]
        for entry in entries:
            entry["payload"].update(
                use_extraction_cache=False, share_cegar_inputs=False,
                max_group_retries=0, retry_backoff_seconds=1.0)
        journal.path.write_text("".join(json.dumps(entry) + "\n"
                                        for entry in entries))

        revived = AnalysisService(ResultStore(store_dir), workers=1,
                                  journal=JobJournal(journal_dir))
        revived.start()
        try:
            done = _wait(revived, job.job_id)
            assert done.status is JobStatus.DONE
            assert done.digest == job.digest
            assert revived.report(job.digest) is not None
        finally:
            revived.stop()

    def test_replayed_store_hit_consumes_zero_pipeline_work(self, tmp_path):
        store_dir, journal_dir = tmp_path / "store", tmp_path / "journal"
        journal = JobJournal(journal_dir)
        warm = AnalysisService(ResultStore(store_dir), workers=1,
                               journal=journal)
        warm.start()
        try:
            done = _wait(warm, warm.submit(_config()).job_id)
            assert done.status is JobStatus.DONE
        finally:
            warm.stop()
        # Crash after an identical job was journaled but never ran.
        resubmitted = AnalysisService(ResultStore(store_dir), workers=1,
                                      journal=JobJournal(journal_dir))
        ghost = resubmitted.submit(_config())
        # A submit-time store hit finishes immediately; rewind it to
        # the journaled-but-unfinished state a crash between the
        # submit append and the finish append would leave.
        assert ghost.store_hit is True

        del resubmitted
        journal2 = JobJournal(journal_dir)
        replayed = journal2.replay()
        assert replayed.pending == []  # the finish append closed it

        # Now the genuinely interesting case: a submit append with no
        # finish (crash mid-submission).  Journal it by hand.
        record = warm.job(done.job_id)
        record.job_id = "j000099"
        journal2.append_submit(record)

        before = obs.metrics().snapshot()
        revived = AnalysisService(ResultStore(store_dir), workers=1,
                                  journal=JobJournal(journal_dir))
        revived.start()
        try:
            hit = _wait(revived, "j000099")
            assert hit.status is JobStatus.DONE
            assert hit.store_hit is True
            assert hit.counters == {}
            worked = _pipeline_work(before, obs.metrics().snapshot())
            assert worked == [], f"replayed hit did real work: {worked}"
        finally:
            revived.stop()

    def test_running_at_crash_reruns_cold(self, tmp_path):
        store_dir, journal_dir = tmp_path / "store", tmp_path / "journal"
        journal = JobJournal(journal_dir)
        crashed = AnalysisService(ResultStore(store_dir), workers=1,
                                  journal=journal)
        record = crashed.submit(_config())
        # The worker had picked it up when the process died.
        record.worker = "serve-worker-0"
        journal.append_start(record)

        revived = AnalysisService(ResultStore(store_dir), workers=1,
                                  journal=JobJournal(journal_dir))
        revived.start()
        try:
            done = _wait(revived, record.job_id)
            assert done.status is JobStatus.DONE
            assert done.store_hit is False, "must re-run cold"
            assert done.counters, "a cold re-run records engine activity"
        finally:
            revived.stop()

    def test_replay_advances_the_id_counter(self, tmp_path):
        store_dir, journal_dir = tmp_path / "store", tmp_path / "journal"
        crashed = AnalysisService(ResultStore(store_dir), workers=1,
                                  journal=JobJournal(journal_dir))
        assert crashed.submit(_config()).job_id == "j000001"

        revived = AnalysisService(ResultStore(store_dir), workers=1,
                                  journal=JobJournal(journal_dir))
        revived.start()
        try:
            fresh = revived.submit(_config(props=OTHER))
            assert fresh.job_id == "j000002"
            _wait(revived, fresh.job_id)
        finally:
            revived.stop()

    def test_replay_of_identical_pair_keeps_coalesce_invariant(
            self, tmp_path):
        # Satellite: journal replay of two identical submissions must
        # still produce exactly one cold run and one store hit.
        store_dir, journal_dir = tmp_path / "store", tmp_path / "journal"
        crashed = AnalysisService(ResultStore(store_dir), workers=1,
                                  journal=JobJournal(journal_dir))
        twin_a = crashed.submit(_config())
        twin_b = crashed.submit(_config())
        assert twin_a.digest == twin_b.digest

        before = obs.metrics().snapshot()
        revived = AnalysisService(ResultStore(store_dir), workers=1,
                                  journal=JobJournal(journal_dir))
        revived.start()
        try:
            done_a = _wait(revived, twin_a.job_id)
            done_b = _wait(revived, twin_b.job_id)
            hits = [r for r in (done_a, done_b) if r.store_hit]
            cold = [r for r in (done_a, done_b) if not r.store_hit]
            assert len(hits) == 1 and len(cold) == 1
            assert hits[0].counters == {}
            assert cold[0].counters
            after = obs.metrics().snapshot()
            assert _counter_delta(before, after, "serve.store_hits") == 1
        finally:
            revived.stop()
        # The journal closed both: a third incarnation replays nothing.
        assert JobJournal(journal_dir).replay().pending == []


class TestCoalesceRace:
    def test_identical_pair_one_cold_run_one_hit(self, tmp_path):
        # Both submissions land while the store is still empty (the
        # fleet has not started), so neither can short-circuit at
        # submit time — the dequeue-time store re-check must coalesce.
        service = AnalysisService(ResultStore(tmp_path / "store"),
                                  workers=1)
        twin_a = service.submit(_config())
        twin_b = service.submit(_config())
        assert twin_a.status is JobStatus.QUEUED
        assert twin_b.status is JobStatus.QUEUED

        before = obs.metrics().snapshot()
        service.start()
        try:
            done_a = _wait(service, twin_a.job_id)
            done_b = _wait(service, twin_b.job_id)
            assert done_a.status is JobStatus.DONE
            assert done_b.status is JobStatus.DONE
            hits = [r for r in (done_a, done_b) if r.store_hit]
            cold = [r for r in (done_a, done_b) if not r.store_hit]
            assert len(hits) == 1 and len(cold) == 1
            assert hits[0].counters == {}, \
                "a coalesced hit must record zero per-job work"
            after = obs.metrics().snapshot()
            assert _counter_delta(before, after, "serve.store_hits") == 1
        finally:
            service.stop()


def _pid(record):
    return int(re.search(r"pid (\d+)", record.worker).group(1))


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestDeadlines:
    def test_hung_job_times_out_while_fleet_keeps_working(self, tmp_path):
        faults.install(faults.FaultPlan.of(faults.FaultSpec(
            site="serve.run_job", key="srsue", kind="hang", nth=1,
            hang_seconds=5.0)))
        service = AnalysisService(ResultStore(tmp_path / "store"),
                                  workers=2)
        service.start()
        try:
            before = obs.metrics().snapshot()
            hung = service.submit(_config("srsue",
                                          deadline_seconds=0.25))
            _wait_running(service, hung.job_id)
            other = service.submit(_config("reference", props=OTHER))

            timed_out = _wait(service, hung.job_id, timeout=5.0)
            assert timed_out.status is JobStatus.TIMEOUT
            assert timed_out.error.startswith("JobDeadlineExceeded")
            # Marked within the deadline margin — long before the 5s
            # hang would have released the worker.
            assert timed_out.elapsed_seconds() <= 0.25 + 0.5
            # The hung worker was killed, not abandoned.
            assert not _alive(_pid(timed_out))

            assert _wait(service, other.job_id).status is JobStatus.DONE
            after = obs.metrics().snapshot()
            assert _counter_delta(before, after,
                                  "serve.jobs_timed_out") == 1
            assert _counter_delta(before, after,
                                  "serve.workers_respawned") >= 1
            # Capacity survived: a post-timeout job still completes.
            extra = service.submit(_config("reference", props=SMALL))
            assert _wait(service, extra.job_id).status is JobStatus.DONE
            assert service.stats()["workers_alive"] == 2
        finally:
            faults.clear()
            service.stop()

    def test_timeout_is_accounted_before_it_is_published(self, tmp_path):
        faults.install(faults.FaultPlan.of(faults.FaultSpec(
            site="serve.run_job", key="srsue", kind="hang", nth=1,
            hang_seconds=5.0)))
        service = AnalysisService(ResultStore(tmp_path / "store"),
                                  workers=1)
        seen = []

        class Spy(JobRecord):
            def __setattr__(self, name, value):
                if name == "status" and value is JobStatus.TIMEOUT:
                    seen.append(obs.metrics().snapshot())
                super().__setattr__(name, value)

        record = service.submit(_config(deadline_seconds=0.2))
        record.__class__ = Spy
        before = obs.metrics().snapshot()
        service.start()
        try:
            assert _wait(service, record.job_id,
                         timeout=5.0).status is JobStatus.TIMEOUT
            at_publish, = seen
            assert _counter_delta(before, at_publish,
                                  "serve.jobs_timed_out") == 1
            assert _counter_delta(before, at_publish,
                                  "serve.workers_respawned") == 1
        finally:
            faults.clear()
            service.stop()

    def test_worker_crash_fails_only_that_job(self, tmp_path):
        faults.install(faults.FaultPlan.parse(["serve.run_job@srsue:exit:1"]))
        service = AnalysisService(ResultStore(tmp_path / "store"),
                                  workers=1)
        service.start()
        try:
            before = obs.metrics().snapshot()
            crashed = _wait(service, service.submit(_config()).job_id)
            assert crashed.status is JobStatus.FAILED
            assert crashed.error.startswith("WorkerExited")
            assert f"status {faults.DEFAULT_EXIT_CODE}" in crashed.error
            assert _counter_delta(before, obs.metrics().snapshot(),
                                  "serve.workers_respawned") == 1
            # The service survived: the next job runs on the replacement.
            healthy = service.submit(_config("reference"))
            assert _wait(service, healthy.job_id).status is JobStatus.DONE
        finally:
            faults.clear()
            service.stop()

    def test_replacement_forks_safely_while_module_locks_are_held(
            self, tmp_path):
        # A worker forked while another thread holds faults._lock (an
        # HTTP thread inside journal.append, say) or obs._lock gets
        # fresh locks, so its obs.reset() and first trip cannot
        # deadlock.
        faults.install(faults.FaultPlan.of(faults.FaultSpec(
            site="serve.run_job", key="srsue", kind="hang", nth=1,
            hang_seconds=5.0)))
        service = AnalysisService(ResultStore(tmp_path / "store"),
                                  workers=1)
        service.start()
        held, release = threading.Event(), threading.Event()

        def hold_module_locks():
            with faults._lock, obs._lock:
                held.set()
                release.wait(30.0)

        holder = threading.Thread(target=hold_module_locks, daemon=True)
        try:
            hung = service.submit(_config(deadline_seconds=0.3))
            _wait_running(service, hung.job_id)
            holder.start()
            assert held.wait(5.0)
            # The deadline kill respawns the worker under the held lock.
            assert _wait(service, hung.job_id,
                         timeout=5.0).status is JobStatus.TIMEOUT
            after = service.submit(_config("reference",
                                           deadline_seconds=20.0))
            assert _wait(service, after.job_id).status is JobStatus.DONE
        finally:
            release.set()
            faults.clear()
            service.stop()


class TestProcessWorkers:
    def test_overlapping_jobs_get_exact_counters(self, tmp_path):
        job_a = _config("srsue", props=["SEC-01", "SEC-02"])
        job_b = _config("reference", props=["SEC-01", "SEC-03", "SEC-04"])
        solo = AnalysisService(ResultStore(tmp_path / "solo"), workers=1)
        solo.start()
        try:
            solo_a = _wait(solo, solo.submit(job_a).job_id).counters
            solo_b = _wait(solo, solo.submit(job_b).job_id).counters
        finally:
            solo.stop()

        # A hangs 1s inside its pipeline (before verifying SEC-02),
        # so B runs entirely inside A's window on the second worker.
        faults.install(faults.FaultPlan.of(faults.FaultSpec(
            site="engine.verify_one", key="SEC-02", kind="hang", nth=1,
            scope="all", hang_seconds=1.0)))
        service = AnalysisService(ResultStore(tmp_path / "store"),
                                  workers=2)
        before = obs.metrics().snapshot()
        service.start()
        try:
            a = service.submit(job_a)
            _wait_running(service, a.job_id)
            time.sleep(0.2)
            b = service.submit(job_b)
            done_a = _wait(service, a.job_id)
            done_b = _wait(service, b.job_id)
        finally:
            faults.clear()
            service.stop()
        assert done_a.status is done_b.status is JobStatus.DONE
        assert done_a.started_at <= done_b.started_at
        assert done_b.finished_at <= done_a.finished_at
        for done, alone in ((done_a, solo_a), (done_b, solo_b)):
            for name in ("mc.checks", "cegar.iterations"):
                assert alone[name] > 0
                assert done.counters[name] == alone[name], name
        # Both drains are merged into the service's own registry.
        assert _counter_delta(before, obs.metrics().snapshot(),
                              "mc.checks") \
            == solo_a["mc.checks"] + solo_b["mc.checks"]

    def test_worker_hosts_the_engine_process_pool(self, tmp_path):
        service = AnalysisService(ResultStore(tmp_path / "store"),
                                  workers=1)
        service.start()
        try:
            assert all(not worker.process.daemon
                       for worker in service._workers)
            done = _wait(service, service.submit(
                _config("srsue", props=["SEC-01", "SEC-02", "SEC-03"],
                        jobs=2)).job_id)
            assert done.status is JobStatus.DONE, done.error
            assert len(service.report(done.digest)["results"]) == 3
        finally:
            service.stop()

    def test_deadline_reclaims_nested_engine_workers(self, tmp_path):
        # The engine workers of a "jobs": 2 job stay in the serve
        # worker's process group, so the deadline's group kill takes
        # them down with it while they hang.
        faults.install(faults.FaultPlan.of(faults.FaultSpec(
            site="engine.verify_group", kind="hang", nth=1,
            hang_seconds=30.0)))
        service = AnalysisService(ResultStore(tmp_path / "store"),
                                  workers=1)
        service.start()
        try:
            record = service.submit(_config(
                "srsue", props=["SEC-01", "PRIV-01"], jobs=2,
                deadline_seconds=2.0))
            _wait_running(service, record.job_id)
            serve_worker = _pid(service.job(record.job_id))
            engine_workers = []
            while len(engine_workers) < 2 \
                    and record.status is JobStatus.RUNNING:
                engine_workers = _children(serve_worker)
                time.sleep(0.02)
            assert len(engine_workers) == 2
            assert _wait(service, record.job_id,
                         timeout=10.0).status is JobStatus.TIMEOUT
            gone_by = time.monotonic() + 1.0
            while any(_running(pid) for pid in engine_workers) \
                    and time.monotonic() < gone_by:
                time.sleep(0.02)
            assert not [pid for pid in engine_workers if _running(pid)]
        finally:
            faults.clear()
            service.stop()

    def test_sigkilled_server_leaves_no_worker_behind(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2", "--store-dir", str(tmp_path / "store")],
            env=env, stderr=subprocess.PIPE, text=True)
        try:
            assert "listening on" in server.stderr.readline()
            workers = _children(server.pid)
            assert len(workers) == 2
        finally:
            server.kill()
            server.wait()
            server.stderr.close()
        # Each idle worker sees EOF on its pipe and exits.
        deadline = time.monotonic() + 10.0
        while any(_alive(pid) for pid in workers) \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if _alive(pid)]


def _children(pid):
    """Live child PIDs of ``pid`` (Linux ``/proc``)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            children.append(int(entry))
    return children


def _running(pid):
    """Whether ``pid`` is a live process; a zombie counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class TestBackpressureAndDrain:
    def test_queue_bound_rejects_with_retry_after(self, tmp_path):
        service = AnalysisService(ResultStore(tmp_path / "store"),
                                  workers=1, max_queue=1)
        service.submit(_config())  # fills the (unstarted) queue
        before = obs.metrics().snapshot()
        with pytest.raises(QueueFullError) as excinfo:
            service.submit(_config(props=OTHER))
        assert excinfo.value.retry_after_seconds > 0
        assert _counter_delta(before, obs.metrics().snapshot(),
                              "serve.queue_rejections") == 1

    def test_http_429_and_client_retry_succeeds(self, tmp_path):
        service = AnalysisService(ResultStore(tmp_path / "store"),
                                  workers=1, max_queue=1)
        service.submit(_config())
        server = create_server("127.0.0.1", 0, service, quiet=True)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.port}"
        try:
            impatient = ServeClient(base, retries=0)
            with pytest.raises(ServeClientError) as excinfo:
                impatient.submit(_config(props=OTHER))
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after is not None
            assert excinfo.value.retry_after >= 1

            # A retrying client succeeds once capacity frees: the
            # injected sleep starts the fleet, which drains the queue.
            def free_capacity(_delay):
                service.start()
                deadline = time.monotonic() + 10.0
                while service._queue.qsize() > 0 \
                        and time.monotonic() < deadline:
                    time.sleep(0.01)

            patient = ServeClient(base, retries=2, sleep=free_capacity)
            accepted = patient.submit(_config(props=OTHER))
            assert accepted["status"] in ("queued", "running", "done")
            patient.wait(accepted["job_id"])
        finally:
            server.shutdown()
            server.server_close()
            service.stop()

    def test_draining_rejects_submissions(self, tmp_path):
        service = AnalysisService(ResultStore(tmp_path / "store"),
                                  workers=1)
        service.start()
        try:
            assert service.ready is True
            assert service.drain(wait=True, timeout=5.0) is True
            assert service.ready is False
            assert service.stats()["draining"] is True
            with pytest.raises(ServiceDrainingError):
                service.submit(_config())
        finally:
            service.stop()

    def test_drain_leaves_queued_jobs_queued(self, tmp_path):
        faults.install(faults.FaultPlan.of(faults.FaultSpec(
            site="serve.run_job", key="srsue", kind="hang", nth=1,
            scope="all", hang_seconds=0.8)))
        service = AnalysisService(ResultStore(tmp_path / "store"),
                                  workers=1)
        service.start()
        try:
            busy = service.submit(_config("srsue"))
            _wait_running(service, busy.job_id)
            parked = service.submit(_config("srsue", props=OTHER))
            service.drain(wait=False)
            time.sleep(0.3)
            # The lone worker is still hung on the first job, and a
            # draining worker must not pick up the second even once
            # free — it stays QUEUED for the next incarnation.
            assert service.job(parked.job_id).status is JobStatus.QUEUED
        finally:
            faults.clear()
            service.stop()

    def test_readiness_endpoint_splits_from_liveness(self, tmp_path):
        service = AnalysisService(ResultStore(tmp_path / "store"),
                                  workers=1)
        service.start()
        server = create_server("127.0.0.1", 0, service, quiet=True)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServeClient(f"http://127.0.0.1:{server.port}")
        try:
            health = client.health()
            assert health["live"] is True
            assert health["ready"] is True
            assert health["draining"] is False
            assert client.ready() is True

            service.drain(wait=True, timeout=5.0)
            # Liveness stays 200 while draining; readiness flips 503.
            assert client.health()["draining"] is True
            assert client.ready() is False
            with pytest.raises(ServeClientError) as excinfo:
                client._request("GET", "/v1/health/ready")
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after is not None
        finally:
            server.shutdown()
            server.server_close()
            service.stop()


class TestWorkerLoopStranding:
    def test_dispatch_failure_fails_the_job_not_the_worker(self, tmp_path):
        service = AnalysisService(ResultStore(tmp_path / "store"),
                                  workers=1)
        service.start()
        try:
            def explode(record, index):
                raise RuntimeError("dispatch exploded")

            service._run_job = explode
            before = obs.metrics().snapshot()
            doomed = service.submit(_config())
            failed = _wait(service, doomed.job_id)
            assert failed.status is JobStatus.FAILED
            assert "RuntimeError: dispatch exploded" in failed.error
            after = obs.metrics().snapshot()
            assert _counter_delta(before, after,
                                  "serve.jobs_stranded") == 1
            assert _counter_delta(before, after,
                                  "serve.worker_loop_errors") == 1

            # Regression core: the worker survived and the next job runs.
            service.__dict__.pop("_run_job")
            healthy = service.submit(_config(props=OTHER))
            assert _wait(service, healthy.job_id).status is JobStatus.DONE
        finally:
            service.__dict__.pop("_run_job", None)
            service.stop()


class TestStopLifecycle:
    def test_stop_is_idempotent_and_restartable(self, tmp_path):
        service = AnalysisService(ResultStore(tmp_path / "store"),
                                  workers=2)
        service.start()
        first = _wait(service, service.submit(_config()).job_id)
        assert first.status is JobStatus.DONE
        service.stop()
        service.stop()  # second stop is a no-op
        assert service.stats()["workers_alive"] == 0
        assert service.ready is False

        service.start()
        try:
            assert service.stats()["workers_alive"] == 2
            second = _wait(service,
                           service.submit(_config(props=OTHER)).job_id)
            assert second.status is JobStatus.DONE
        finally:
            service.stop()

    def test_restart_runs_jobs_queued_while_stopped(self, tmp_path):
        service = AnalysisService(ResultStore(tmp_path / "store"),
                                  workers=1)
        service.start()
        service.stop()
        parked = service.submit(_config())
        assert parked.status is JobStatus.QUEUED
        service.start()
        try:
            assert _wait(service, parked.job_id).status is JobStatus.DONE
        finally:
            service.stop()

    def test_stop_kills_a_hung_job_and_requeues_it(self, tmp_path):
        faults.install(faults.FaultPlan.of(faults.FaultSpec(
            site="serve.run_job", key="srsue", kind="hang", nth=1)))
        journal_dir = tmp_path / "journal"
        service = AnalysisService(ResultStore(tmp_path / "store"),
                                  workers=1, journal=JobJournal(journal_dir))
        service.start()
        try:
            hung = service.submit(_config("srsue"))
            _wait_running(service, hung.job_id)
            pid = _pid(hung)
            started = time.monotonic()
            service.stop()
            assert time.monotonic() - started < 5.0
            assert not _alive(pid)
            assert service.stats()["workers_alive"] == 0
            assert hung.status is JobStatus.QUEUED
            # Start without finish: a replay would run it again too.
            pending = JobJournal(journal_dir).replay().pending
            assert [entry["job_id"] for entry in pending] == [hung.job_id]
        finally:
            faults.clear()
        service.start()
        try:
            assert _wait(service, hung.job_id).status is JobStatus.DONE
        finally:
            service.stop()


class TestJournalFaultInjection:
    def test_failed_start_append_fails_the_job_not_the_worker(
            self, tmp_path):
        service = AnalysisService(
            ResultStore(tmp_path / "store"), workers=1,
            journal=JobJournal(tmp_path / "journal"))
        service.start()
        faults.install(faults.FaultPlan.of(faults.FaultSpec(
            site="journal.append", key="start", kind="raise", nth=1,
            scope="all")))
        try:
            doomed = service.submit(_config())
            failed = _wait(service, doomed.job_id)
            assert failed.status is JobStatus.FAILED
            assert "InjectedFault" in failed.error
            faults.clear()
            # The worker survived the journal failure.
            healthy = service.submit(_config(props=OTHER))
            assert _wait(service, healthy.job_id).status is JobStatus.DONE
        finally:
            faults.clear()
            service.stop()

    def test_failed_finish_append_is_tolerated(self, tmp_path):
        store_dir, journal_dir = tmp_path / "store", tmp_path / "journal"
        service = AnalysisService(ResultStore(store_dir), workers=1,
                                  journal=JobJournal(journal_dir))
        service.start()
        faults.install(faults.FaultPlan.of(faults.FaultSpec(
            site="journal.append", key="finish", kind="raise", nth=0,
            scope="all")))
        try:
            before = obs.metrics().snapshot()
            done = _wait(service, service.submit(_config()).job_id)
            # The verdict is already in the store — losing the finish
            # append must not undo the job.
            assert done.status is JobStatus.DONE
            assert _counter_delta(before, obs.metrics().snapshot(),
                                  "serve.journal_append_failures") >= 1
        finally:
            faults.clear()
            service.stop()
        # Self-healing: the journal shows the job unfinished, but the
        # replaying service resolves it as a store hit, not a re-run.
        before = obs.metrics().snapshot()
        revived = AnalysisService(ResultStore(store_dir), workers=1,
                                  journal=JobJournal(journal_dir))
        revived.start()
        try:
            hit = _wait(revived, done.job_id)
            assert hit.status is JobStatus.DONE
            assert hit.store_hit is True
            assert _pipeline_work(before, obs.metrics().snapshot()) == []
        finally:
            revived.stop()


class TestClientRetryDiscipline:
    def _client(self, monkeypatch, outcomes, **kwargs):
        sleeps = []
        clock = {"now": 0.0}

        def fake_sleep(delay):
            sleeps.append(delay)
            clock["now"] += max(delay, 0.001)

        client = ServeClient("http://test.invalid", sleep=fake_sleep,
                             clock=lambda: clock["now"], jitter_seed=7,
                             **kwargs)
        attempts = {"n": 0}

        def scripted(method, path, payload=None):
            attempts["n"] += 1
            outcome = outcomes[min(attempts["n"] - 1, len(outcomes) - 1)]
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        monkeypatch.setattr(client, "_request", scripted)
        return client, sleeps, attempts

    def test_wait_backs_off_exponentially_with_a_cap(self, monkeypatch):
        outcomes = [{"status": "queued"}] * 6 + [{"status": "done"}]
        client, sleeps, attempts = self._client(monkeypatch, outcomes)
        record = client.wait("j1", timeout=100.0, poll_seconds=0.05,
                             poll_cap_seconds=0.4)
        assert record["status"] == "done"
        assert attempts["n"] == 7
        assert sleeps == [0.05, 0.1, 0.2, 0.4, 0.4, 0.4]

    def test_wait_honours_retry_after_from_429(self, monkeypatch):
        outcomes = [
            ServeClientError("429", status=429, retry_after=3.0),
            {"status": "done"},
        ]
        client, sleeps, _ = self._client(monkeypatch, outcomes)
        assert client.wait("j1", timeout=100.0)["status"] == "done"
        assert sleeps == [3.0]

    def test_wait_treats_timeout_status_as_terminal(self, monkeypatch):
        client, _, _ = self._client(monkeypatch, [{"status": "timeout"}])
        assert client.wait("j1")["status"] == "timeout"

    def test_wait_gives_up_at_the_deadline(self, monkeypatch):
        client, _, _ = self._client(monkeypatch, [{"status": "queued"}])
        with pytest.raises(ServeClientError, match="still queued"):
            client.wait("j1", timeout=1.0, poll_seconds=0.3)

    def test_wait_raises_non_retryable_errors(self, monkeypatch):
        outcomes = [ServeClientError("gone", status=404)]
        client, _, attempts = self._client(monkeypatch, outcomes)
        with pytest.raises(ServeClientError, match="gone"):
            client.wait("j1", timeout=10.0)
        assert attempts["n"] == 1

    def test_analysis_submit_retries_5xx(self, monkeypatch):
        outcomes = [
            ServeClientError("boom", status=500),
            ServeClientError("boom", status=503),
            {"job_id": "j1", "status": "queued"},
        ]
        client, sleeps, attempts = self._client(monkeypatch, outcomes,
                                                retries=3)
        assert client.submit({"implementation": "srsue"})["job_id"] == "j1"
        assert attempts["n"] == 3
        assert len(sleeps) == 2
        # Jittered exponential: each delay is in [base/2, base].
        for index, delay in enumerate(sleeps):
            base = min(2.0, 0.1 * (2 ** index))
            assert base / 2 <= delay <= base

    def test_analysis_submit_honours_retry_after(self, monkeypatch):
        outcomes = [
            ServeClientError("full", status=429, retry_after=2.0),
            {"job_id": "j1"},
        ]
        client, sleeps, _ = self._client(monkeypatch, outcomes, retries=1)
        client.submit({"implementation": "srsue"})
        assert sleeps == [2.0]

    def test_fuzz_submit_never_retries_http_errors(self, monkeypatch):
        outcomes = [ServeClientError("boom", status=500)]
        client, _, attempts = self._client(monkeypatch, outcomes,
                                           retries=3)
        with pytest.raises(ServeClientError, match="boom"):
            client.submit_fuzz("srsue")
        assert attempts["n"] == 1, \
            "a 5xx proves the request was read; a fuzz re-send could " \
            "start a duplicate campaign"

    def test_fuzz_submit_retries_connection_errors(self, monkeypatch):
        outcomes = [
            ServeClientError("unreachable"),  # status=None: connection
            {"job_id": "j1"},
        ]
        client, _, attempts = self._client(monkeypatch, outcomes,
                                           retries=2)
        assert client.submit_fuzz("srsue")["job_id"] == "j1"
        assert attempts["n"] == 2

    def test_backoff_jitter_stays_within_bounds(self):
        client = ServeClient("http://test.invalid", jitter_seed=11)
        for attempt in range(6):
            expected = min(2.0, 0.1 * (2 ** attempt))
            delay = client._backoff(attempt)
            assert expected / 2 <= delay <= expected
