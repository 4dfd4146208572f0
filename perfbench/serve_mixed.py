"""The ``serve_mixed`` workload: ``repro serve`` under a seeded job mix.

The server runs as a subprocess (``python -m repro serve --port 0
--workers 2 --journal DIR``) with a fresh store and journal.  One client
process drives two phases, over one keep-alive connection (a second
thread with a second connection helps submit the burst):

- **steady**: an open loop of Poisson arrivals at :data:`RATE` jobs/s
  for :data:`STEADY_SHARE` of the run.  Given their number, the arrival
  times of a Poisson process are independent uniform draws, so the
  schedule fixes the count and draws the times uniformly: every seed
  then yields the same sample counts.  The rate is a constant, at most
  about half the seed code's saturation point, and is never derived at
  run time, so a slower program meets the same load.
- **bursts**: :data:`BURSTS` rounds of the same mix, every job of a
  round due at once, each after the server went idle.  The end-to-end
  number is the server's CPU seconds per burst job, the median over the
  rounds; the rounds' completion rates and mean latencies are recorded
  too.

Each job is due at a wall-clock time; its latency runs from that time to
the server's ``finished_at``, both read from the host clock, so polling
granularity does not enter the number.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import benchlib
import gate

#: Steady-phase arrival rate (jobs/s).  On a 2-vCPU host the seed code's
#: burst capacity on this mix ranged over 280-680 jobs/min between runs
#: (the two worker threads share one interpreter lock, so one core's
#: worth); 2.5 jobs/s is at most about half of the slowest of those.  At
#: 4 jobs/s the steady phase queued whenever the host ran slow.
RATE = 2.5
#: Shares of the mix.
COLD_SHARE, HIT_SHARE, FUZZ_SHARE = 0.5, 0.4, 0.1
#: Share of the run's seconds the steady phase lasts.
STEADY_SHARE = 0.5
#: Burst rounds per run, and burst jobs per second of run time over all.
BURSTS = 3
BURST_PER_SECOND = 7.5
#: A resubmission only targets a cold job due at least this long before
#: it, so it normally finds the report already filed (a store hit).
HIT_LAG_S = 2.0
#: Executions per fuzz campaign.
FUZZ_EXECS = 200
#: Largest catalog slice of one cold analysis job.
MAX_PROPERTIES = 3
WORKERS = 2
#: Server start-ups per run; the median is ``setup_s``.
SETUP_REPEATS = 3
#: Set-up warms each implementation's extraction with one job on this
#: (cheap, testbed-kind) property, so the measured phases see a warm
#: long-running service; cold jobs never use this exact slice.
WARMUP_PROPERTY = "PRIV-20"

#: Client threads, each with its own connection, that submit the burst.
LANES = 2
#: Seconds between polls while waiting for the server to go idle.
POLL_S = 0.2

LISTENING = re.compile(r"listening on http://([^\s:/]+):(\d+)")


def parse_listening(line: str) -> Optional[Tuple[str, int]]:
    """``(host, port)`` from the server's ``listening on`` line."""
    match = LISTENING.search(line)
    if match is None:
        return None
    return match.group(1), int(match.group(2))


# ---------------------------------------------------------------------------
# The seeded schedule
# ---------------------------------------------------------------------------
@dataclass
class Job:
    index: int
    phase: str                      # "steady" | "burst"
    kind: str                       # "cold" | "hit" | "fuzz"
    offset: float                   # due time, seconds after phase start
    implementation: str
    properties: Tuple[str, ...] = ()
    source: Optional[int] = None    # the cold job a hit resubmits
    fuzz_seed: int = 0
    burst: int = 0                  # round of a burst job


def _kinds(rng: random.Random, n: int) -> List[str]:
    n_fuzz = round(n * FUZZ_SHARE)
    n_hit = round(n * HIT_SHARE)
    kinds = (["cold"] * (n - n_fuzz - n_hit) + ["hit"] * n_hit
             + ["fuzz"] * n_fuzz)
    rng.shuffle(kinds)
    return kinds


def make_schedule(seed: int, seconds: float,
                  catalog: Tuple[str, ...]) -> List[Job]:
    """Every job of one run, steady phase first, in due order.

    Cold jobs never repeat an (implementation, property set) pair; each
    hit names an earlier cold job due at least :data:`HIT_LAG_S` before
    it (steady) or any steady cold job (burst).
    """
    rng = random.Random(seed)
    seen = {(implementation, (WARMUP_PROPERTY,))
            for implementation in benchlib.IMPLEMENTATIONS}
    jobs: List[Job] = []
    # Job costs are stratified so that every seed draws a similar spread
    # of them: implementations, slice sizes and fuzz targets come in
    # shuffled rounds, and each phase deals its cold jobs' properties
    # from one shuffled catalog deck (without replacement until the
    # deck is spent), so a run-to-run difference is the program's.
    decks: Dict[str, List] = {}

    def deal(name: str, fresh) -> object:
        if not decks.get(name):
            decks[name] = list(fresh)
            rng.shuffle(decks[name])
        return decks[name].pop()

    def cold_spec() -> Tuple[str, Tuple[str, ...]]:
        while True:
            implementation = deal("implementation",
                                  benchlib.IMPLEMENTATIONS)
            count = deal("count", range(1, MAX_PROPERTIES + 1))
            properties = tuple(sorted({deal("property", catalog)
                                       for _ in range(count)}))
            if (implementation, properties) not in seen:
                seen.add((implementation, properties))
                return implementation, properties

    def add(phase: str, kind: str, offset: float,
            eligible: List[Job]) -> None:
        job = Job(len(jobs), phase, kind, offset, "")
        if kind == "hit":
            source = rng.choice(eligible)
            job.source = source.index
            job.implementation = source.implementation
            job.properties = source.properties
        elif kind == "fuzz":
            job.implementation = deal("fuzz", benchlib.IMPLEMENTATIONS)
            job.fuzz_seed = rng.randrange(2 ** 31)
        else:
            job.implementation, job.properties = cold_spec()
        jobs.append(job)

    steady_s = STEADY_SHARE * seconds
    n_steady = round(RATE * steady_s)
    offsets = sorted(rng.uniform(0.0, steady_s) for _ in range(n_steady))
    kinds = _kinds(rng, n_steady)
    for i, offset in enumerate(offsets):
        eligible = [job for job in jobs if job.kind == "cold"
                    and job.offset <= offset - HIT_LAG_S]
        if kinds[i] == "hit" and not eligible:
            # Too early for a resubmission: trade kinds with the next
            # cold job, keeping the mix shares exact.
            later = next((j for j in range(i + 1, n_steady)
                          if kinds[j] == "cold"), None)
            if later is None:
                kinds[i] = "cold"
            else:
                kinds[i], kinds[later] = kinds[later], kinds[i]
        add("steady", kinds[i], offset, eligible)

    steady_cold = [job for job in jobs if job.kind == "cold"]
    for burst in range(BURSTS):
        decks.clear()
        for kind in _kinds(rng, round(BURST_PER_SECOND * seconds / BURSTS)):
            add("burst", kind, 0.0, steady_cold)
            jobs[-1].burst = burst
    return jobs


def payload_for(job: Job, corpus_root: str) -> Dict:
    """The wire payload the program receives for ``job``."""
    from repro.api import AnalysisConfig, FuzzConfig
    if job.kind == "fuzz":
        return FuzzConfig(
            job.implementation, seed=job.fuzz_seed,
            budget_execs=FUZZ_EXECS,
            corpus_dir=os.path.join(corpus_root, f"corpus-{job.index}")
        ).to_dict()
    return AnalysisConfig(job.implementation,
                          property_ids=list(job.properties),
                          jobs=1).to_dict()


# ---------------------------------------------------------------------------
# The server subprocess
# ---------------------------------------------------------------------------
class Server:
    """One ``repro serve`` subprocess with its own store and journal."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root)
        self.store = os.path.join(root, "store")
        self.journal = os.path.join(root, "journal")
        self.log_path = os.path.join(root, "server.log")
        self._log = open(self.log_path, "w")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(WORKERS), "--store-dir", self.store,
             "--journal", self.journal],
            cwd=benchlib.ROOT, env=benchlib.program_env(),
            stdout=self._log, stderr=subprocess.STDOUT)
        try:
            self.host, self.port = self._await_listening(timeout=60.0)
            # One keep-alive connection per client thread (lane).
            self.conns = [http.client.HTTPConnection(
                self.host, self.port, timeout=60.0) for _ in range(LANES)]
            status, _ = self.request("GET", "/v1/health/ready")
            if status != 200:
                raise benchlib.BenchError(f"server not ready ({status})")
            self._warm_up()
        except BaseException:
            self.stop()
            raise
        self.startup_s = time.perf_counter() - started

    def _await_listening(self, timeout: float) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.log_path) as handle:
                for line in handle:
                    address = parse_listening(line)
                    if address is not None:
                        return address
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        with open(self.log_path) as handle:
            tail = handle.read()[-2000:]
        raise benchlib.BenchError(f"repro serve did not start: {tail}")

    def _warm_up(self) -> None:
        """One job per implementation, one at a time, so each
        implementation's extraction is cached before the measured
        phases (a long-running service is normally warm)."""
        from repro.api import AnalysisConfig
        deadline = time.monotonic() + 60.0
        for implementation in benchlib.IMPLEMENTATIONS:
            payload = AnalysisConfig(implementation, jobs=1, property_ids=[
                WARMUP_PROPERTY]).to_dict()
            status, body = self.request("POST", "/v1/jobs", payload)
            if status not in (200, 202):
                raise benchlib.BenchError(f"warm-up job refused: {status}")
            path = f"/v1/jobs/{json.loads(body)['job_id']}"
            while True:
                record = self.get_json(path)
                if record["status"] == "done":
                    break
                if record["status"] not in ("queued", "running"):
                    raise benchlib.BenchError(
                        f"warm-up job {record['status']}")
                if time.monotonic() > deadline:
                    raise benchlib.BenchError("warm-up did not finish")
                time.sleep(0.02)

    def request(self, method: str, path: str, body: Optional[Dict] = None,
                lane: int = 0) -> Tuple[int, bytes]:
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        conn = self.conns[lane]
        for attempt in (1, 2):
            try:
                conn.request(method, path, body=data, headers=headers)
                response = conn.getresponse()
                return response.status, response.read()
            except (http.client.HTTPException, ConnectionError):
                # The server may close a kept-alive connection between
                # requests: reconnect once.
                conn.close()
                if attempt == 2:
                    raise
        raise AssertionError("unreachable")

    def get_json(self, path: str) -> Dict:
        status, body = self.request("GET", path)
        if status != 200:
            raise benchlib.BenchError(f"GET {path} -> {status}: {body!r}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise benchlib.BenchError("no VmHWM for the server process")

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait; kill if it hangs."""
        for conn in getattr(self, "conns", ()):
            conn.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------
@dataclass
class Submission:
    job: Job
    due: float                      # wall-clock due time
    sent: float = 0.0               # wall-clock send time
    http_s: float = 0.0             # POST round trip
    status: int = 0
    record: Dict = field(default_factory=dict)


@dataclass
class Burst:
    subs: List[Submission]
    cpu_s: float                    # server CPU seconds the round took


def _submit(server: Server, submission: Submission, payload: Dict,
            lane: int = 0) -> None:
    submission.sent = time.time()
    started = time.perf_counter()
    status, body = server.request("POST", "/v1/jobs", payload, lane)
    submission.http_s = time.perf_counter() - started
    submission.status = status
    if status in (200, 202):
        submission.record = json.loads(body)


def _await_terminal(server: Server, submissions: List[Submission],
                    timeout: float) -> None:
    """Wait until no job is queued or running, then read every record.

    Only the (short) queued and running listings are polled, and only
    every :data:`POLL_S`: serialising the whole job list competes with
    the workers for the interpreter lock and would load the server."""
    deadline = time.monotonic() + timeout
    while True:
        pending = sum(server.get_json(f"/v1/jobs?status={status}")["count"]
                      for status in ("queued", "running"))
        if not pending:
            break
        if time.monotonic() > deadline:
            raise benchlib.BenchError(f"{pending} jobs still pending")
        time.sleep(POLL_S)
    wanted = {s.record["job_id"]: s for s in submissions if s.record}
    for record in server.get_json("/v1/jobs")["jobs"]:
        if record["job_id"] in wanted:
            wanted[record["job_id"]].record = record


def _drive(server: Server, jobs: List[Job], corpus_root: str
           ) -> Tuple[List[Submission], List["Burst"]]:
    payloads = [payload_for(job, corpus_root) for job in jobs]
    steady = [job for job in jobs if job.phase == "steady"]
    start_wall = time.time() + 0.2
    start_mono = time.monotonic() + 0.2
    steady_subs: List[Submission] = []
    for job in steady:
        pause = start_mono + job.offset - time.monotonic()
        if pause > 0:
            time.sleep(pause)
        submission = Submission(job, start_wall + job.offset)
        _submit(server, submission, payloads[job.index])
        steady_subs.append(submission)
    _await_terminal(server, steady_subs, timeout=120.0)

    bursts: List[Burst] = []
    for burst in range(BURSTS):
        start = time.time()
        subs = [Submission(job, start) for job in jobs
                if job.phase == "burst" and job.burst == burst]
        cpu = benchlib.tree_cpu_s(server.proc.pid)
        _submit_burst(server, subs, payloads)
        _await_terminal(server, subs, timeout=120.0)
        bursts.append(Burst(subs, benchlib.tree_cpu_s(server.proc.pid)
                            - cpu))
    return steady_subs, bursts


def _submit_burst(server: Server, subs: List[Submission],
                  payloads: List[Dict]) -> None:
    def submit_lane(lane: int) -> None:
        for submission in subs[lane::LANES]:
            _submit(server, submission, payloads[submission.job.index], lane)

    helper = threading.Thread(target=submit_lane, args=(1,))
    helper.start()
    try:
        submit_lane(0)
    finally:
        helper.join(timeout=120.0)
    if helper.is_alive():
        raise benchlib.BenchError("burst submission did not finish")


def _check(server: Server, submissions: List[Submission]
           ) -> Tuple[int, List[str]]:
    """Gate every job: (jobs failed, one line per problem found)."""
    failed = 0
    failures = []
    cold_reports: Dict[int, bytes] = {}
    for submission in submissions:
        job, record = submission.job, submission.record
        problems: List[str] = []
        if submission.status not in (200, 202):
            problems.append(f"POST answered {submission.status}")
        elif record.get("status") != "done":
            problems.append(f"ended {record.get('status')}: "
                            f"{record.get('error', '')[:300]}")
        elif job.kind == "fuzz":
            execs = (record.get("result") or {}).get("execs")
            if execs != FUZZ_EXECS:
                problems.append(f"campaign ran {execs} executions")
        else:
            status, body = server.request(
                "GET", f"/v1/reports/{record['digest']}")
            if status != 200:
                problems.append(f"report fetch answered {status}")
            else:
                report = json.loads(body)["report"]
                problems.extend(gate.analysis_report_failures(
                    job.implementation, job.properties, report))
                if job.kind == "cold":
                    cold_reports[job.index] = body
                elif not record.get("store_hit"):
                    problems.append("resubmission was not a store hit")
                elif body != cold_reports.get(job.source):
                    problems.append(f"hit report differs from job "
                                    f"{job.source}'s")
        failed += bool(problems)
        failures.extend(f"job {job.index} ({job.kind}, "
                        f"{job.implementation}): {problem}"
                        for problem in problems)
    return failed, failures


def _tree_stats(path: str) -> Tuple[int, int]:
    """(files, bytes) under ``path``."""
    files = size = 0
    for directory, _, names in os.walk(path):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(directory, name))
    return files, size


def run(seed: int, seconds: float) -> Dict:
    from repro.properties import ALL_PROPERTIES
    catalog = tuple(p.identifier for p in ALL_PROPERTIES)
    jobs = make_schedule(seed, seconds, catalog)
    work = os.path.join(benchlib.WORK, f"serve-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        setups = []
        server = None
        for attempt in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            server = Server(os.path.join(work, f"server-{attempt}"))
            setups.append(server.startup_s)
        try:
            corpus_root = os.path.join(work, "corpora")
            steady, bursts = _drive(server, jobs, corpus_root)
            failed, failures = _check(
                server, steady + [s for b in bursts for s in b.subs])
            rss_mb = server.peak_rss_mb()
        finally:
            server.stop()
        _, journal_bytes = _tree_stats(server.journal)
        store_files, _ = _tree_stats(server.store)
        corpus_files, _ = _tree_stats(corpus_root)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return _metrics(setups, steady, bursts, failed, failures, rss_mb,
                    journal_bytes, store_files, corpus_files)


def _metrics(setups, steady, bursts, failed, failures, rss_mb,
             journal_bytes, store_files, corpus_files) -> Dict:
    def by_kind(subs, kind):
        return [s for s in subs if s.job.kind == kind and s.record]

    def latency(subs):
        return [s.record["finished_at"] - s.due for s in subs
                if s.record.get("finished_at") is not None]

    def run_time(subs):
        return [s.record["finished_at"] - s.record["started_at"]
                for s in subs if s.record.get("started_at") is not None
                and s.record.get("finished_at") is not None]

    cold, hits, fuzz = (by_kind(steady, k) for k in ("cold", "hit", "fuzz"))
    table = benchlib.MetricTable()
    table.add("setup_s", benchlib.median_or_zero(setups), "s", len(setups))
    table.add_timing("serve_cold_s", latency(cold))
    table.add("serve_cold_mean_s", _mean(latency(cold)), "s", len(cold))
    table.add_timing("serve_hit_s", latency(hits))
    table.add_timing("serve_fuzz_s", latency(fuzz))
    rates, means = [], []
    for burst in bursts:
        done = [s for s in burst.subs if s.record.get("status") == "done"]
        rates.append(completion_rate([s.record["finished_at"]
                                      for s in done]))
        means.append(_mean(latency(done)))
    capacity = statistics.median(rates)
    burst_mean = statistics.median(means)
    cpu_s = statistics.median(b.cpu_s / len(b.subs) for b in bursts)
    table.add("serve_capacity_jobs_per_min", capacity, "1/min", len(rates))
    table.add("serve_burst_mean_s", burst_mean, "s", len(means))
    table.add("serve_cpu_s", cpu_s, "s", len(bursts))
    table.add("peak_rss_mb", rss_mb, "MB")
    everything = steady + [s for b in bursts for s in b.subs]
    table.add("failed_share", benchlib.ratio(failed, len(everything)),
              "ratio", len(everything))

    queued = [s for s in steady if s.record
              and not s.record.get("store_hit")
              and s.record.get("started_at") is not None]
    waits = [s.record["started_at"] - s.record["submitted_at"]
             for s in queued]
    last_due = max(s.due for s in steady)
    backlog = sum(1 for s in steady if s.record
                  and (s.record.get("finished_at") or 0) > last_due)
    analysis = [s for s in everything if s.job.kind != "fuzz" and s.record]
    fuzz_all = by_kind(everything, "fuzz")
    fuzz_execs = sum((s.record.get("result") or {}).get("execs", 0)
                     for s in fuzz_all)
    http_s = [s.http_s for s in everything]
    late = [max(0.0, s.sent - s.due) for s in steady]
    mc_checks = sum(s.record.get("counters", {}).get("mc.checks", 0)
                    for s in analysis)
    per_layer = {
        "serve.capacity_jobs_per_min": capacity,
        "serve.burst_mean_s": burst_mean,
        "serve.cold_p50_s": _p(latency(cold), 50),
        "serve.cold_p90_s": _p(latency(cold), 90),
        "serve.cold_mean_s": _mean(latency(cold)),
        "serve.hit_p50_s": benchlib.median_or_zero(latency(hits)),
        "serve.hit_p90_s": _p(latency(hits), 90),
        "serve.fuzz_p50_s": benchlib.median_or_zero(latency(fuzz)),
        "serve.queue_wait_p50_s": _p(waits, 50),
        "serve.queue_wait_p90_s": _p(waits, 90),
        "serve.run_cold_mean_s": _mean(run_time(cold)),
        "serve.run_fuzz_mean_s": _mean(run_time(fuzz)),
        "serve.backlog_at_last_arrival": backlog,
        "serve.rejected": sum(1 for s in everything
                              if s.status not in (200, 202)),
        "serve.store_hit_ratio": benchlib.ratio(
            sum(1 for s in analysis if s.record.get("store_hit")),
            len(analysis)),
        "serve.job_mc_checks": mc_checks,
        "serve.http_submit_p50_s": _p(http_s, 50),
        "serve.http_submit_p90_s": _p(http_s, 90),
        "serve.journal_bytes": journal_bytes,
        "store.files": store_files,
        "fuzz.execs": fuzz_execs,
        "fuzz.execs_per_s": benchlib.ratio(
            fuzz_execs, sum(run_time(fuzz_all))),
        "fuzz.corpus_files": corpus_files,
        "loadgen.late_p90_s": _p(late, 90),
        "loadgen.late_max_s": max(late, default=0.0),
    }
    return {
        "table": table,
        "attempted": len(everything),
        "failed": failed,
        "failures": failures,
        "end_to_end": {
            "setup_s": table.value("setup_s"),
            "cpu_s": cpu_s,
            "peak_rss_mb": rss_mb,
        },
        "per_layer": per_layer,
    }


def completion_rate(finished: List[float]) -> float:
    """Jobs per minute: the least-squares slope of the completion count
    over the completion times.  Every completion of the burst weighs in,
    not only the last one, whose time is one job's luck."""
    if len(finished) < 2:
        return 0.0
    times = sorted(finished)
    mean_t = sum(times) / len(times)
    mean_i = (len(times) - 1) / 2.0
    covariance = sum((t - mean_t) * (i - mean_i)
                     for i, t in enumerate(times))
    variance = sum((t - mean_t) ** 2 for t in times)
    return benchlib.ratio(covariance * 60.0, variance)


def _p(values: List[float], p: float) -> float:
    return benchlib.percentile(values, p) if values else 0.0


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0
