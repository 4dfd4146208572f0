"""The ``/v1`` HTTP JSON API (stdlib-only, no framework).

Routes — every response body is a ``schema_version``-stamped JSON
object (the contract is documented in ``docs/api.md``):

- ``POST /v1/jobs`` — submit an ``AnalysisConfig`` wire payload, or a
  fuzz-campaign payload (``{"type": "fuzz", "implementation": ...}``);
  ``202`` when queued, ``200`` when served from the result store
  (fuzz campaigns are store-exempt, so they always queue);
- ``GET /v1/jobs`` — list jobs (``?status=…&implementation=…``);
- ``GET /v1/jobs/{id}`` — one job record + progress (elapsed time;
  the job's counters once it finishes; a finished fuzz job carries
  its campaign summary under ``result``);
- ``GET /v1/reports/{digest}`` — a stored analysis report;
- ``GET /v1/health`` — *liveness*: always ``200`` while the process
  answers; the body carries ``ready``/``draining`` and the
  worker/queue/store/journal health block;
- ``GET /v1/health/ready`` — *readiness*: ``200`` only when the
  service accepts submissions, ``503`` while draining or stopped
  (orchestrators route traffic on this split: a draining instance is
  alive but must receive no new work).

Errors are JSON too: ``{"error": ..., "schema_version": ...}`` with
``400`` for malformed payloads (bad JSON, unknown wire major, unknown
implementation, uncacheable config), ``404`` for unknown routes, ids
and digests, ``405`` for unsupported methods, ``429`` +
``Retry-After`` when admission control rejects a submission over the
``--max-queue`` bound, ``503`` + ``Retry-After`` while draining, and
``500`` for anything unexpected (the handler never lets an exception
escape to a hung connection).
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .. import schema
from ..core.engine import EngineError
from ..fuzz import FuzzConfigError
from ..store import StoreError
from .jobs import JobStatus
from .service import (AnalysisService, QueueFullError, ServiceDrainingError,
                      ServiceError)

#: Largest accepted request body (a config payload is tiny; anything
#: bigger is a client error or abuse).
MAX_BODY_BYTES = 1 << 20


class ServiceHTTPServer(ThreadingHTTPServer):
    """One HTTP front end bound to one :class:`AnalysisService`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int],
                 service: AnalysisService, quiet: bool = True):
        self.service = service
        self.quiet = quiet
        super().__init__(address, ServiceHandler)

    @property
    def port(self) -> int:
        return self.server_address[1]


class ServiceHandler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args) -> None:
        if not self.server.quiet:            # pragma: no cover - verbose
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: Dict,
                   headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(schema.stamp(dict(payload)), sort_keys=True,
                          default=str).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, status: int, message: str,
                    headers: Optional[Dict[str, str]] = None) -> None:
        self._send_json(status, {"error": message}, headers=headers)

    def _read_body(self) -> Optional[Dict]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0 or length > MAX_BODY_BYTES:
            self._send_error(400, "request body required (JSON object, "
                                  f"<= {MAX_BODY_BYTES} bytes)")
            return None
        try:
            payload = json.loads(self.rfile.read(length))
        except (ValueError, UnicodeDecodeError) as exc:
            self._send_error(400, f"unparseable JSON body: {exc}")
            return None
        if not isinstance(payload, dict):
            self._send_error(400, "body must be a JSON object")
            return None
        return payload

    @staticmethod
    def _retry_after(seconds: float) -> Dict[str, str]:
        # Retry-After is delta-seconds; round up so 0.3s never becomes
        # an immediate (0s) retry storm.
        return {"Retry-After": str(max(1, int(-(-seconds // 1))))}

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_POST(self) -> None:   # noqa: N802 - http.server API
        path = urlparse(self.path).path.rstrip("/")
        if path != "/v1/jobs":
            self._send_error(404, f"no such route: POST {path}")
            return
        payload = self._read_body()
        if payload is None:
            return
        try:
            record = self.server.service.submit(payload)
        except QueueFullError as exc:
            self._send_error(
                429, str(exc),
                headers=self._retry_after(exc.retry_after_seconds))
            return
        except ServiceDrainingError as exc:
            self._send_error(
                503, str(exc),
                headers=self._retry_after(exc.retry_after_seconds))
            return
        except (schema.SchemaVersionError, EngineError, StoreError,
                ServiceError, FuzzConfigError, ValueError) as exc:
            self._send_error(400, str(exc))
            return
        except Exception as exc:  # noqa: BLE001 - answer, don't hang up
            self._send_error(500, f"internal error: {exc}")
            return
        # A submit-time store hit is already complete: 200.  A queued
        # job is accepted-but-pending: 202, poll /v1/jobs/{id}.
        self._send_json(200 if record.store_hit else 202,
                        record.to_dict())

    def do_GET(self) -> None:    # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        if parts == ["v1", "health"]:
            # Liveness: a process that can build this body is alive.
            self._send_json(200, self.server.service.stats())
        elif parts == ["v1", "health", "ready"]:
            self._get_readiness()
        elif parts == ["v1", "jobs"]:
            self._list_jobs(parse_qs(parsed.query))
        elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            self._get_job(parts[2])
        elif len(parts) == 3 and parts[:2] == ["v1", "reports"]:
            self._get_report(parts[2])
        else:
            self._send_error(404, f"no such route: GET {parsed.path}")

    def _get_readiness(self) -> None:
        service = self.server.service
        body = {"live": True, "ready": service.ready,
                "draining": service.draining}
        if service.ready:
            self._send_json(200, body)
        else:
            self._send_json(503, body, headers=self._retry_after(5.0))

    def _list_jobs(self, query: Dict) -> None:
        status = None
        raw_status = (query.get("status") or [None])[0]
        if raw_status is not None:
            try:
                status = JobStatus(raw_status)
            except ValueError:
                self._send_error(
                    400, f"unknown status {raw_status!r}; one of "
                         f"{[s.value for s in JobStatus]}")
                return
        implementation = (query.get("implementation") or [None])[0]
        records = self.server.service.jobs(status, implementation)
        self._send_json(200, {
            "jobs": [record.to_dict() for record in records],
            "count": len(records),
        })

    def _get_job(self, job_id: str) -> None:
        try:
            record = self.server.service.job(job_id)
        except KeyError:
            self._send_error(404, f"unknown job {job_id!r}")
            return
        payload = record.to_dict()
        payload["progress"] = self.server.service.progress(job_id)
        self._send_json(200, payload)

    def _get_report(self, digest: str) -> None:
        try:
            report = self.server.service.report(digest)
        except StoreError as exc:
            self._send_error(400, str(exc))
            return
        if report is None:
            self._send_error(404, f"no report stored under {digest!r}")
            return
        self._send_json(200, {"digest": digest, "report": report})


def create_server(host: str, port: int, service: AnalysisService,
                  quiet: bool = True) -> ServiceHTTPServer:
    """Bind the API (``port=0`` picks an ephemeral port, see ``.port``)."""
    return ServiceHTTPServer((host, port), service, quiet=quiet)
