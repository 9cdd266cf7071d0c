"""The run-server's REST surface (stdlib ``http.server``, versioned ``/v1``).

Endpoints — every body is JSON unless noted:

========  =================================  =====================================
method    path                               meaning
========  =================================  =====================================
GET       ``/v1/healthz``                    liveness + API version
POST      ``/v1/jobs``                       submit a JobSpec payload → ``job_id``
GET       ``/v1/jobs``                       all jobs' status records
GET       ``/v1/jobs/<id>``                  one status record (+ effective spec)
POST      ``/v1/jobs/<id>/pause``            SIGKILL worker, keep job resumable
POST      ``/v1/jobs/<id>/resume``           new worker from newest checkpoint
POST      ``/v1/jobs/<id>/cancel``           SIGKILL worker, end job
GET       ``/v1/jobs/<id>/metrics``          flushed obs rows (``?since=N``);
                                             ``?raw=1`` = the metrics.jsonl bytes
                                             verbatim; ``?snapshot=1`` = flat
                                             ``{series: value}`` of the last row
GET       ``/v1/jobs/<id>/report``           the ``repro.obs report`` JSON payload
GET       ``/v1/jobs/<id>/result``           final history (completed jobs)
========  =================================  =====================================

Error mapping: schema violations → 400, unknown job → 404, illegal
lifecycle transition → 409, a body over :data:`MAX_BODY_BYTES` → 413 (refused
before it is read), everything carries ``{"error": ...}``.

The metrics endpoint reads the worker's live ``metrics.jsonl`` through
the same tolerant reader the CLI report uses
(:func:`repro.obs.report.load_rows`) — a flush caught mid-write is
simply not served yet.  ``?raw=1`` returns the file bytes untouched,
which is the byte-identity contract the lifecycle tests pin.
"""

from __future__ import annotations

import json
import logging
import re
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Tuple, Union
from urllib.parse import parse_qs, urlparse

from ..obs.report import flatten_row, load_rows, report_payload
from .jobs import InvalidTransition, JobManager, UnknownJob

__all__ = ["API_VERSION", "MAX_BODY_BYTES", "RunServer", "create_server"]

#: Version segment of every route (``/v1/...``) and the ``healthz`` echo.
API_VERSION = 1

#: Largest request body the server reads; a JobSpec is a few kB.
MAX_BODY_BYTES = 1 << 20

logger = logging.getLogger(__name__)

_JOB_ROUTE = re.compile(r"^/v1/jobs/(?P<job_id>[A-Za-z0-9._-]+)"
                        r"(?:/(?P<verb>[a-z]+))?$")


class RunServer(ThreadingHTTPServer):
    """ThreadingHTTPServer with the :class:`JobManager` attached."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int],
                 manager: JobManager) -> None:
        super().__init__(address, _Handler)
        self.manager = manager

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def shutdown_workers(self) -> None:
        self.manager.shutdown()


def create_server(root: Union[str, Path], host: str = "127.0.0.1",
                  port: int = 0) -> RunServer:
    """Bind a run-server on ``host:port`` (0 = ephemeral) over ``root``."""
    return RunServer((host, port), JobManager(root))


class _BodyTooLarge(Exception):
    """A request claimed a body over :data:`MAX_BODY_BYTES`."""


class _Handler(BaseHTTPRequestHandler):
    server: RunServer  # narrowed from BaseServer for self.server.manager

    # -- plumbing ------------------------------------------------------ #
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        logger.debug("%s - %s", self.address_string(), format % args)

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_bytes(self, status: int, body: bytes,
                    content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length < 0:  # rfile.read(-1) would block until the client hangs up
            raise ValueError(f"Content-Length must not be negative, got {length}")
        if length > MAX_BODY_BYTES:
            raise _BodyTooLarge(f"request body of {length} bytes exceeds {MAX_BODY_BYTES}")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ValueError("request body must be a JSON object")
        payload = json.loads(raw)
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    # -- dispatch ------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        try:
            self._route(method)
        except (ValueError, TypeError, json.JSONDecodeError) as exc:
            self._send_json(400, {"error": str(exc)})
        except _BodyTooLarge as exc:
            self._send_json(413, {"error": str(exc)})
        except UnknownJob as exc:
            self._send_json(404, {"error": f"unknown job: {exc.args[0]}"})
        except InvalidTransition as exc:
            self._send_json(409, {"error": str(exc)})
        except BrokenPipeError:  # pragma: no cover - client went away
            pass
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            logger.exception("unhandled error serving %s %s", method, self.path)
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _route(self, method: str) -> None:
        parsed = urlparse(self.path)
        path = parsed.path.rstrip("/") or "/"
        query = {key: values[-1]
                 for key, values in parse_qs(parsed.query).items()}
        manager = self.server.manager

        if method == "GET" and path == "/v1/healthz":
            self._send_json(200, {"ok": True, "api_version": API_VERSION,
                                  "jobs": len(manager.job_ids())})
            return
        if path == "/v1/jobs":
            if method == "POST":
                job_id = manager.submit(self._read_body())
                self._send_json(201, {"job_id": job_id,
                                      "status": manager.status(job_id)})
            else:
                self._send_json(200, {"jobs": manager.list_jobs()})
            return

        match = _JOB_ROUTE.match(path)
        if match is None:
            self._send_json(404, {"error": f"no such route: {path}"})
            return
        job_id = match.group("job_id")
        verb = match.group("verb")

        if method == "POST":
            actions = {"pause": manager.pause, "resume": manager.resume,
                       "cancel": manager.cancel}
            action = actions.get(verb or "")
            if action is None:
                self._send_json(404, {"error": f"no such action: {verb}"})
                return
            self._send_json(200, action(job_id))
            return

        if verb is None:
            record = manager.status(job_id)
            record["spec"] = manager.spec(job_id)
            self._send_json(200, record)
        elif verb == "metrics":
            self._serve_metrics(job_id, query)
        elif verb == "report":
            rows = self._load_metrics_rows(job_id)
            self._send_json(200, dict(report_payload(rows)))
        elif verb == "result":
            self._send_json(200, manager.result(job_id))
        else:
            self._send_json(404, {"error": f"no such resource: {verb}"})

    # -- metrics ------------------------------------------------------- #
    def _load_metrics_rows(self, job_id: str) -> Any:
        path = self.server.manager.metrics_path(job_id)
        if not path.exists():
            return []
        return load_rows(path, tolerant=True)

    def _serve_metrics(self, job_id: str, query: Dict[str, str]) -> None:
        manager = self.server.manager
        if query.get("raw"):
            path = manager.metrics_path(job_id)
            body = path.read_bytes() if path.exists() else b""
            self._send_bytes(200, body, "application/jsonl")
            return
        rows = self._load_metrics_rows(job_id)
        if query.get("snapshot"):
            snapshot = flatten_row(rows[-1]) if rows else {}
            self._send_json(200, {"job_id": job_id, "snapshot": snapshot})
            return
        since = int(query.get("since", 0))
        self._send_json(200, {"job_id": job_id, "total": len(rows),
                              "since": since, "rows": rows[since:]})
