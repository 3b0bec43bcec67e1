"""Stdlib HTTP API over the campaign scheduler.

``http.server.ThreadingHTTPServer`` - one thread per connection, no new
dependencies - fronting a :class:`~repro.service.scheduler.CampaignScheduler`.
Endpoints:

=======  ================================  ===================================
Method   Path                              Meaning
=======  ================================  ===================================
POST     ``/campaigns``                    Submit a campaign spec (JSON body:
                                           ``{"spec": {...}, "client": ...,
                                           "priority": ...}``) -> 202 + record
GET      ``/campaigns``                    List campaign records
GET      ``/campaigns/{id}``               One campaign's status record
GET      ``/campaigns/{id}/result``        The result payload (409 until done)
DELETE   ``/campaigns/{id}``               Cancel (queued or running)
GET      ``/campaigns/{id}/events``        Server-Sent-Events progress stream
                                           (``?from=N`` resumes a cursor)
GET      ``/healthz``                      Liveness: ``{"status": "ok"}``
GET      ``/metrics``                      Scheduler + telemetry + cache stats
GET      ``/cache``                        Disk-cache usage (bytes, budget)
POST     ``/cache/prune``                  LRU-evict to the given/current
                                           budget (``{"max_bytes": N}``)
=======  ================================  ===================================

Error mapping: bad JSON / failed spec validation -> 400, unknown
campaign -> 404, result not ready -> 409, quota exceeded -> 429 +
``Retry-After``, queue at its depth bound or storage failing -> 503 +
``Retry-After``.  Every response body is JSON (``{"error": ...}`` on
failure).  Submissions may carry an ``idempotency_key`` the scheduler
deduplicates on, which is what makes client-side POST retries safe.

``/healthz`` reports scheduler liveness (slot threads alive, oldest
running campaign's heartbeat age) so an orchestrator can restart a
wedged service; the status flips to ``"degraded"`` when no slot thread
is alive.

Chaos sites consulted per request: ``api.slow`` (sleep before
answering) and ``api.drop`` (shut the connection down unanswered -
clients must retry).

The SSE stream emits one ``data: <json>`` frame per scheduler event
(at least one per completed job) and closes after the terminal event.
Reconnecting clients pass ``?from=<next index>`` to resume where they
dropped; the buffer is in-memory, so a *server* restart resets cursors -
durable progress lives in the store's journals, not the event buffer.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.errors import InjectedFaultError
from repro.runtime import get_cache
from repro.runtime.faults import get_injector
from repro.service.scheduler import (
    CampaignScheduler,
    QueueFullError,
    QuotaExceededError,
)
from repro.service.specs import SpecError, _is_int, spec_kinds

#: Cap on accepted request bodies (a spec is a few hundred bytes).
MAX_BODY_BYTES = 1 << 20

#: Retry-After (seconds) sent with 429/503 answers.
RETRY_AFTER_S = 1


class ServiceHandler(BaseHTTPRequestHandler):
    """Request handler; the server instance carries the scheduler."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Quiet by default; honours the server's ``access_log`` switch."""
        if getattr(self.server, "access_log", False):
            super().log_message(format, *args)

    @property
    def scheduler(self) -> CampaignScheduler:
        return self.server.scheduler  # type: ignore[attr-defined]

    # ----------------------------------------------------------------- #
    # Plumbing.
    # ----------------------------------------------------------------- #

    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(
        self,
        status: int,
        message: str,
        retry_after: Optional[float] = None,
    ) -> None:
        headers = None
        if retry_after is not None:
            headers = {"Retry-After": str(max(1, int(round(retry_after))))}
        self._send_json(status, {"error": message}, headers=headers)

    def _chaos_gate(self) -> bool:
        """Consult the ``api.slow`` / ``api.drop`` chaos sites before
        handling a request.  Returns False when the connection was
        dropped (nothing may be written afterwards)."""
        injector = get_injector()
        if not injector.active:
            return True
        if injector.should_fire("api.slow"):
            time.sleep(injector.slow_s)
        if injector.should_fire("api.drop"):
            self.close_connection = True
            try:
                self.connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            return False
        return True

    def _read_body(self) -> Optional[Dict[str, Any]]:
        """Parse the JSON request body; answers 400 and returns None on
        any malformation."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            self._error(400, "missing or oversized request body")
            return None
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw or b"{}")
        except json.JSONDecodeError as error:
            self._error(400, f"invalid JSON body: {error}")
            return None
        if not isinstance(payload, dict):
            self._error(400, "request body must be a JSON object")
            return None
        return payload

    def _route(self) -> Tuple[str, Dict[str, str]]:
        parsed = urlparse(self.path)
        query = {
            key: values[-1]
            for key, values in parse_qs(parsed.query).items()
        }
        return parsed.path.rstrip("/") or "/", query

    def _campaign_id(self, path: str, suffix: str = "") -> Optional[str]:
        """Extract ``{id}`` from ``/campaigns/{id}[/suffix]``; answers
        404 when the campaign does not exist."""
        parts = path.strip("/").split("/")
        expected = 2 + (1 if suffix else 0)
        if len(parts) != expected or parts[0] != "campaigns":
            return None
        if suffix and parts[2] != suffix:
            return None
        campaign_id = parts[1]
        if campaign_id not in self.scheduler.store:
            self._error(404, f"unknown campaign {campaign_id!r}")
            return None
        return campaign_id

    # ----------------------------------------------------------------- #
    # Verbs.
    # ----------------------------------------------------------------- #

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        """healthz/metrics/cache, campaign list/status/result/events."""
        if not self._chaos_gate():
            return
        path, query = self._route()
        if path == "/healthz":
            liveness = self.scheduler.liveness()
            self._send_json(200, {
                "status": "ok" if liveness["alive"] else "degraded",
                "kinds": spec_kinds(),
                "scheduler": liveness,
                "journal_quarantined": self.scheduler.store.quarantined,
            })
        elif path == "/metrics":
            self._send_json(200, self._metrics())
        elif path == "/cache":
            self._send_json(200, self._cache_info())
        elif path == "/campaigns":
            self._send_json(200, {
                "campaigns": [
                    record.to_payload()
                    for record in self.scheduler.store.list()
                ],
            })
        elif path.endswith("/events"):
            campaign_id = self._campaign_id(path, "events")
            if campaign_id is not None:
                self._stream_events(campaign_id, query)
        elif path.endswith("/result"):
            campaign_id = self._campaign_id(path, "result")
            if campaign_id is not None:
                self._get_result(campaign_id)
        else:
            campaign_id = self._campaign_id(path)
            if campaign_id is not None:
                record = self.scheduler.store.get(campaign_id)
                self._send_json(200, record.to_payload())

    def do_POST(self) -> None:  # noqa: N802
        """``/campaigns`` (submit) and ``/cache/prune``."""
        if not self._chaos_gate():
            return
        path, _ = self._route()
        if path == "/campaigns":
            self._submit()
        elif path == "/cache/prune":
            self._prune_cache()
        else:
            self._error(404, f"no such endpoint: POST {path}")

    def do_DELETE(self) -> None:  # noqa: N802
        """``/campaigns/{id}``: cancel a queued or running campaign."""
        if not self._chaos_gate():
            return
        path, _ = self._route()
        campaign_id = self._campaign_id(path)
        if campaign_id is None:
            return
        cancelled = self.scheduler.cancel(campaign_id)
        record = self.scheduler.store.get(campaign_id)
        self._send_json(200, {
            "cancelled": cancelled,
            "state": record.state,
        })

    # ----------------------------------------------------------------- #
    # Endpoint bodies.
    # ----------------------------------------------------------------- #

    def _submit(self) -> None:
        payload = self._read_body()
        if payload is None:
            return
        spec = payload.get("spec")
        if spec is None:
            self._error(400, 'body must carry a "spec" object')
            return
        try:
            record = self.scheduler.submit(
                spec,
                client=str(payload.get("client", "")),
                priority=int(payload.get("priority", 0)),
                idempotency_key=str(payload.get("idempotency_key", "")),
            )
        except SpecError as error:
            self._error(400, str(error))
        except QuotaExceededError as error:
            self._error(429, str(error), retry_after=RETRY_AFTER_S)
        except QueueFullError as error:
            self._error(503, str(error), retry_after=error.retry_after)
        except (OSError, InjectedFaultError) as error:
            # The store could not make the submission durable (disk
            # trouble, real or injected): shed load instead of lying.
            self._error(
                503, f"storage failure: {error}", retry_after=RETRY_AFTER_S
            )
        except (TypeError, ValueError) as error:
            self._error(400, str(error))
        else:
            self._send_json(202, record.to_payload())

    def _get_result(self, campaign_id: str) -> None:
        record = self.scheduler.store.get(campaign_id)
        if record.state != "done":
            self._error(
                409,
                f"campaign {campaign_id} is {record.state!r}, not done",
            )
            return
        self._send_json(200, self.scheduler.store.load_result(campaign_id))

    def _stream_events(self, campaign_id: str, query: Dict[str, str]) -> None:
        try:
            cursor = max(0, int(query.get("from", "0")))
        except ValueError:
            self._error(400, "'from' must be an integer")
            return
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        # SSE is an unbounded stream: no Content-Length, close delimits.
        self.send_header("Connection", "close")
        self.end_headers()
        terminal_events = {"done", "failed", "cancelled", "requeued"}
        try:
            while True:
                events = self.scheduler.wait_events(
                    campaign_id, cursor, timeout=5.0
                )
                finished = False
                for event in events:
                    frame = (
                        f"id: {cursor}\n"
                        f"data: {json.dumps(event)}\n\n"
                    )
                    self.wfile.write(frame.encode("utf-8"))
                    cursor += 1
                    if event.get("event") in terminal_events:
                        finished = True
                self.wfile.flush()
                if finished:
                    return
                if not events:
                    record = self.scheduler.store.get(campaign_id)
                    if record.terminal:
                        # Terminal before we attached (or buffer reset by
                        # a restart): report the state and close.
                        frame = (
                            f"data: {json.dumps({'event': record.state})}\n\n"
                        )
                        self.wfile.write(frame.encode("utf-8"))
                        self.wfile.flush()
                        return
                    # keep-alive comment so proxies do not cut us off
                    self.wfile.write(b": keep-alive\n\n")
                    self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            return  # client went away; nothing to clean up

    def _metrics(self) -> Dict[str, Any]:
        cache = get_cache()
        payload = self.scheduler.metrics()
        payload["cache"] = cache.stats.as_dict()
        payload["cache_disk"] = self._cache_info()
        return payload

    def _cache_info(self) -> Dict[str, Any]:
        cache = get_cache()
        return {
            "disk_dir": str(cache.disk_dir) if cache.disk_dir else None,
            "disk_bytes": cache.disk_total_bytes(),
            "max_bytes": cache.max_disk_bytes,
        }

    def _prune_cache(self) -> None:
        payload = self._read_body()
        if payload is None:
            return
        max_bytes = payload.get("max_bytes")
        if max_bytes is not None and not _is_int(max_bytes, minimum=0):
            self._error(400, "max_bytes must be an integer >= 0, got "
                        f"{max_bytes!r}")
            return
        cache = get_cache()
        removed = cache.prune(max_bytes=max_bytes)
        self._send_json(200, {
            "removed": removed,
            "disk_bytes": cache.disk_total_bytes(),
        })


class ServiceServer(ThreadingHTTPServer):
    """The service's HTTP server: scheduler-aware, daemon threads."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        scheduler: CampaignScheduler,
        access_log: bool = False,
    ) -> None:
        super().__init__(address, ServiceHandler)
        self.scheduler = scheduler
        self.access_log = access_log

    @property
    def port(self) -> int:
        return self.server_address[1]

    def shutdown_all(self) -> None:
        """Stop accepting, stop the scheduler, close the store."""
        self.shutdown()
        self.server_close()
        self.scheduler.stop()
        self.scheduler.store.close()


def create_server(
    host: str = "127.0.0.1",
    port: int = 0,
    state_dir: Optional[str] = None,
    quota: Optional[int] = None,
    access_log: bool = False,
    max_concurrent: Optional[int] = None,
    max_queue_depth: Optional[int] = None,
) -> ServiceServer:
    """Build the store + scheduler + server stack (``port=0`` binds an
    ephemeral port; read it back from ``server.port``).  The scheduler
    is started; call :meth:`ServiceServer.shutdown_all` to tear down.

    ``max_concurrent`` widens the scheduler (default 1 campaign at a
    time) and ``max_queue_depth`` bounds the queue (503 beyond it)."""
    from repro.service.scheduler import (
        DEFAULT_MAX_CONCURRENT,
        DEFAULT_QUOTA,
    )
    from repro.service.store import JobStore

    store = JobStore(state_dir)
    scheduler = CampaignScheduler(
        store,
        quota=DEFAULT_QUOTA if quota is None else quota,
        max_concurrent=(
            DEFAULT_MAX_CONCURRENT if max_concurrent is None
            else max_concurrent
        ),
        max_queue_depth=max_queue_depth,
    )
    server = ServiceServer((host, port), scheduler, access_log=access_log)
    scheduler.start()
    return server


def serve_forever(server: ServiceServer) -> None:
    """Serve until KeyboardInterrupt, then tear down cleanly."""
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        # serve_forever already returned, so only the rest of the stack
        # still needs tearing down.
        threading.Thread(target=server.shutdown, daemon=True).start()
        server.server_close()
        server.scheduler.stop()
        server.scheduler.store.close()
