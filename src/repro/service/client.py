"""Stdlib HTTP client for the campaign service.

What ``repro submit`` / ``status`` / ``result`` / ``cancel`` and the
examples speak: a thin ``urllib.request`` wrapper around the API of
:mod:`repro.service.api` - JSON in, JSON out, plus a line-level parser
for the Server-Sent-Events progress stream.  No third-party HTTP
library, matching the server side.

Retries
-------
Requests that fail *transiently* - a dropped/refused connection, a 429
quota answer, a 503 shed-load answer - are retried up to ``retries``
times with exponential backoff and decorrelated jitter (each sleep is
drawn uniformly from ``[base, 3 * previous]``, capped), honouring a
server ``Retry-After`` header when one is sent.  Idempotent requests
(GET, DELETE) are always eligible.  POST is only retried when the
request carries an idempotency key the server deduplicates on:
:meth:`ServiceClient.submit` generates one per call, so a retried
submit whose first attempt actually landed returns the original
campaign instead of enqueueing a duplicate.  Non-transient answers
(400, 404, 409...) are never retried.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
import uuid
from typing import Any, Dict, Iterator, List, Optional

#: Default attempt budget beyond the first try.
DEFAULT_RETRIES = 3

#: Backoff parameters (seconds): first sleep, and the cap any sleep
#: (including a server Retry-After) is clamped to.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 5.0

#: HTTP statuses worth retrying (plus status 0 = connection trouble).
RETRYABLE_STATUSES = frozenset({0, 429, 503})


class ServiceError(RuntimeError):
    """A service request failed; carries the HTTP status and message."""

    def __init__(
        self,
        status: int,
        message: str,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        #: Parsed ``Retry-After`` header, when the server sent one.
        self.retry_after = retry_after


class ServiceClient:
    """Client for one service endpoint (``http://host:port``).

    ``retries=0`` disables retrying entirely (every failure surfaces
    immediately - what latency-sensitive tests want); ``seed`` pins the
    jitter stream for reproducible backoff schedules.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = DEFAULT_RETRIES,
        backoff_base: float = BACKOFF_BASE_S,
        backoff_cap: float = BACKOFF_CAP_S,
        seed: Optional[int] = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self._rng = random.Random(seed)
        #: Transient failures retried across this client's lifetime.
        self.retried = 0

    # ----------------------------------------------------------------- #
    # Plumbing.
    # ----------------------------------------------------------------- #

    def _request_once(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout if timeout is None else timeout
            ) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            detail = error.read().decode("utf-8", "replace")
            try:
                detail = json.loads(detail).get("error", detail)
            except (json.JSONDecodeError, AttributeError):
                pass
            retry_after = None
            raw = error.headers.get("Retry-After") if error.headers else None
            if raw is not None:
                try:
                    retry_after = float(raw)
                except ValueError:
                    pass
            raise ServiceError(
                error.code, detail, retry_after=retry_after
            ) from None
        except (urllib.error.URLError, ConnectionError, OSError) as error:
            reason = getattr(error, "reason", error)
            raise ServiceError(
                0, f"cannot reach {self.base_url}: {reason}"
            ) from None

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
        idempotent: Optional[bool] = None,
    ) -> Dict[str, Any]:
        """One request with transient-failure retries.

        ``idempotent`` defaults by method: GET/DELETE yes, POST no.  A
        POST caller that made itself safe to repeat (an
        ``idempotency_key`` in the body) passes ``idempotent=True``.
        """
        if idempotent is None:
            idempotent = method in ("GET", "DELETE")
        budget = self.retries if idempotent else 0
        sleep = self.backoff_base
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, body, timeout)
            except ServiceError as error:
                if (
                    attempt >= budget
                    or error.status not in RETRYABLE_STATUSES
                ):
                    raise
                attempt += 1
                self.retried += 1
                # Decorrelated jitter; a server Retry-After overrides
                # the lower bound but stays under the cap so a chatty
                # server cannot park the client for minutes.
                sleep = min(
                    self.backoff_cap,
                    self._rng.uniform(self.backoff_base, sleep * 3.0),
                )
                if error.retry_after is not None:
                    sleep = min(
                        self.backoff_cap, max(sleep, error.retry_after)
                    )
                time.sleep(sleep)

    # ----------------------------------------------------------------- #
    # Endpoints.
    # ----------------------------------------------------------------- #

    def health(self) -> Dict[str, Any]:
        """Server liveness + the registered campaign kinds."""
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        """Scheduler gauges, aggregate telemetry and cache counters."""
        return self._request("GET", "/metrics")

    def submit(
        self,
        spec: Dict[str, Any],
        client: str = "",
        priority: int = 0,
        idempotency_key: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Submit a campaign spec; returns its record (with
        ``campaign_id``).

        Generates a fresh idempotency key per call (pass your own to
        dedupe across client instances), which is what makes the POST
        safe to retry: if the first attempt landed but its response was
        lost, the retry returns the already-queued campaign.
        """
        key = uuid.uuid4().hex if idempotency_key is None else idempotency_key
        return self._request("POST", "/campaigns", body={
            "spec": spec, "client": client, "priority": priority,
            "idempotency_key": key,
        }, idempotent=bool(key))

    def list(self) -> List[Dict[str, Any]]:
        """Every campaign record the server knows, in submission order."""
        return self._request("GET", "/campaigns")["campaigns"]

    def status(self, campaign_id: str) -> Dict[str, Any]:
        """One campaign's record (state, progress, error, ...)."""
        return self._request("GET", f"/campaigns/{campaign_id}")

    def result(self, campaign_id: str) -> Dict[str, Any]:
        """The result payload; raises ``ServiceError(409)`` until done."""
        return self._request("GET", f"/campaigns/{campaign_id}/result")

    def cancel(self, campaign_id: str) -> Dict[str, Any]:
        """Cancel a queued or running campaign."""
        return self._request("DELETE", f"/campaigns/{campaign_id}")

    def cache_info(self) -> Dict[str, Any]:
        """Result-cache counters and disk footprint."""
        return self._request("GET", "/cache")

    def prune_cache(self, max_bytes: Optional[int] = None) -> Dict[str, Any]:
        """Evict least-recently-used disk entries down to ``max_bytes``
        (the server refuses anything but an int >= 0)."""
        body: Dict[str, Any] = {}
        if max_bytes is not None:
            body["max_bytes"] = max_bytes
        return self._request("POST", "/cache/prune", body=body)

    # ----------------------------------------------------------------- #
    # Waiting and streaming.
    # ----------------------------------------------------------------- #

    def wait(
        self,
        campaign_id: str,
        timeout: float = 300.0,
        poll: float = 0.2,
    ) -> Dict[str, Any]:
        """Poll until the campaign is terminal; returns the final record.

        Raises :class:`ServiceError` (status 0) on timeout - the
        campaign keeps running server-side.
        """
        deadline = time.monotonic() + timeout
        while True:
            record = self.status(campaign_id)
            if record["state"] in ("done", "failed", "cancelled"):
                return record
            if time.monotonic() >= deadline:
                raise ServiceError(
                    0, f"campaign {campaign_id} still {record['state']!r} "
                       f"after {timeout:.0f}s"
                )
            time.sleep(poll)

    def stream_events(
        self,
        campaign_id: str,
        start: int = 0,
        timeout: float = 300.0,
    ) -> Iterator[Dict[str, Any]]:
        """Yield the campaign's progress events as they arrive (SSE).

        Terminates after the terminal event (``done`` / ``failed`` /
        ``cancelled`` / ``requeued``) or when the server closes the
        stream.  ``start`` resumes an event cursor (the ``?from=``
        query parameter).
        """
        request = urllib.request.Request(
            f"{self.base_url}/campaigns/{campaign_id}/events?from={start}",
            headers={"Accept": "text/event-stream"},
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as stream:
                data_lines: List[str] = []
                for raw in stream:
                    line = raw.decode("utf-8").rstrip("\n").rstrip("\r")
                    if line.startswith(":"):
                        continue  # keep-alive comment
                    if line.startswith("data:"):
                        data_lines.append(line[5:].lstrip())
                        continue
                    if line == "" and data_lines:
                        # Blank line = end of one SSE frame.
                        try:
                            yield json.loads("\n".join(data_lines))
                        except json.JSONDecodeError:
                            pass
                        data_lines = []
        except urllib.error.HTTPError as error:
            raise ServiceError(
                error.code, error.read().decode("utf-8", "replace")
            ) from None
        except urllib.error.URLError as error:
            raise ServiceError(0, f"cannot reach {self.base_url}: "
                                  f"{error.reason}") from None
