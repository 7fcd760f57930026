"""Thin HTTP client for the ``repro serve`` daemon.

Stdlib-only (:mod:`http.client`), one connection per request to match
the daemon's ``Connection: close`` discipline.  The client performs a
lazy one-time *schema handshake*: before the first simulation request
it fetches ``GET /version`` and compares the daemon's ``serve`` schema
version against its own; a mismatch raises
:class:`SchemaMismatchError` instead of mis-parsing responses.  Every
subsequent request also carries the ``X-Repro-Serve-Schema`` header so
the daemon can reject stale clients symmetrically (HTTP 409).

Transport failures (daemon not running, connection refused, timeouts)
and malformed daemon URLs surface as :class:`ClientError` — a one-line,
traceback-free message the CLI maps to exit 2.
"""

import http.client
import json
import os
import urllib.parse


class ClientError(RuntimeError):
    """Transport or protocol failure talking to the daemon."""


class SchemaMismatchError(ClientError):
    """The daemon speaks a different serve schema version."""


def default_url():
    """The daemon URL: ``$REPRO_SERVE_URL`` or the loopback default."""
    from repro.serve import DEFAULT_PORT, SERVE_URL_ENV

    return os.environ.get(SERVE_URL_ENV) or "http://127.0.0.1:{}".format(
        DEFAULT_PORT
    )


class ServeClient:
    """Talk to one daemon at ``base_url`` (default: :func:`default_url`)."""

    def __init__(self, base_url=None, timeout=120.0):
        url = base_url or default_url()
        try:
            parsed = urllib.parse.urlsplit(url)
            port = parsed.port
        except ValueError as exc:
            raise ClientError(
                "bad daemon URL {!r}: {}".format(url, exc)
            ) from None
        if parsed.scheme not in ("http", ""):
            raise ClientError(
                "unsupported URL scheme {!r} (http only)".format(
                    parsed.scheme
                )
            )
        self.host = parsed.hostname or "127.0.0.1"
        from repro.serve import DEFAULT_PORT

        self.port = port or DEFAULT_PORT
        self.timeout = timeout
        self._handshaken = False

    @property
    def base_url(self):
        return "http://{}:{}".format(self.host, self.port)

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _request(self, method, path, body=None, raw=False):
        from repro.serve import SERVE_SCHEMA_VERSION

        headers = {
            "X-Repro-Serve-Schema": str(SERVE_SCHEMA_VERSION),
            "Accept": "application/json",
        }
        payload = None
        if body is not None:
            payload = json.dumps(body, sort_keys=True).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            data = response.read()
        except (ConnectionError, OSError) as exc:
            raise ClientError(
                "cannot reach repro serve at {}: {}".format(
                    self.base_url, exc
                )
            ) from None
        finally:
            connection.close()
        if raw:
            if response.status != 200:
                raise ClientError(
                    "{} {} failed: HTTP {}".format(
                        method, path, response.status
                    )
                )
            return data.decode("utf-8")
        try:
            decoded = json.loads(data.decode("utf-8")) if data else None
        except (UnicodeDecodeError, ValueError):
            raise ClientError(
                "{} {} returned non-JSON body (HTTP {})".format(
                    method, path, response.status
                )
            ) from None
        if response.status != 200:
            message = None
            if isinstance(decoded, dict):
                message = decoded.get("error")
            if response.status == 409:
                raise SchemaMismatchError(
                    message or "serve schema mismatch"
                )
            raise ClientError(
                message
                or "{} {} failed: HTTP {}".format(
                    method, path, response.status
                )
            )
        return decoded

    def _handshake(self):
        """Verify the daemon's serve schema once per client instance."""
        if self._handshaken:
            return
        from repro.serve import SERVE_SCHEMA_VERSION

        info = self.version()
        remote = info.get("serve_schema_version") or (
            info.get("schemas") or {}
        ).get("serve")
        if remote != SERVE_SCHEMA_VERSION:
            raise SchemaMismatchError(
                "serve schema mismatch: daemon at {} speaks v{}, this "
                "client speaks v{}".format(
                    self.base_url, remote, SERVE_SCHEMA_VERSION
                )
            )
        self._handshaken = True

    # ------------------------------------------------------------------
    # observability surfaces
    # ------------------------------------------------------------------
    def health(self):
        return self._request("GET", "/healthz")

    def statusz(self):
        return self._request("GET", "/statusz")

    def version(self):
        return self._request("GET", "/version")

    def metrics(self):
        """The raw Prometheus exposition text."""
        return self._request("GET", "/metrics", raw=True)

    def workloads(self):
        return self._request("GET", "/workloads")

    def shutdown(self):
        return self._request("POST", "/v1/shutdown")

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def call(self, op, **params):
        """``POST /v1/<op>``: one :data:`repro.ops.OPS` operation.

        ``params`` are the op's parameters; an omitted or ``None`` one
        takes the op's default.  Returns the response envelope.
        """
        self._handshake()
        return self._request("POST", "/v1/{}".format(op), body=params)

    # ------------------------------------------------------------------
    # event stream
    # ------------------------------------------------------------------
    def events(self, max_events=None, timeout=None):
        """Yield parsed SSE events from ``GET /events`` as dicts.

        Stops after ``max_events`` events (``None`` = until the stream
        closes).  ``timeout`` overrides the client timeout for this
        stream (heartbeats arrive every couple of seconds, so a small
        timeout still sees traffic on an idle daemon).
        """
        from repro.serve import SERVE_SCHEMA_VERSION

        connection = http.client.HTTPConnection(
            self.host, self.port,
            timeout=self.timeout if timeout is None else timeout,
        )
        try:
            connection.request(
                "GET", "/events",
                headers={
                    "X-Repro-Serve-Schema": str(SERVE_SCHEMA_VERSION),
                    "Accept": "text/event-stream",
                },
            )
            response = connection.getresponse()
            if response.status != 200:
                raise ClientError(
                    "GET /events failed: HTTP {}".format(response.status)
                )
            seen = 0
            data_lines = []
            while max_events is None or seen < max_events:
                line = response.readline()
                if not line:
                    break
                text = line.decode("utf-8").rstrip("\n")
                if text.startswith("data:"):
                    data_lines.append(text[len("data:"):].strip())
                elif text == "" and data_lines:
                    try:
                        event = json.loads("\n".join(data_lines))
                    except ValueError:
                        event = {"kind": "raw", "data": data_lines[:]}
                    data_lines = []
                    seen += 1
                    yield event
        except (ConnectionError, OSError) as exc:
            raise ClientError(
                "cannot reach repro serve at {}: {}".format(
                    self.base_url, exc
                )
            ) from None
        finally:
            connection.close()
