"""The SPARQL Protocol HTTP server: a thread worker pool over one engine.

Threading model (see DESIGN.md "The serving subsystem"):

* One :class:`~repro.sparql.engine.SparqlEngine` is shared by every worker.
  Queries never mutate stores, term decoding and statistics are read-only at
  query time, and the engine's prepared-statement cache is lock-protected —
  so sharing needs no further synchronization.  Writable deployments wrap
  the store in an :class:`~repro.store.MvccStore`: ``POST /update`` commits
  through its serialized write transaction while readers keep scanning the
  generation they pinned; ``read_only=True`` rejects updates with 403.
* Accepted connections are dispatched to a bounded
  :class:`~concurrent.futures.ThreadPoolExecutor` (a true worker pool, not
  thread-per-request: a flood of connections queues instead of spawning
  unbounded threads).
* Each request gets a fresh evaluator and a per-request
  :class:`~repro.sparql.cursor.Deadline`; an expired deadline surfaces as
  HTTP 503 with a machine-readable ``timeout`` payload and ``Retry-After``.

Responses are buffered (serialized fully, then sent with Content-Length):
this keeps HTTP/1.1 keep-alive simple and — more importantly — means a
deadline that expires *mid-serialization* still turns into a clean 503
instead of a truncated 200 body.  The cursors stay streaming underneath, so
``LIMIT``-bounded queries never evaluate past their window.

Observability (see DESIGN.md "Observability"): every request is traced
through a :class:`~repro.obs.tracing.QueryTrace` — worker-pool queue wait,
parse/plan (on statement-cache misses), execute, serialize — and reported
once to the attached :class:`~repro.obs.telemetry.ServerTelemetry`, which
drives the Prometheus registry exposed at ``GET /metrics``, the JSON access
log, and the slow-query log.  With the default disabled registry and no
log streams all of that collapses to a handful of no-op calls per request.
"""

from __future__ import annotations

import io
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import urlsplit

from ..obs import QueryTrace, ServerTelemetry
from ..obs.exposition import CONTENT_TYPE as METRICS_CONTENT_TYPE
from ..sparql import planner, serializers
from ..sparql.cursor import Deadline
from ..sparql.errors import (
    ERROR_INTERNAL,
    ERROR_READ_ONLY,
    QueryTimeout,
    SparqlError,
    error_payload,
)
from ..sparql.serializers import CONTENT_TYPES
from .protocol import (
    ENDPOINT_PATH,
    UPDATE_PATH,
    ProtocolError,
    content_length,
    negotiate,
    parse_query_request,
    parse_update_request,
)

#: JSON media type of error payloads and the health endpoint.
JSON_TYPE = "application/json"

#: Readiness/liveness endpoint (used by the CI smoke job to await startup).
HEALTH_PATH = "/health"

#: Prometheus text exposition of the process metrics registry (served only
#: when the attached telemetry enables it, e.g. ``repro serve --metrics``).
METRICS_PATH = "/metrics"


class ThreadPoolHTTPServer(HTTPServer):
    """An HTTPServer whose requests run on a bounded worker pool.

    ``socketserver.ThreadingMixIn`` spawns one thread per connection; under
    heavy traffic that is unbounded.  This server instead submits each
    accepted connection to a fixed-size executor — the serving concurrency
    is exactly ``workers``, and excess connections wait in the executor
    queue (closed-loop clients then see queueing delay, not errors).
    """

    # Restartable listeners: rebinding the same port right after a stop
    # must not fail with EADDRINUSE.
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, server_address, handler_class, workers=4):
        super().__init__(server_address, handler_class)
        self.workers = workers
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="sparql-worker"
        )
        self.started_at = time.monotonic()
        # Worker-pool observability: requests currently on workers (the
        # /health occupancy figure and the in-flight gauge) plus the
        # per-thread queue-wait handoff read by the request handler.
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._worker_state = threading.local()

    def process_request(self, request, client_address):
        self._executor.submit(
            self._handle_one, request, client_address, time.perf_counter()
        )

    def _handle_one(self, request, client_address, submitted):
        # The handler runs on this same worker thread, so the queue wait is
        # handed over through a thread-local (popped by the next request
        # handled here; every handled request pops exactly once).
        self._worker_state.queue_wait = time.perf_counter() - submitted
        telemetry = getattr(self, "telemetry", None)
        with self._inflight_lock:
            self._inflight += 1
            inflight = self._inflight
        if telemetry is not None:
            telemetry.inflight.set(inflight)
        try:
            self.finish_request(request, client_address)
        except Exception:  # noqa: BLE001 - mirror socketserver's error path
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)
            with self._inflight_lock:
                self._inflight -= 1
                inflight = self._inflight
            if telemetry is not None:
                telemetry.inflight.set(inflight)

    def pop_queue_wait(self):
        """The queue wait of the request this worker thread is handling."""
        wait = getattr(self._worker_state, "queue_wait", None)
        self._worker_state.queue_wait = None
        return wait

    @property
    def inflight(self):
        with self._inflight_lock:
            return self._inflight

    @property
    def uptime_seconds(self):
        return time.monotonic() - self.started_at

    def server_close(self):
        super().server_close()
        self._executor.shutdown(wait=False)


class SparqlRequestHandler(BaseHTTPRequestHandler):
    """Speaks the SPARQL Protocol for the engine attached to the server."""

    server_version = "SP2BenchSparql/0.4"
    protocol_version = "HTTP/1.1"
    # Headers and body leave in separate small writes; without TCP_NODELAY,
    # Nagle + the client's delayed ACK turns every response into a ~40ms
    # round trip.  Serving latency is the product here — disable Nagle.
    disable_nagle_algorithm = True

    # -- HTTP entry points -------------------------------------------------

    def do_GET(self):
        path = urlsplit(self.path).path
        if path == HEALTH_PATH:
            self._send_health()
            return
        if path == METRICS_PATH:
            self._send_metrics()
            return
        if path == UPDATE_PATH:
            # Updates change state; they are POST-only by construction.
            error = ProtocolError(
                405, f"method GET not allowed on {UPDATE_PATH} "
                     "(updates must be POSTed)")
            self._send_json(error.status, error.payload())
            return
        if path != ENDPOINT_PATH:
            self._send_not_found(path)
            return
        self._handle_query("GET")

    def do_POST(self):
        path = urlsplit(self.path).path
        if path == UPDATE_PATH:
            self._handle_update()
            return
        if path != ENDPOINT_PATH:
            self._send_not_found(path)
            return
        self._handle_query("POST")

    # -- the protocol pipeline ---------------------------------------------

    def _handle_query(self, method):
        server = self.server
        trace = QueryTrace(queue_wait=server.pop_queue_wait())
        # Everything the telemetry layer wants to know about this request;
        # filled in as the pipeline progresses, observed exactly once.
        outcome = {
            "status": 500, "query_text": None, "format": None, "form": None,
            "rows": None, "budget_seconds": None,
            "budget_consumed_seconds": None, "cache_hit": None,
            "plan_renderer": None,
        }
        try:
            self._run_query(method, trace, outcome)
        finally:
            server.telemetry.observe_request(
                trace, endpoint=ENDPOINT_PATH, method=method, **outcome
            )

    def _run_query(self, method, trace, outcome):
        """The protocol pipeline for one query request (traced)."""
        server = self.server
        try:
            body = self._read_body() if method == "POST" else None
            query_text, timeout = parse_query_request(
                method,
                self.path,
                content_type=self.headers.get("Content-Type"),
                body=body,
                max_timeout=server.max_timeout,
            )
            format = negotiate(self.headers.get("Accept"))
        except ProtocolError as error:
            outcome["status"] = error.status
            self._send_json(error.status, error.payload())
            return
        outcome["query_text"] = query_text
        outcome["format"] = format
        if timeout is None:
            timeout = server.default_timeout
        outcome["budget_seconds"] = timeout
        try:
            prepared = server.engine.prepare_cached(query_text, trace=trace)
        except SparqlError as error:
            # Covers SparqlSyntaxError (code "parse_error") and any other
            # front-end failure; the payload carries the classification.
            outcome["status"] = 400
            self._send_json(400, error_payload(error))
            return
        # A cache hit skips parse+plan entirely, so those stages only
        # appear in the trace when prepare_cached() actually prepared.
        outcome["cache_hit"] = "parse" not in trace.stages
        outcome["form"] = prepared.form
        outcome["plan_renderer"] = self._plan_renderer(prepared, trace,
                                                       outcome)
        buffer = io.StringIO()
        try:
            deadline = None if timeout is None else Deadline(timeout)
            with trace.span("execute"):
                cursor = prepared.run(deadline=deadline)
                if cursor.form == "ASK":
                    # The boolean was computed eagerly by run(); the cursor
                    # itself is what the ASK serializers format.
                    result = cursor
                else:
                    # Drain under the execute span: responses are buffered
                    # anyway (see the module docstring), so materializing
                    # here just moves the same rows one stage earlier and
                    # cleanly separates evaluation from serialization time.
                    result = list(cursor)
                    outcome["rows"] = len(result)
            with trace.span("serialize"):
                serializers.write(buffer, prepared.variables, result, format)
            if deadline is not None:
                # Preserve the buffered-response guarantee: a budget that
                # ran out during serialization is a clean 503, not a 200
                # that arrives after the deadline passed.
                deadline.check()
                remaining = deadline.remaining()
                if remaining is not None:
                    outcome["budget_consumed_seconds"] = max(
                        timeout - remaining, 0.0
                    )
        except QueryTimeout as error:
            outcome["status"] = 503
            self._send_json(503, error_payload(error),
                            extra_headers={"Retry-After": "1"})
            return
        except SparqlError as error:
            outcome["status"] = 400
            self._send_json(400, error_payload(error))
            return
        except Exception as error:  # noqa: BLE001 - never leak a traceback
            self._send_json(
                500, error_payload(error, code=ERROR_INTERNAL)
            )
            return
        outcome["status"] = 200
        self._send_body(200, buffer.getvalue(), CONTENT_TYPES[format])

    @staticmethod
    def _plan_renderer(prepared, trace, outcome):
        """A lazy EXPLAIN renderer for the slow-query log.

        Only invoked when the request crosses the slow-query threshold;
        renders the prepared plan (estimates; no actuals — the query is
        not re-executed) plus the stage timings gathered so far.
        """
        engine = prepared.engine

        def render():
            report = planner.ExplainReport(
                tree=prepared.tree,
                planner=engine.config.resolved_planner(),
                engine=engine.config.name,
                id_space=getattr(engine.store, "supports_id_access", False),
                result_count=outcome["rows"] or 0,
                elapsed=trace.stages.get("execute", 0.0),
                stages=dict(trace.stages),
            )
            return report.render()

        return render

    def _handle_update(self):
        server = self.server
        trace = QueryTrace(queue_wait=server.pop_queue_wait())
        outcome = {"status": 500, "query_text": None, "extra": None}
        try:
            self._run_update(trace, outcome)
        finally:
            server.telemetry.observe_request(
                trace, endpoint=UPDATE_PATH, method="POST", **outcome
            )

    def _run_update(self, trace, outcome):
        server = self.server
        # Drain the request body even on rejection paths: a keep-alive
        # client's next request would otherwise read leftover body bytes as
        # its request line.
        try:
            body = self._read_body()
        except ProtocolError as error:
            outcome["status"] = error.status
            self._send_json(error.status, error.payload())
            return
        if getattr(server, "read_only", False):
            # 403, not 405: the resource exists and POST is the right verb,
            # but this deployment refuses state changes.
            outcome["status"] = 403
            self._send_json(403, error_payload(
                PermissionError("server is serving in read-only mode; "
                                "updates are disabled"),
                code=ERROR_READ_ONLY,
            ))
            return
        try:
            update_text = parse_update_request(
                "POST", content_type=self.headers.get("Content-Type"),
                body=body,
            )
        except ProtocolError as error:
            outcome["status"] = error.status
            self._send_json(error.status, error.payload())
            return
        outcome["query_text"] = update_text
        try:
            with trace.span("execute"):
                result = server.engine.update(update_text)
        except SparqlError as error:
            # Parse errors (code "parse_error") and evaluation failures of
            # the WHERE pattern both map to a structured 400.
            outcome["status"] = 400
            self._send_json(400, error_payload(error))
            return
        except Exception as error:  # noqa: BLE001 - never leak a traceback
            self._send_json(500, error_payload(error, code=ERROR_INTERNAL))
            return
        payload = {"ok": True}
        payload.update(result.as_dict())
        outcome["status"] = 200
        outcome["extra"] = result.as_dict()
        self._send_json(200, payload)

    # -- request and response plumbing -------------------------------------

    def _read_body(self):
        """The request body as text.

        A malformed ``Content-Length`` raises :class:`ProtocolError` (400)
        and marks the connection for closing: with the body's extent
        unknown, the next request on it cannot be found.
        """
        try:
            length = content_length(self.headers.get("Content-Length"))
        except ProtocolError:
            self.close_connection = True
            raise
        return self.rfile.read(length).decode("utf-8", errors="replace")

    def _send_not_found(self, path):
        self._send_json(
            404, {"error": {"code": "not_found",
                            "message": f"no resource at {path!r} (endpoints: "
                                       f"{ENDPOINT_PATH}, {UPDATE_PATH}, "
                                       f"{HEALTH_PATH})"}}
        )

    def _send_health(self):
        server = self.server
        inflight = server.inflight
        self._send_json(200, {
            "status": "ok",
            "engine": server.engine.config.name,
            "triples": len(server.engine.store),
            "workers": server.workers,
            "version": getattr(server.engine.store, "version", 0),
            "read_only": getattr(server, "read_only", False),
            "uptime_seconds": round(server.uptime_seconds, 3),
            # This health request itself occupies a worker, so inflight is
            # always >= 1 here; occupancy 1.0 means the pool is saturated.
            "inflight": inflight,
            "occupancy": round(inflight / server.workers, 3),
        })

    def _send_metrics(self):
        telemetry = getattr(self.server, "telemetry", None)
        if telemetry is None or not telemetry.metrics_endpoint:
            self._send_not_found(METRICS_PATH)
            return
        self._send_body(200, telemetry.registry.expose(),
                        METRICS_CONTENT_TYPE)

    def _send_json(self, status, payload, extra_headers=None):
        self._send_body(status, json.dumps(payload), JSON_TYPE,
                        extra_headers=extra_headers)

    def _send_body(self, status, text, content_type, extra_headers=None):
        encoded = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(encoded)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(encoded)

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)


class SparqlServer:
    """Lifecycle wrapper: engine + listener + background serve loop.

    ``port=0`` binds an ephemeral port (the resolved one is in ``.port`` /
    ``.url`` after construction), which is what tests and in-process demos
    use.  ``default_timeout`` applies to requests that carry no ``timeout=``
    parameter; ``max_timeout`` caps client-requested budgets.  The server is
    a context manager: entering starts the background serve thread, leaving
    stops it and closes the listener.
    """

    def __init__(self, engine, host="127.0.0.1", port=0, workers=4,
                 default_timeout=30.0, max_timeout=None, verbose=False,
                 read_only=False, telemetry=None):
        self.engine = engine
        self._httpd = ThreadPoolHTTPServer(
            (host, port), SparqlRequestHandler, workers=workers
        )
        # The handler reaches its collaborators through the server object.
        self._httpd.engine = engine
        self._httpd.default_timeout = default_timeout
        self._httpd.max_timeout = (
            default_timeout if max_timeout is None else max_timeout
        )
        self._httpd.verbose = verbose
        self._httpd.read_only = read_only
        # Telemetry is always attached: with the default (disabled) global
        # registry and no loggers every observation is a cheap no-op, and
        # GET /metrics answers 404 until a telemetry with
        # ``metrics_endpoint=True`` is supplied (``repro serve --metrics``).
        self._httpd.telemetry = (
            telemetry if telemetry is not None else ServerTelemetry()
        )
        self._thread = None

    @property
    def telemetry(self):
        """The attached :class:`~repro.obs.telemetry.ServerTelemetry`."""
        return self._httpd.telemetry

    @property
    def read_only(self):
        """True when POST /update is rejected with 403."""
        return self._httpd.read_only

    @property
    def host(self):
        return self._httpd.server_address[0]

    @property
    def port(self):
        return self._httpd.server_address[1]

    @property
    def url(self):
        """The query endpoint URL."""
        return f"http://{self.host}:{self.port}{ENDPOINT_PATH}"

    @property
    def update_url(self):
        """The update endpoint URL."""
        return f"http://{self.host}:{self.port}{UPDATE_PATH}"

    @property
    def health_url(self):
        return f"http://{self.host}:{self.port}{HEALTH_PATH}"

    @property
    def metrics_url(self):
        return f"http://{self.host}:{self.port}{METRICS_PATH}"

    def start(self):
        """Serve on a background thread; returns immediately."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="sparql-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self):
        """Stop serving and close the listener (idempotent)."""
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    def serve_forever(self):
        """Serve on the calling thread until interrupted (the CLI path)."""
        try:
            self._httpd.serve_forever(poll_interval=0.2)
        finally:
            self._httpd.server_close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *_exc):
        self.stop()
        return False

    def __repr__(self):
        return (f"SparqlServer(url={self.url!r}, "
                f"engine={self.engine.config.name!r}, "
                f"workers={self._httpd.workers})")
