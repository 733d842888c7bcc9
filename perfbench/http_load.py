"""`repro serve` as a subprocess, and the stdlib HTTP clients that load it.

Every request opens its own connection (``Connection: close``), so each one
passes through the server's worker-pool queue, and at most ``connections``
requests are in flight at once.  The open loop sends each request at its due
time from a seeded schedule and times it from that due time: a stall that
delays later sends is charged to every request it delays, and how late the
sends ran is reported as ``late_ms``.
"""

import http.client
import json
import os
import re
import subprocess
import sys
import threading
import time
from urllib.parse import quote

from traffic import CANARY_DELETE, canary_insert

JSON_RESULTS = "application/sparql-results+json"
_SERVING = re.compile(r"serving SPARQL Protocol .* at http://127\.0\.0\.1:(\d+)/")
_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$")


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, root, document, log_path, workers, metrics):
        self.log_path = log_path
        command = [sys.executable, "-m", "repro.cli", "serve", document,
                   "--port", "0", "--workers", str(workers), "--quiet"]
        if metrics:
            command.append("--metrics")
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        started = time.perf_counter()
        with open(log_path, "w") as log:
            self.process = subprocess.Popen(command, cwd=root, env=env,
                                            stdout=log, stderr=subprocess.STDOUT)
        try:
            self.port = self._wait_for_port(started)
            self._wait_for_health(started)
        except BaseException:
            self.stop()
            raise
        #: When the process was spawned, and the seconds from then to the
        #: first healthy answer.
        self.started = started
        self.setup_s = time.perf_counter() - started

    def _log(self):
        with open(self.log_path) as log:
            return log.read()

    def _wait_for_port(self, started, limit=120):
        while time.perf_counter() - started < limit:
            match = _SERVING.search(self._log())
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                raise RuntimeError(f"repro serve exited early:\n{self._log()}")
            time.sleep(0.005)
        raise RuntimeError("repro serve did not report its port")

    def _wait_for_health(self, started, limit=120):
        while time.perf_counter() - started < limit:
            try:
                status, _ = call(self.port, "GET", "/health", timeout=5)
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("repro serve never answered /health")

    def peak_rss_mb(self):
        """The server's peak resident set (VmHWM), in MB."""
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM not reported")

    def stop(self):
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def call(port, method, path, body=None, headers=None, timeout=120):
    """One request on a fresh connection; returns ``(status, body bytes)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        connection.request(method, path, body=body,
                           headers={**(headers or {}), "Connection": "close"})
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def query(port, text):
    return call(port, "GET", "/sparql?query=" + quote(text),
                headers={"Accept": JSON_RESULTS})


def update(port, text):
    return call(port, "POST", "/update", body=text.encode("utf-8"),
                headers={"Content-Type": "application/sparql-update"})


def send(port, request):
    """Run one query request; returns ``(ok, sent, done)`` perf_counter stamps.

    Any transport error, non-2xx status or wrong answer is a failure.
    """
    sent = time.perf_counter()
    try:
        status, body = query(port, request.text)
    except (OSError, http.client.HTTPException):
        return False, sent, time.perf_counter()
    done = time.perf_counter()
    try:
        ok = 200 <= status < 300 and request.check(json.loads(body))
    except (ValueError, KeyError, TypeError):
        ok = False
    return ok, sent, done


def open_loop(port, schedule, connections):
    """Send ``schedule`` (``[(due offset s, Request)]``) over ``connections``.

    Returns one record per request: ``(request, ok, latency from due time,
    latency from send, lateness of the send, due time)``, all in seconds
    (the due time a ``perf_counter`` stamp).
    """
    records = [None] * len(schedule)
    cursor = iter(range(len(schedule)))
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def worker():
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            offset, request = schedule[index]
            due = start + offset
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            ok, sent, done = send(port, request)
            records[index] = (request, ok, done - due, done - sent, sent - due, due)

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def canary_writer(port, stop=None, count=None):
    """Closed-loop writer: canary-pair ``INSERT DATA`` then ``DELETE WHERE``.

    Runs until ``stop`` is set (then finishes the open pair) or ``count``
    writes are done.  Returns ``[(ok, latency s, start perf_counter stamp)]``,
    one per write; a write whose response does not report exactly two
    triples changed fails.
    """
    records = []
    serial = 0
    while True:
        inserting = len(records) % 2 == 0
        if count is not None and len(records) >= count:
            break
        if stop is not None and stop.is_set() and inserting:
            break
        text = canary_insert(serial) if inserting else CANARY_DELETE
        serial += inserting
        started = time.perf_counter()
        try:
            status, body = update(port, text)
        except (OSError, http.client.HTTPException):
            records.append((False, time.perf_counter() - started, started))
            continue
        latency = time.perf_counter() - started
        try:
            result = json.loads(body)
            changed = result["inserted"] if inserting else result["deleted"]
            ok = status == 200 and changed == 2
        except (ValueError, KeyError, TypeError):
            ok = False
        records.append((ok, latency, started))
    return records


def scrape(port):
    """``/metrics`` as ``{series name + labels: value}`` (buckets skipped)."""
    status, body = call(port, "GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    series = {}
    for line in body.decode("utf-8").splitlines():
        if line.startswith("#") or "_bucket" in line:
            continue
        match = _SAMPLE.match(line.strip())
        if match:
            series[match.group(1) + (match.group(2) or "")] = float(match.group(3))
    return series


#: Counts that grow once per finished query and update.  A query's serialize
#: stage is recorded after its execute stage.
QUERY_DONE = 'sp2b_query_stage_seconds_count{stage="serialize"}'
UPDATES_SEEN = 'sp2b_http_request_seconds_count{endpoint="/update"}'


def settled_scrape(port, before, counts, limit=10.0):
    """Scrape until every series in ``counts`` has grown by its count since ``before``.

    The server records a request's telemetry after it has sent the response,
    so a scrape made right after a response can miss that request.
    """
    deadline = time.perf_counter() + limit
    while True:
        after = scrape(port)
        if all(delta(before, after, name) >= count for name, count in counts.items()):
            return after
        if time.perf_counter() > deadline:
            raise RuntimeError(f"/metrics never recorded {counts}")
        time.sleep(0.002)


def delta(before, after, name):
    return after.get(name, 0.0) - before.get(name, 0.0)


def mean_ms(before, after, histogram):
    """Exact mean of a histogram over the scrape window, from ``_sum/_count``."""
    name, _, labels = histogram.partition("{")
    labels = "{" + labels if labels else ""
    count = delta(before, after, f"{name}_count{labels}")
    return 1e3 * delta(before, after, f"{name}_sum{labels}") / count if count else 0.0
