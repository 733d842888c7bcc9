"""Tiny-scale checks of the benchmark itself.

    python -m pytest -q perfbench

Each workload runs for a second on a 2,000-triple document and must emit
every metric BENCHMARK.json names; the yardstick must scale a time by the
kernel samples around it; stub endpoints that drop a row, tear a
canary pair, answer non-2xx or refuse the connection must be counted as
failed operations.
"""

import json
import os
import shutil
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import http_load  # noqa: E402
import inproc  # noqa: E402
import run  # noqa: E402
import traffic  # noqa: E402
import yardstick  # noqa: E402

TINY = {
    "triples": 2000, "http_repeats": 2, "passes": 2,
    "catalog": {"setups": 1, "min_rounds": 2, "batch_ms": 2, "writes_per_round": 4, "read_tail_pct": 50,
                "write_tail_pct": 50},
    "serve-lookup": {"setups": 1, "rate_qps": 20, "connections": 2, "heavy_fraction": 0.1,
                     "write_seconds": 0.5, "probe_qps": 10, "read_tail_pct": 50,
                     "write_tail_pct": 50},
    "trace_probe": {"rate_qps": 10, "seconds": 1, "writes": 4},
}


@pytest.fixture
def tiny(monkeypatch):
    for key, value in TINY.items():
        monkeypatch.setitem(run.SPEC, key, value)


def names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    return ({m["name"] for m in bench["end_to_end"]},
            {m["name"] for m in bench["per_layer"]})


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_emits_every_metric(workload, tiny, tmp_path):
    e2e_names, layer_names = names()
    report, e2e, layers = run.measure(workload, 3, 1.0, True, str(tmp_path), {})
    assert report.failed == 0 and report.attempted > 0
    assert set(e2e) == e2e_names
    assert set(layers) == layer_names
    assert all(value > 0 for value in e2e.values())
    # Every query's own execute and serialize time was seen (a /metrics
    # scrape that missed the request would read 0).
    assert all(value > 0 for name, value in layers.items()
               if name.startswith(("sparql.execute_ms.", "sparql.serialize_ms.")))


def test_main_prints_result_and_overhead(tiny, tmp_path, capsys):
    assert run.main(["--workload", "catalog", "--seed", "5", "--seconds", "1",
                     "--trace", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert set(json.loads(lines[-2])["trace_overhead"]) == names()[0]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == names()[1]


def test_checkout_without_sources_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout == ""


class Stub(BaseHTTPRequestHandler):
    """Answers every query with ``Stub.reply`` (status, JSON payload)."""

    reply = (200, {})

    def _answer(self):
        length = int(self.headers.get("Content-Length") or 0)
        self.rfile.read(length)
        status, payload = self.reply
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = do_POST = _answer

    def log_message(self, *_args):
        pass


@pytest.fixture
def stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), Stub)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join()


def rows(*subjects, value="0"):
    return {"head": {"vars": ["s", "v"]}, "results": {"bindings": [
        {"s": {"type": "uri", "value": s}, "v": {"type": "literal", "value": value}}
        for s in subjects]}}


def test_dropped_row_is_a_failure(stub):
    request = traffic.Request("catalog", "Q9", "SELECT", traffic.catalog_check(3))
    Stub.reply = (200, rows("a", "b", "c"))
    assert http_load.send(stub.server_port, request)[0]
    Stub.reply = (200, rows("a", "b"))
    assert not http_load.send(stub.server_port, request)[0]


def test_torn_canary_pair_is_a_failure(stub):
    a, b = traffic.CANARY_SUBJECTS
    schedule = [(0.0, traffic.CANARY_PROBE)] * 3
    Stub.reply = (200, rows(a, b))
    assert all(record[1] for record in http_load.open_loop(stub.server_port, schedule, 2))
    Stub.reply = (200, rows(a))
    records = http_load.open_loop(stub.server_port, schedule, 2)
    assert not any(record[1] for record in records)


def test_error_status_and_bad_write_are_failures(stub):
    Stub.reply = (503, rows())
    assert not http_load.send(stub.server_port, traffic.CANARY_PROBE)[0]
    Stub.reply = (200, {"inserted": 1, "deleted": 1})
    assert not any(ok for ok, *_ in http_load.canary_writer(stub.server_port, count=2))
    Stub.reply = (200, {"inserted": 2, "deleted": 2})
    assert all(ok for ok, *_ in http_load.canary_writer(stub.server_port, count=2))


def test_transport_error_is_a_failure():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    assert not http_load.send(port, traffic.CANARY_PROBE)[0]
    assert not any(ok for ok, *_ in http_load.canary_writer(port, count=2))


def test_wrong_catalog_count_is_a_failure(tiny, tmp_path):
    import document

    nt_path = str(tmp_path / "doc.nt")
    document.generate(7, 2000, nt_path)
    engine = inproc.SparqlEngine(inproc.NATIVE_COST,
                                 store=document.load_ntriples(nt_path))
    expected = document.reference_counts(engine.store)
    wrong = dict(expected, Q2=expected["Q2"] + 1)
    runs, rounds = inproc.sweeps(engine, 0, 0, 1)
    samples, attempted, failed = inproc.checked(runs, wrong)
    assert (rounds, attempted, failed) == (1, 17, 1)
    assert samples["Q2"] == [None] and samples["Q1"][0] > 0


def test_yardstick_scales_by_the_samples_near_an_operation():
    stick = yardstick.Sampler(window=1.0)
    stick.starts = [0.0, 1.0, 2.0, 3.0, 10.0]
    stick.samples = [{"compute": seconds, "copy": 2 * seconds}
                     for seconds in (0.001, 0.002, 0.008, 0.004, 0.016)]
    # Samples within a second of [1.5, 2.5]: 0.002, 0.008, 0.004.
    assert stick.reference_s(1.5, 2.5, "compute") == 0.004
    assert stick.scaled(0.5, 1.5, 2.5) == 0.5 * yardstick.NOMINAL_S["compute"] / 0.004
    assert stick.scaled(0.5, 1.5, 2.5, "copy") == 0.5 * yardstick.NOMINAL_S["copy"] / 0.008
    # None within the window: the nearest sample.
    assert stick.reference_s(7.5, 7.6, "compute") == 0.016
    assert stick.reference_s(5.0, 5.1, "compute") == 0.004


def test_yardstick_child_samples_and_exits():
    with yardstick.Sampler(interval=0.01) as stick:
        started = time.perf_counter()
        time.sleep(0.3)
    assert stick.process.returncode == 0
    assert len(stick.samples) >= 3 and stick.starts == sorted(stick.starts)
    assert set(stick.samples[0]) == set(yardstick.NOMINAL_S)
    assert stick.scaled(1.0, started) > 0


def test_bracket_scales_by_the_samples_around_a_call():
    bracket = yardstick.Bracket()
    result, seconds, scaled = bracket.timed(lambda: time.sleep(0.01) or 7, "copy")
    before, after = bracket.samples
    assert result == 7 and seconds >= 0.01
    assert scaled == seconds * yardstick.NOMINAL_S["copy"] / ((before["copy"] + after["copy"]) / 2)
