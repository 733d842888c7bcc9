"""SP2Bench end-to-end benchmark: two workloads on a seeded 50k-triple document.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

Run from the repository root.  ``--workload`` is ``catalog`` (the paper's own
measurement: in-process sweeps of the 17 catalog queries) or ``serve-lookup``
(an open loop of ad-hoc lookups with a heavy tail against ``repro serve``,
with closed-loop canary writes before and after it).  ``--seed`` drives the
generator and every schedule.  Every answer is checked; a wrong answer, a
non-2xx response or a transport error counts as a failed operation.  Every
end-to-end time is scaled to a reference host speed measured beside the
program (``yardstick.py``), so that the host's own slow stretches do not
read as changes of the program.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` the run is made twice, untraced and
traced (``prepare(trace=)`` in process, ``repro serve --metrics`` scraped over
HTTP), a line before the result gives the tracing overhead per end-to-end
metric, and the metrics are the per-layer ones.  ``spec.json`` holds the fixed
rates, repetition counts and tail percentiles, ``BENCHMARK.json`` (repository
root) the metric names, units and bounds.
"""

import argparse
import gc
import json
import os
import random
import resource
import shutil
import signal
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("catalog", "serve-lookup")
WORK_DIR = ".perfbench-work"

with open(os.path.join(HERE, "spec.json")) as _spec:
    SPEC = json.load(_spec)


def run_catalog(seed, seconds, work, traced, report, answers):
    import document
    import http_load
    import inproc
    import traffic
    import yardstick
    from stats import geomean, median, tail

    spec, triples = SPEC["catalog"], SPEC["triples"]
    nt_path = os.path.join(work, "doc.nt")
    # Every timing below is scaled to the nominal host speed (yardstick.py).
    bracket = yardstick.Bracket()

    def build():
        document.generate(seed, triples, nt_path)
        return inproc.SparqlEngine(inproc.NATIVE_COST,
                                   store=document.load_ntriples(nt_path))

    setups, engine = [], None
    for _ in range(spec["setups"]):
        engine = None
        gc.collect()
        engine, _, scaled = bracket.timed(build)
        setups.append(scaled)

    client = inproc.TracedClient(engine) if traced else None
    # The first round is the warm-up (statement cache, allocator): its
    # answers are checked, its times dropped.
    # Write batches go between the rounds, so the write samples span the run.
    writer = inproc.Writer(engine.store, bracket)
    runs, rounds = inproc.sweeps(
        engine, seconds, spec["batch_ms"] / 1e3, spec["min_rounds"],
        traced=client, after_round=lambda: writer.run(spec["writes_per_round"]),
        bracket=bracket)
    # Read before the reference evaluation, whose memory is not the engine's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    expected = reference(document, engine.store, seed, report, answers)
    samples, attempted, failed = inproc.checked(runs, expected)
    report.attempted += attempted
    report.failed += failed
    report.record_writes(writer.records)

    # Scaled times of the rounds after the warm-up, one per query per round
    # (its batch's mean per run); None marks a wrong answer.
    warm = {identifier: s[1:] for identifier, s in samples.items()}
    typical = {identifier: median([t for t in s if t is not None])
               for identifier, s in warm.items()}
    sweeps = [sum(column) for column in zip(*warm.values()) if None not in column]
    write_ms = [1e3 * latency for ok, latency in writer.records if ok]
    e2e = {
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb,
        # The median sweep: summing a round's 17 times averages out much of
        # each one's noise (spec.json notes.yardstick).
        "sweep_s": median(sweeps),
        # Three reads of ~15 us, ~60 us and ~3 ms: their median would be one
        # of them alone, so take the geometric centre; the dearest is the tail.
        "read_p50_ms": 1e3 * geomean([typical[q] for q in traffic.CHEAP_IDS]),
        "read_tail_ms": 1e3 * max(typical[q] for q in traffic.CHEAP_IDS),
        "heavy_p50_ms": 1e3 * geomean([typical[q] for q in traffic.HEAVY_IDS]),
        "write_p50_ms": median(write_ms),
        "write_tail_ms": tail(write_ms, spec["write_tail_pct"], "write_tail_ms",
                              report.warnings),
        # Closed loop: committed writes per second of (scaled) writing time.
        "write_qps": len(write_ms) / sum(latency for _, latency in writer.records),
    }
    report.note(f"catalog: {rounds} sweeps, {len(write_ms)} writes ok "
                f"(tail p{spec['write_tail_pct']}), yardstick medians "
                f"{bracket.median_ms('compute'):.2f} ms compute, "
                f"{bracket.median_ms('copy'):.2f} ms copy")
    if not traced:
        return e2e, {}

    layers = {}
    parse_s, plan_s = inproc.front_end_spans(
        engine, [query.text for query in inproc.ALL_QUERIES])
    layers["sparql.parse_ms"], layers["sparql.plan_ms"] = 1e3 * parse_s, 1e3 * plan_s
    executes, serializes = [], []
    for query in inproc.ALL_QUERIES:
        spans = client.spans[query.identifier]
        layers[f"sparql.execute_ms.{query.identifier}"] = 1e3 * median(spans["execute"])
        layers[f"sparql.serialize_ms.{query.identifier}"] = 1e3 * median(spans["serialize"])
        layers[f"sparql.rows.{query.identifier}"] = int(expected[query.identifier])
        executes += spans["execute"]
        serializes += spans["serialize"]
    layers["sparql.execute_ms"] = 1e3 * sum(executes) / len(executes)
    layers["sparql.serialize_ms"] = 1e3 * sum(serializes) / len(serializes)
    layers["engine.prepared_hit_ratio"] = client.hits / (client.hits + client.misses)
    layers["bench.yardstick_compute_ms"] = bracket.median_ms("compute")
    layers["bench.yardstick_copy_ms"] = bracket.median_ms("copy")
    engine = client = None
    gc.collect()
    snapshot = os.path.join(work, "doc.sp2b")
    layers.update(build_layers(document, seed, work, snapshot))
    layers.update(probe_layers(http_load, snapshot, seed, work, report))
    return e2e, layers


def reference(document, store, seed, report, answers):
    """Reference catalog answers; for the default seed, also the recorded ones.

    ``answers`` keeps them per seed for the rest of the process, so the
    traced run of ``--trace 1`` reuses the untraced run's.
    """
    if seed not in answers:
        answers[seed] = document.reference_counts(store)
        recorded = SPEC["default_seed_rows"]
        if seed == SPEC["default_seed"] and recorded != answers[seed]:
            report.warnings.append(f"reference rows {answers[seed]} differ from "
                                   f"the recorded default-seed rows {recorded}")
            report.mismatch = True
    return answers[seed]


def build_layers(document, seed, work, snapshot):
    """generator, rdf and store layers: each build step timed on its own."""
    nt_path = os.path.join(work, "layers.nt")
    store, times = document.timed_build(seed, SPEC["triples"], nt_path, snapshot)
    store = None
    gc.collect()
    document.remove_quietly(nt_path)
    return {
        "generator.triples_per_s": times["triples"] / times["generate_s"],
        "rdf.ntriples_parse_s": times["parse_s"],
        "store.bulk_load_s": times["bulk_load_s"],
        "store.snapshot_save_s": times["snapshot_save_s"],
        "store.snapshot_load_s": document.time_snapshot_load(snapshot),
    }


def ok_count(records):
    return sum(1 for record in records if record[1])


def ok_writes(writes):
    return sum(1 for record in writes if record[0])


def server_layers(http_load, before, after, records):
    """Per-layer means from two /metrics scrapes around a window of requests."""
    from stats import mean

    mean_ms, delta = http_load.mean_ms, http_load.delta
    stage = 'sp2b_query_stage_seconds{stage="%s"}'
    hits = delta(before, after, "sp2b_prepared_cache_hits_total")
    misses = delta(before, after, "sp2b_prepared_cache_misses_total")
    service_ms = 1e3 * mean([record[3] for record in records])
    return {
        "sparql.parse_ms": mean_ms(before, after, stage % "parse"),
        "sparql.plan_ms": mean_ms(before, after, stage % "plan"),
        "sparql.execute_ms": mean_ms(before, after, stage % "execute"),
        "sparql.serialize_ms": mean_ms(before, after, stage % "serialize"),
        "server.queue_ms": mean_ms(before, after, "sp2b_server_queue_wait_seconds"),
        "server.wire_ms": service_ms - mean_ms(
            before, after, 'sp2b_http_request_seconds{endpoint="/sparql"}'),
        "engine.prepared_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "bench.late_ms": 1e3 * mean([record[4] for record in records]),
    }


def update_layers(http_load, before, after):
    return {
        "sparql.update_ms": http_load.mean_ms(
            before, after, 'sp2b_http_request_seconds{endpoint="/update"}'),
        "store.mvcc.lock_wait_ms": http_load.mean_ms(
            before, after, "sp2b_mvcc_writer_lock_wait_seconds"),
        "store.mvcc.generations": http_load.delta(
            before, after, "sp2b_mvcc_generations_published_total"),
    }


def probe_layers(http_load, snapshot, seed, work, report):
    """Server-side layers for the in-process workload: a short served probe."""
    import document
    import traffic

    probe = SPEC["trace_probe"]
    facts = document.Facts(os.path.join(work, "doc.nt"))
    rng = random.Random(f"{seed}/probe")
    count = probe["rate_qps"] * probe["seconds"]
    schedule = [(index / probe["rate_qps"], traffic.sample_lookup(facts, rng))
                for index in range(count)]
    server = report.start_server(snapshot, metrics=True)
    try:
        before = http_load.scrape(server.port)
        records = http_load.open_loop(server.port, schedule, SPEC["workers"])
        middle = http_load.settled_scrape(server.port, before,
                                          {http_load.QUERY_DONE: ok_count(records)})
        writes = http_load.canary_writer(server.port, count=probe["writes"])
        after = http_load.settled_scrape(server.port, middle,
                                         {http_load.UPDATES_SEEN: ok_writes(writes)})
    finally:
        server.stop()
    report.record_reads(records)
    report.record_writes(writes)
    # Only the layers the in-process sweeps cannot see; parse, plan, execute,
    # serialize and the cache hit ratio stay those of the catalog itself.
    served = server_layers(http_load, before, middle, records)
    layers = {name: served[name]
              for name in ("server.queue_ms", "server.wire_ms", "bench.late_ms")}
    layers.update(update_layers(http_load, middle, after))
    return layers


def start_measured_server(snapshot, traced, setups, report):
    """Start the server ``setups`` times; keep the last one running.

    Returns the server and ``[(setup seconds, spawn stamp)]`` per start.
    """
    starts, server = [], None
    for _ in range(setups):
        if server is not None:
            server.stop()
        server = report.start_server(snapshot, metrics=traced)
        starts.append((server.setup_s, server.started))
    return server, starts


def http_catalog(http_load, port, expected, traced, report):
    """Catalog passes over HTTP, each followed by the repeated queries.

    Returns, per pass, the successful requests' ``{query id: [(seconds,
    send stamp)]}`` and, traced, per-query server-side execute and serialize
    times from /metrics scrapes around each request of the first pass.
    """
    import traffic

    passes = []
    layers = {}
    stage_sum = 'sp2b_query_stage_seconds_sum{stage="%s"}'
    for number in range(SPEC["passes"]):
        samples = {identifier: [] for identifier in traffic.CATALOG}
        passes.append(samples)
        for identifier in traffic.CATALOG:
            scraping = traced and number == 0
            before = http_load.scrape(port) if scraping else None
            ok, sent, done = http_load.send(
                port, traffic.catalog_request(identifier, expected))
            report.attempt(ok)
            if ok:
                samples[identifier].append((done - sent, sent))
            if scraping and ok:
                after = http_load.settled_scrape(port, before, {http_load.QUERY_DONE: 1})
                for name in ("execute", "serialize"):
                    layers[f"sparql.{name}_ms.{identifier}"] = 1e3 * http_load.delta(
                        before, after, stage_sum % name)
                layers[f"sparql.rows.{identifier}"] = int(expected[identifier])
        for identifier in SPEC["repeated"]:
            request = traffic.catalog_request(identifier, expected)
            for _ in range(SPEC["http_repeats"]):
                ok, sent, done = http_load.send(port, request)
                report.attempt(ok)
                if ok:
                    samples[identifier].append((done - sent, sent))
    return passes, layers


def paced(rng, rate, seconds):
    """Arrival offsets at a fixed rate, each jittered inside its own slot."""
    return [(slot + 0.1 + 0.8 * rng.random()) / rate
            for slot in range(round(rate * seconds))]


def by_label(records, kind, scaled):
    """Scaled latencies from due time (ms) of the successful records, per label."""
    groups = {}
    for request, ok, latency, _, _, due in records:
        if ok and request.kind == kind:
            groups.setdefault(request.label, []).append(1e3 * scaled(latency, due))
    return groups


def write_phase(http_load, port, schedule):
    """Closed-loop canary writes for as long as an open loop of canary probes runs.

    Returns the writes and the probe records.
    """
    stop = threading.Event()
    writes = []
    writer = threading.Thread(target=lambda: writes.extend(
        http_load.canary_writer(port, stop=stop)))
    writer.start()
    try:
        probes = http_load.open_loop(port, schedule, 1)
    finally:
        stop.set()
        writer.join()
    return writes, probes


def run_serve_lookup(seed, seconds, work, traced, report, answers):
    import document
    import http_load
    import traffic
    import yardstick
    from stats import geomean, median, median_of_medians, percentile, tail

    spec = SPEC["serve-lookup"]
    nt_path = os.path.join(work, "doc.nt")
    snapshot = os.path.join(work, "doc.sp2b")
    store, _ = document.timed_build(seed, SPEC["triples"], nt_path, snapshot)
    expected = reference(document, store, seed, report, answers)
    store = None
    gc.collect()
    facts = document.Facts(nt_path)
    layers = build_layers(document, seed, work, snapshot) if traced else {}

    rng = random.Random(f"{seed}/serve-lookup")
    offsets = paced(rng, spec["rate_qps"], seconds)
    period = round(1 / spec["heavy_fraction"])
    phase = rng.randrange(period)
    heavy_ids = list(traffic.HEAVY_IDS)
    rng.shuffle(heavy_ids)
    schedule = []
    for slot, offset in enumerate(offsets):
        if slot % period == phase:
            identifier = heavy_ids[(slot // period) % len(heavy_ids)]
            request = traffic.catalog_request(identifier, expected, "heavy")
        else:
            request = traffic.sample_lookup(facts, rng)
        schedule.append((offset, request))
    probe_schedule = [(index / spec["probe_qps"], traffic.CANARY_PROBE)
                      for index in range(round(spec["probe_qps"] * spec["write_seconds"]))]

    # Every timing is scaled to the nominal host speed by the samples a
    # yardstick process takes beside the server all along (yardstick.py).
    with yardstick.Sampler() as stick:
        server, starts = start_measured_server(snapshot, traced, spec["setups"], report)
        try:
            port = server.port
            # Half the writes go before the open loop and half after, so their
            # samples are not all taken in one stretch of the host's load.
            writes, probes = write_phase(http_load, port, probe_schedule)
            if traced:
                before = http_load.settled_scrape(port, {}, {
                    http_load.UPDATES_SEEN: ok_writes(writes),
                    http_load.QUERY_DONE: ok_count(probes)})
            records = http_load.open_loop(port, schedule, spec["connections"])
            if traced:
                middle = http_load.settled_scrape(
                    port, before, {http_load.QUERY_DONE: ok_count(records)})
            late_writes, late_probes = write_phase(http_load, port, probe_schedule)
            if traced:
                after = http_load.settled_scrape(
                    port, middle, {http_load.UPDATES_SEEN: ok_writes(late_writes)})
            writes += late_writes
            probes += late_probes
            # Read before the catalog passes: Q4's transient 80k-row response
            # would otherwise set the peak, and it varies with allocator timing.
            peak_rss_mb = server.peak_rss_mb()
            passes, pass_layers = http_catalog(http_load, port, expected, traced, report)
        finally:
            server.stop()
    report.record_reads(records + probes)
    report.record_writes(writes)

    def timings(scaled):
        """The end-to-end times, each latency passed through ``scaled``."""
        reads = by_label(records, "read", scaled)
        heavy = by_label(records, "heavy", scaled)
        pooled = [latency for group in reads.values() for latency in group]
        write_ms = [1e3 * scaled(latency, started, kind="copy")
                    for ok, latency, started in writes if ok]
        return pooled, heavy, write_ms, {
            "setup_s": median([scaled(setup_s, started) for setup_s, started in starts]),
            # The median over the passes after the first (cold) one of the
            # pass's sweep: the sum over the queries of each one's median.
            "sweep_s": median([
                sum(median([scaled(latency, sent) for latency, sent in group])
                    for group in samples.values())
                for samples in passes[1:] if all(samples.values())]),
            # The median over the three lookup shapes of each shape's median;
            # the tail is pooled over all lookups.
            "read_p50_ms": median_of_medians(reads.values()),
            "read_tail_ms": percentile(pooled, spec["read_tail_pct"]),
            # Q3a, Q2, Q9 and Q5b cost from ~8 ms to ~250 ms, and a pooled median
            # of about 30 requests jumps between them: take each one's median.
            "heavy_p50_ms": geomean([median(group) for group in heavy.values()]),
            "write_p50_ms": median(write_ms),
            "write_tail_ms": percentile(write_ms, spec["write_tail_pct"]),
            # Closed loop: committed writes per second of writing time.
            "write_qps": len(write_ms) / sum(scaled(latency, started, kind="copy")
                                             for _, latency, started in writes),
        }

    pooled, heavy, write_ms, e2e = timings(stick.scaled)
    e2e["peak_rss_mb"] = peak_rss_mb
    tail(pooled, spec["read_tail_pct"], "read_tail_ms", report.warnings)
    tail(write_ms, spec["write_tail_pct"], "write_tail_ms", report.warnings)
    report.note("read tail: " + ", ".join(
        f"p{pct:g} {percentile(pooled, pct):.1f}" for pct in (90, 95, 97.5, 99)))
    report.note(f"serve-lookup: {len(records)} requests at {spec['rate_qps']}/s "
                f"({sum(map(len, heavy.values()))} heavy ok), {len(pooled)} reads ok "
                f"(tail p{spec['read_tail_pct']}), {len(write_ms)} writes ok, "
                f"{ok_count(probes)} canary probes ok, yardstick medians "
                f"{stick.median_ms('compute'):.2f} ms compute, "
                f"{stick.median_ms('copy'):.2f} ms copy")
    unscaled = timings(lambda seconds, *_, **__: seconds)[-1]
    report.note("unscaled: " + ", ".join(f"{name} {value:.4g}"
                                         for name, value in unscaled.items()))
    if traced:
        layers.update(server_layers(http_load, before, middle, records))
        layers.update(update_layers(http_load, middle, after))
        layers.update(pass_layers)
        layers["bench.yardstick_compute_ms"] = stick.median_ms("compute")
        layers["bench.yardstick_copy_ms"] = stick.median_ms("copy")
    return e2e, layers


RUNNERS = {"catalog": run_catalog, "serve-lookup": run_serve_lookup}


class Report:
    """Operation counts, warnings, and every server this run started."""

    def __init__(self, work):
        self.work = work
        self.attempted = self.failed = 0
        self.mismatch = False
        self.warnings, self.notes, self.servers = [], [], []

    def attempt(self, ok):
        self.attempted += 1
        self.failed += not ok

    def record_reads(self, records):
        for record in records:
            self.attempt(record[1])

    def record_writes(self, writes):
        for record in writes:
            self.attempt(record[0])

    def note(self, text):
        self.notes.append(text)

    def start_server(self, snapshot, metrics):
        import http_load

        log = os.path.join(self.work, f"serve-{len(self.servers)}.log")
        server = http_load.Server(ROOT, snapshot, log, SPEC["workers"], metrics)
        self.servers.append(server)
        return server

    def close(self):
        for server in self.servers:
            server.stop()


def measure(workload, seed, seconds, traced, work, answers):
    report = Report(work)
    try:
        e2e, layers = RUNNERS[workload](seed, seconds, work, traced, report, answers)
    finally:
        report.close()
    return report, e2e, layers


def load_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"perfbench: no repro sources under {source}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [source, HERE]
    e2e_units, layer_units = load_names()

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    base = os.path.join(ROOT, WORK_DIR)
    os.makedirs(base, exist_ok=True)
    work = os.path.join(base, f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        reports, answers = [], {}
        report, e2e, _ = measure(args.workload, args.seed, args.seconds, False, work,
                                 answers)
        reports.append(report)
        metrics, units = e2e, e2e_units
        if args.trace:
            traced_report, traced_e2e, layers = measure(
                args.workload, args.seed, args.seconds, True, work, answers)
            reports.append(traced_report)
            overhead = {name: traced_e2e[name] - e2e[name] for name in e2e_units}
            print(json.dumps({"trace_overhead": overhead}))
            metrics, units = layers, layer_units
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for report in reports:
        for line in report.notes + report.warnings:
            print(line, file=sys.stderr)
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    failed = sum(report.failed for report in reports)
    print(json.dumps({
        "correct": failed == 0 and not any(r.mismatch for r in reports),
        "attempted": sum(report.attempted for report in reports),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
