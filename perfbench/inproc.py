"""The in-process client: catalog sweeps and in-process writes.

Times calls into the engine's public API from outside: ``prepare_cached`` →
``PreparedQuery.run`` → ``SelectCursor.serialize``.  The traced variant
splits the same call chain at its public seams: draining the cursor is
execute (evaluation plus decode), serializing the drained rows is serialize,
and ``prepare(text, trace=QueryTrace())`` gives parse and plan.
"""

import os
import time

from repro.obs import QueryTrace
from repro.queries.catalog import ALL_QUERIES
from repro.sparql.cursor import SelectCursor
from repro.sparql.engine import NATIVE_COST, SparqlEngine
from repro.store import MvccStore

import yardstick
from traffic import CANARY_DELETE, canary_insert


def run_query(engine, text):
    """Untraced: prepare (cached), run, serialize to JSON; returns the answer."""
    cursor = engine.prepare_cached(text).run()
    cursor.serialize("json")
    return bool(cursor) if cursor.form == "ASK" else cursor.count


class TracedClient:
    """The same call chain, split into execute and serialize spans."""

    def __init__(self, engine):
        self.engine = engine
        self.prepared = {}
        self.hits = self.misses = 0
        self.spans = {}     # query id -> {"execute": [...], "serialize": [...]}

    def run(self, identifier, text):
        prepared = self.engine.prepare_cached(text)
        # prepare_cached hands back the very same object on a cache hit.
        if self.prepared.get(text) is prepared:
            self.hits += 1
        else:
            self.misses += 1
            self.prepared[text] = prepared
        started = time.perf_counter()
        cursor = prepared.run()
        rows = None if cursor.form == "ASK" else list(cursor)
        executed = time.perf_counter()
        if rows is None:
            cursor.serialize("json")
        else:
            SelectCursor(prepared.variables, rows).serialize("json")
        finished = time.perf_counter()
        spans = self.spans.setdefault(identifier, {"execute": [], "serialize": []})
        spans["execute"].append(executed - started)
        spans["serialize"].append(finished - executed)
        return bool(cursor) if rows is None else len(rows)


def front_end_spans(engine, texts):
    """Mean parse and plan seconds per ``prepare(text, trace=...)`` call."""
    parse = plan = 0.0
    for text in texts:
        trace = QueryTrace()
        engine.prepare(text, trace=trace)
        parse += trace.stages["parse"]
        plan += trace.stages["plan"]
    return parse / len(texts), plan / len(texts)


def sweeps(engine, seconds, batch_s, min_rounds, traced=None, after_round=None,
           bracket=None):
    """Repeated timed sweeps over the 17 catalog queries for ``seconds``.

    Each round is one sweep in catalog order, in which every query runs as a
    batch of back-to-back runs until ``batch_s`` has passed (so a query of
    microseconds runs hundreds of times and Q4 once), then ``after_round()``
    if given.  Round *k* runs pinned to the *k*-th of
    the CPUs the process may use, in turn: on a shared host one CPU can run
    1.5x slower than another for minutes, and a process left on it would
    read slow for its whole run.  Every batch is timed through ``bracket``
    (a :class:`yardstick.Bracket`), so its time is scaled to the nominal
    host speed, and counts as one sample, its mean per run (one kernel
    sample per run would evict a microsecond query's data from the caches
    every time).  Answers are recorded, not checked, so
    the reference evaluation can run after the measured figures are read
    (see :func:`checked`); an engine error is recorded as answer ``None``.
    Returns ``({query id: [([answer per run], scaled seconds per run)]},
    rounds)``.
    """
    runner = traced.run if traced else (lambda _id, text: run_query(engine, text))
    bracket = bracket or yardstick.Bracket()
    samples = {query.identifier: [] for query in ALL_QUERIES}

    def call(query):
        try:
            return runner(query.identifier, query.text)
        except Exception:  # noqa: BLE001 - an engine error is a failed operation
            return None

    def batch(query):
        answers = []
        started = time.perf_counter()
        while not answers or time.perf_counter() - started < batch_s:
            answers.append(call(query))
        return answers

    def timed(query):
        answers, _, scaled = bracket.timed(lambda: batch(query))
        samples[query.identifier].append((answers, scaled / len(answers)))

    cpus = sorted(os.sched_getaffinity(0))
    deadline = time.perf_counter() + seconds
    rounds = 0
    try:
        while rounds < min_rounds or time.perf_counter() < deadline:
            os.sched_setaffinity(0, {cpus[rounds % len(cpus)]})
            bracket.reset()
            rounds += 1
            for query in ALL_QUERIES:
                timed(query)
            if after_round is not None:
                after_round()
    finally:
        os.sched_setaffinity(0, cpus)
    return samples, rounds


def checked(samples, expected):
    """Per query, each sample's seconds, or None where an answer was wrong.

    Every run is an operation and every wrong answer a failure; a sample
    with any wrong answer keeps its place (one per round) but not its time.
    Returns ``(times, attempted, failed)``.
    """
    times, attempted, failed = {}, 0, 0
    for identifier, runs in samples.items():
        times[identifier] = []
        for answers, seconds in runs:
            wrong = sum(answer != expected[identifier] for answer in answers)
            attempted += len(answers)
            failed += wrong
            times[identifier].append(None if wrong else seconds)
    return times, attempted, failed


class Writer:
    """Closed-loop canary writes through ``SparqlEngine.update`` on an MVCC store.

    The base store is never mutated (each commit publishes a copy-on-write
    generation), so the catalog engine sharing it is unaffected.  Writes go
    in batches spread over a run, each timed through ``bracket`` and scaled
    by its ``copy`` kernel;
    ``records`` collects ``(ok, scaled latency s)`` per write.
    """

    def __init__(self, store, bracket):
        self.engine = SparqlEngine(NATIVE_COST, store=MvccStore(store))
        self.bracket = bracket
        self.records = []

    def _write(self, index):
        inserting = index % 2 == 0
        try:
            result = self.engine.update(canary_insert(index // 2) if inserting
                                        else CANARY_DELETE)
        except Exception:  # noqa: BLE001 - an engine error is a failed write
            return None
        return result.inserted if inserting else result.deleted

    def run(self, count):
        for _ in range(count):
            index = len(self.records)
            changed, _, scaled = self.bracket.timed(lambda: self._write(index), "copy")
            self.records.append((changed == 2, scaled))
