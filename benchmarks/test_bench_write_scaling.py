"""Per-write cost independent of store size — the MVCC write path.

Every SPARQL Update on an MVCC store builds the next generation as a
copy-on-write draft of the current one.  If the draft copied whole index
spines or statistics, each small write would cost time linear in the store
size and a store could serve small writes only while it stays small.  This
bench builds two seeded documents, 1k and 25k triples, and times the same
alternating canary ``INSERT DATA`` / ``DELETE WHERE`` pair on each: the
median write on the 25x larger store must cost at most 3x the median write
on the small one (a size-linear write path reads about 20x here).
"""

import statistics
import time

import pytest

from repro.generator import DblpGenerator, GeneratorConfig
from repro.sparql import SparqlEngine
from repro.store import IndexedStore, MvccStore

#: Document sizes compared (triples).
SMALL_TRIPLES = 1_000
LARGE_TRIPLES = 25_000

#: Acceptance bar: p50 write latency at LARGE over p50 at SMALL.
MAX_RATIO = 3.0

#: Writes timed per store (after WARMUP untimed ones), taken in alternating
#: batches between the two stores so host drift hits both alike.
WRITES = 300
WARMUP = 20
BATCH = 20

CANARY = "http://bench.example/canary"
CANARY_DELETE = f"DELETE WHERE {{ ?s <{CANARY}> ?v }}"


def canary_insert(serial):
    return (f'INSERT DATA {{ <http://bench.example/a> <{CANARY}> "{serial}" . '
            f'<http://bench.example/b> <{CANARY}> "{serial}" }}')


def writable_engine(triples):
    store = IndexedStore()
    DblpGenerator(GeneratorConfig(triple_limit=triples, seed=823645187)) \
        .generate_into(store)
    return SparqlEngine(store=MvccStore(store))


class CanaryWriter:
    """Alternates canary inserts and deletes; records each write's seconds."""

    def __init__(self, engine):
        self.engine = engine
        self.serial = 0
        self.samples = []

    def write(self):
        text = (canary_insert(self.serial) if self.serial % 2 == 0
                else CANARY_DELETE)
        started = time.perf_counter()
        result = self.engine.update(text)
        elapsed = time.perf_counter() - started
        assert result.inserted + result.deleted == 2
        self.serial += 1
        return elapsed

    def run(self, count, record=True):
        for _ in range(count):
            elapsed = self.write()
            if record:
                self.samples.append(elapsed)


@pytest.fixture(scope="module")
def writers():
    return {size: CanaryWriter(writable_engine(size))
            for size in (SMALL_TRIPLES, LARGE_TRIPLES)}


def test_write_latency_independent_of_store_size(benchmark, writers):
    """p50 write at 25k triples is within 3x of p50 write at 1k."""
    small, large = writers[SMALL_TRIPLES], writers[LARGE_TRIPLES]
    for writer in (small, large):
        writer.run(WARMUP, record=False)
    for _batch in range(WRITES // BATCH):
        small.run(BATCH)
        large.run(BATCH)

    # The pytest-benchmark entry (informational): one write on the large store.
    benchmark.pedantic(large.write, rounds=20, iterations=1)

    small_p50 = statistics.median(small.samples)
    large_p50 = statistics.median(large.samples)
    ratio = large_p50 / small_p50
    print(
        f"\nCanary write p50: {small_p50 * 1e3:.3f} ms at {SMALL_TRIPLES} "
        f"triples, {large_p50 * 1e3:.3f} ms at {LARGE_TRIPLES} triples "
        f"(ratio {ratio:.2f}, bar {MAX_RATIO})"
    )
    assert ratio <= MAX_RATIO, (
        f"a write at {LARGE_TRIPLES} triples costs {ratio:.1f}x one at "
        f"{SMALL_TRIPLES} (allowed {MAX_RATIO}x): the write path grows "
        f"with store size"
    )
