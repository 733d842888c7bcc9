"""MVCC store semantics: generations, snapshots, copy-on-write drafts.

What multi-version concurrency control must guarantee here:

* a snapshot pinned before a write never changes — readers see the
  generation they started on,
* a write transaction publishes atomically (all changes or none visible),
* a no-op transaction publishes nothing (no version bump),
* a draft's copy-on-write structures stay consistent with a from-scratch
  store holding the same triples (statistics, indexes, sorted runs),
* a writer failing mid-draft publishes nothing and leaves the base intact,
* a one-triple write shares all but a bounded number of index chunks and
  statistics counters with its base (no O(n) copy per write).
"""

import copy
import threading

import pytest

from repro import generate_graph
from repro.rdf import Literal, Triple, URIRef
from repro.store import IndexedStore, MemoryStore, MvccStore, read_snapshot
from repro.store.indexed_store import FANOUT, RUN_BY_OBJECT, RUN_BY_SUBJECT

P = URIRef("http://example.org/p")
Q = URIRef("http://example.org/q")


def triple(n, predicate=P):
    return Triple(URIRef(f"http://example.org/s{n}"), predicate, Literal(n))


@pytest.fixture(params=["memory", "indexed"])
def store(request):
    base = {"memory": MemoryStore, "indexed": IndexedStore}[request.param]()
    return MvccStore(base)


class TestSnapshots:
    def test_read_snapshot_pins_generation(self, store):
        store.add(triple(1))
        pinned = read_snapshot(store)
        store.add(triple(2))
        assert len(pinned) == 1
        assert len(read_snapshot(store)) == 2

    def test_read_snapshot_passthrough_for_plain_store(self):
        plain = IndexedStore()
        assert read_snapshot(plain) is plain

    def test_snapshot_is_immutable_during_transaction(self, store):
        store.bulk_load([triple(n) for n in range(5)])
        before = store.snapshot()
        with store.write_transaction() as txn:
            txn.insert(triple(99))
            txn.remove(triple(0))
            # Mid-transaction: the published generation is untouched.
            assert len(store) == 5
            assert store.snapshot() is before
        assert len(store) == 5  # -1 +1
        assert store.snapshot() is not before
        assert store.contains(triple(99))
        assert not store.contains(triple(0))

    def test_version_bumps_once_per_commit(self, store):
        v0 = store.version
        with store.write_transaction() as txn:
            txn.insert(triple(1))
            txn.insert(triple(2))
        assert store.version == v0 + 1

    def test_noop_transaction_does_not_publish(self, store):
        store.add(triple(1))
        generation = store.snapshot()
        version = store.version
        with store.write_transaction() as txn:
            txn.remove(triple(42))     # absent: nothing changes
        assert store.snapshot() is generation
        assert store.version == version

    def test_facade_delegates_reads(self, store):
        store.bulk_load([triple(n) for n in range(3)])
        assert store.count(None, P, None) == 3
        assert store.contains(triple(1))
        assert len(list(store.triples(None, P, None))) == 3
        assert "mvcc(" in store.name


class TestDraftConsistency:
    def scratch(self, triples, family):
        fresh = family()
        fresh.bulk_load(triples)
        return fresh

    @pytest.mark.parametrize("family", [MemoryStore, IndexedStore])
    def test_generation_matches_scratch_store(self, family):
        store = MvccStore(family())
        store.bulk_load([triple(n) for n in range(20)])
        with store.write_transaction() as txn:
            for n in range(5):
                txn.remove(triple(n))
            for n in range(20, 30):
                txn.insert(triple(n, predicate=Q))
        expected = [triple(n) for n in range(5, 20)] + \
                   [triple(n, predicate=Q) for n in range(20, 30)]
        scratch = self.scratch(expected, family)
        current = store.snapshot()
        assert set(current.triples()) == set(scratch.triples())
        for pattern in ((None, P, None), (None, Q, None),
                        (triple(7).subject, None, None)):
            assert current.count(*pattern) == scratch.count(*pattern)

    def test_indexed_draft_statistics_match_recount(self):
        store = MvccStore(IndexedStore())
        store.bulk_load([triple(n) for n in range(10)])
        with store.write_transaction() as txn:
            txn.remove(triple(0))
            txn.insert(triple(50, predicate=Q))
        current = store.snapshot()
        scratch = IndexedStore()
        scratch.bulk_load(list(current.triples()))
        assert current.statistics.triple_count == \
            scratch.statistics.triple_count
        assert current.statistics.predicate_counts == \
            scratch.statistics.predicate_counts
        assert current.estimate_count(None, P, None) == \
            scratch.estimate_count(None, P, None)
        assert current.estimate_count(None, Q, None) == \
            scratch.estimate_count(None, Q, None)

    def test_base_generation_unchanged_by_draft_mutations(self):
        base = IndexedStore()
        base.bulk_load([triple(n) for n in range(10)])
        store = MvccStore(base)
        pinned = store.snapshot()
        ids_before = set(pinned.id_triples())
        with store.write_transaction() as txn:
            for n in range(10):
                txn.remove(triple(n))
            txn.insert(triple(100))
        assert set(pinned.id_triples()) == ids_before
        assert pinned.count(None, P, None) == 10

    def test_sorted_runs_shared_until_touched(self):
        base = IndexedStore()
        base.bulk_load([triple(n) for n in range(10)] +
                       [triple(n, predicate=Q) for n in range(10)])
        store = MvccStore(base)
        p_id = base._dictionary.lookup(P)
        q_id = base._dictionary.lookup(Q)
        run_p = base.sorted_run(p_id, RUN_BY_SUBJECT)
        run_q = base.sorted_run(q_id, RUN_BY_SUBJECT)
        with store.write_transaction() as txn:
            txn.insert(triple(99, predicate=Q))   # touches only Q
        current = store.snapshot()
        # Untouched predicate: the run object is carried over; touched
        # predicate: dropped, to be rebuilt lazily on the new generation.
        assert current.sorted_run(p_id, RUN_BY_SUBJECT) is run_p
        rebuilt = current.sorted_run(q_id, RUN_BY_SUBJECT)
        assert rebuilt is not run_q
        assert len(rebuilt.keys) == len(run_q.keys) + 1


class InjectedFault(Exception):
    """Raised by a test writer in the middle of its draft."""


class TestWriterFailure:
    @pytest.mark.parametrize("family", [MemoryStore, IndexedStore])
    def test_writer_failing_mid_draft_publishes_nothing(self, family):
        base = family()
        base.bulk_load([triple(n) for n in range(40)] +
                       [triple(n, predicate=Q) for n in range(40)])
        store = MvccStore(base)
        pinned = store.snapshot()
        version = store.version
        triples_before = set(pinned.triples())
        statistics = getattr(pinned, "statistics", None)
        statistics_before = copy.deepcopy(statistics)
        runs_before = {}
        if isinstance(pinned, IndexedStore):
            for predicate in (P, Q):
                predicate_id = pinned.dictionary.lookup(predicate)
                for order in (RUN_BY_SUBJECT, RUN_BY_OBJECT):
                    run = pinned.sorted_run(predicate_id, order)
                    runs_before[predicate_id, order] = (
                        run, list(run.keys), list(run.values))

        with pytest.raises(InjectedFault):
            with store.write_transaction() as txn:
                # Removes and inserts over existing subjects, predicates and
                # objects: every shared chunk and bucket they live in is
                # copied (or mutated, if the draft were wrong) before the
                # fault.
                for n in range(0, 40, 3):
                    assert txn.remove(triple(n))
                    assert txn.remove(triple(n, predicate=Q))
                for n in range(1, 40, 3):
                    assert txn.insert(Triple(triple(n).subject, Q,
                                             Literal(n + 1)))
                assert txn.insert(triple(500))
                raise InjectedFault("writer fails mid-draft")

        assert store.snapshot() is pinned
        assert store.version == version
        assert set(pinned.triples()) == triples_before
        assert len(pinned) == len(triples_before)
        for fact in triples_before:
            assert pinned.contains(fact)
            assert pinned.count(fact.subject, None, None) == sum(
                1 for other in triples_before if other.subject == fact.subject)
        assert pinned.count(None, P, None) == 40
        assert pinned.count(None, Q, None) == 40
        assert statistics == statistics_before
        for (predicate_id, order), (run, keys, values) in runs_before.items():
            assert pinned.sorted_run(predicate_id, order) is run
            assert (list(run.keys), list(run.values)) == (keys, values)

        # The writer lock was released and the next transaction commits.
        with store.write_transaction() as txn:
            assert txn.insert(triple(600))
            assert txn.remove(triple(0))
        assert store.version == version + 1
        current = store.snapshot()
        expected = (triples_before - {triple(0)}) | {triple(600)}
        assert set(current.triples()) == expected
        assert set(pinned.triples()) == triples_before
        if statistics is not None:
            scratch = IndexedStore()
            scratch.bulk_load(expected)
            assert current.statistics == scratch.statistics


class TestStructuralSharing:
    """A write copies what it touches and shares everything else (``is``)."""

    SPINES = ("_by_s", "_by_o", "_by_sp", "_by_po", "_by_so")

    @pytest.fixture(scope="class")
    def document(self):
        return list(generate_graph(triple_limit=5_000))

    def test_one_triple_write_shares_all_but_touched_chunks(self, document):
        base = IndexedStore()
        base.bulk_load(document)
        assert len(base) >= 4_900
        store = MvccStore(base)
        touched = document[len(document) // 2]
        with store.write_transaction() as txn:
            assert txn.insert(Triple(touched.subject, touched.predicate,
                                     Literal("a fresh object")))
        current = store.snapshot()
        assert current is not base
        for name in self.SPINES:
            base_spine, spine = getattr(base, name), getattr(current, name)
            assert len(spine) == len(base_spine) == FANOUT
            unshared = sum(1 for old, new in zip(base_spine, spine)
                           if old is not new)
            # One triple lives in exactly one chunk of each spine.
            assert unshared <= 1, (name, unshared)
        predicate_id = current.dictionary.lookup(touched.predicate)
        for key, bucket in base._by_p.items():
            if key != predicate_id:
                assert current._by_p[key] is bucket
        assert current._by_p[predicate_id] is not base._by_p[predicate_id]

    def test_statistics_share_untouched_predicates(self, document):
        base = IndexedStore()
        base.bulk_load(document)
        before = copy.deepcopy(base.statistics)
        store = MvccStore(base)
        touched = document[0]
        with store.write_transaction() as txn:
            assert txn.remove(touched)
        mine, theirs = store.snapshot().statistics, base.statistics
        assert theirs == before
        for table in ("_predicate_subjects", "_predicate_objects"):
            old, new = getattr(theirs, table), getattr(mine, table)
            for predicate, counts in old.items():
                if predicate == touched.predicate:
                    assert new.get(predicate) is not counts
                else:
                    assert new[predicate] is counts
        assert mine.predicate_count(touched.predicate) == \
            theirs.predicate_count(touched.predicate) - 1

    def test_statistics_copy_is_independent_both_ways(self):
        original = IndexedStore()
        original.bulk_load([triple(n) for n in range(5)])
        statistics = original.statistics
        clone = statistics.copy()
        statistics.observe(triple(10))
        clone.forget(triple(0))
        assert statistics.predicate_count(P) == 6
        assert statistics.distinct_subjects(P) == 6
        assert clone.predicate_count(P) == 4
        assert clone.distinct_subjects(P) == 4


class TestConcurrency:
    def test_writers_serialize(self):
        store = MvccStore(IndexedStore())
        rounds = 50
        def writer(offset):
            for n in range(rounds):
                with store.write_transaction() as txn:
                    txn.insert(triple(offset + n))
        threads = [threading.Thread(target=writer, args=(k * rounds,))
                   for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(store) == 4 * rounds
        assert store.version == 4 * rounds

    def test_no_lost_updates_under_read_modify_write(self):
        # Each transaction reads the current counter value through its own
        # base generation *inside* the writer lock, so increments never
        # race.
        store = MvccStore(IndexedStore())
        counter = URIRef("http://example.org/counter")
        value = URIRef("http://example.org/value")
        store.add(Triple(counter, value, Literal(0)))
        def bump():
            for _ in range(25):
                with store.write_transaction() as txn:
                    current = next(txn.base.triples(counter, value, None))
                    held = int(current.object.lexical)
                    txn.remove(current)
                    txn.insert(Triple(counter, value, Literal(held + 1)))
        threads = [threading.Thread(target=bump) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        final = next(store.triples(counter, value, None))
        assert int(final.object.lexical) == 100
