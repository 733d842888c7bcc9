"""Multi-version concurrency control over the snapshot-style stores.

SPARQL Update turns the previously read-only stores into shared mutable
state.  Rather than locking readers, :class:`MvccStore` keeps every published
store *generation* immutable: readers pin the current generation with one
attribute read and keep scanning it unperturbed; a single serialized writer
builds the next generation as a copy-on-write draft (``begin_generation`` on
the underlying store) and publishes it atomically by swapping one reference.

What a write costs depends on the store family's draft.  An
``IndexedStore`` draft copies only what the write touches — the lists of
index chunks, then each touched chunk, bucket and predicate's statistics
counters — so a small write costs O(fan-out + touched chunks + touched
buckets) whatever the store's size (see ``indexed_store.GenerationDraft``
for the costs that still grow with a touched predicate).  A ``MemoryStore``
draft copies its whole triple dict: O(n) per write, as befits a scan store.

Invariants:

* A published generation is never mutated again.  Readers holding it see a
  frozen, consistent state for as long as they keep the reference.  (The
  deliberate exceptions are bookkeeping, not logical mutations: lazy
  sorted-run materialization inside ``IndexedStore``, a cache fill, and
  ``StoreStatistics.copy`` marking the base's counters as shared.)
* Publishing bumps ``version`` monotonically; the engine's prepared-statement
  cache and planner statistics key off it to invalidate stale plans.
* ``write_transaction`` holds the writer lock across WHERE evaluation *and*
  application, so read-modify-write updates never lose concurrent writes.

Readers should go through :func:`read_snapshot` at operation start and use
the returned plain store for the whole operation; the helper is a no-op on
non-MVCC stores, so callers need not know which kind they were given.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter

from ..obs import get_registry
from .base import TripleStore


def read_snapshot(store):
    """Pin the current generation of ``store`` for a whole read operation.

    Returns the underlying immutable generation when ``store`` is an
    :class:`MvccStore`, and ``store`` itself otherwise.  One attribute read;
    atomic with respect to concurrent publishes.
    """
    snapshot = getattr(store, "snapshot", None)
    if snapshot is not None:
        return snapshot()
    return store


class WriteTransaction:
    """Handle yielded by :meth:`MvccStore.write_transaction`.

    ``base`` is the pre-update generation (evaluate WHERE clauses against
    it); ``insert``/``remove`` mutate the copy-on-write draft.  Deletions and
    insertions may be issued in any order — the SPARQL Update executor applies
    deletes first per the spec, but the draft itself is order-agnostic.
    """

    def __init__(self, base, draft):
        self.base = base
        self._draft = draft

    def insert(self, triple):
        """Add one ground triple to the next generation; True when new."""
        return self._draft.add(triple)

    def remove(self, triple):
        """Remove one ground triple from the next generation; True if present."""
        return self._draft.remove(triple)

    @property
    def inserted(self):
        return self._draft.inserted

    @property
    def deleted(self):
        return self._draft.deleted


class MvccStore(TripleStore):
    """Snapshot-isolated facade over a :class:`~repro.store.IndexedStore` or
    :class:`~repro.store.MemoryStore`.

    Reads delegate to the current generation; point mutations (``add`` /
    ``remove``) run as single-triple transactions.  Bulk ingestion and the
    SPARQL Update executor use :meth:`write_transaction` directly so one
    update operation publishes exactly one generation.
    """

    def __init__(self, store):
        self._current = store
        self._writer_lock = threading.RLock()
        registry = get_registry()
        self._lock_wait_seconds = registry.histogram(
            "sp2b_mvcc_writer_lock_wait_seconds",
            "Time a write transaction waited to acquire the serialized "
            "writer lock.",
        )
        self._generations_published = registry.counter(
            "sp2b_mvcc_generations_published_total",
            "Store generations published by mutating write transactions.",
        )

    # -- snapshots and versioning ------------------------------------------

    def snapshot(self):
        """The current generation (an immutable plain store)."""
        return self._current

    @property
    def version(self):
        return self._current.version

    @contextmanager
    def write_transaction(self):
        """Serialize one writer; yield a :class:`WriteTransaction`.

        On normal exit, a mutated draft is sealed with ``version + 1`` and
        published atomically; an unmutated draft is discarded without a
        version bump (no-op updates must not invalidate prepared plans).  On
        exception nothing is published.
        """
        lock_requested = perf_counter()
        with self._writer_lock:
            # Reentrant acquires (nested transactions) report ~0 wait.
            self._lock_wait_seconds.observe(perf_counter() - lock_requested)
            base = self._current
            draft = base.begin_generation()
            transaction = WriteTransaction(base, draft)
            yield transaction
            if draft.mutated:
                self._current = draft.finish(base.version + 1)
                self._generations_published.inc()

    # -- TripleStore interface ---------------------------------------------

    @property
    def name(self):
        return f"mvcc({self._current.name})"

    @property
    def supports_id_access(self):
        return self._current.supports_id_access

    def add(self, triple):
        with self.write_transaction() as txn:
            return txn.insert(triple)

    def remove(self, triple):
        with self.write_transaction() as txn:
            return txn.remove(triple)

    def bulk_load(self, triples):
        with self.write_transaction() as txn:
            added = 0
            for triple in triples:
                if txn.insert(triple):
                    added += 1
            return added

    load_graph = bulk_load

    def triples(self, subject=None, predicate=None, object=None):
        return self._current.triples(subject, predicate, object)

    def contains(self, triple):
        return self._current.contains(triple)

    def count(self, subject=None, predicate=None, object=None):
        return self._current.count(subject, predicate, object)

    def estimate_count(self, subject=None, predicate=None, object=None):
        return self._current.estimate_count(subject, predicate, object)

    def __len__(self):
        return len(self._current)

    def save(self, path, metadata=None):
        return self._current.save(path, metadata=metadata)

    def __getattr__(self, attribute):
        # Anything else (statistics, dictionary, id-space access, sorted
        # runs) resolves against the current generation.  Readers that need
        # a *consistent* view across several calls must pin a snapshot first.
        return getattr(self._current, attribute)

    def __repr__(self):
        return f"MvccStore(version={self.version}, current={self._current!r})"
