"""Dictionary-encoded, fully indexed triple store (the "native engine" model).

The paper's native engines (Sesame with the native SAIL, Virtuoso) answer
triple patterns from physical index structures and *join over dictionary ids*,
materializing RDF terms only for final results.  :class:`IndexedStore`
reproduces both halves of that design in pure Python:

* all terms are dictionary-encoded to integers (:mod:`.dictionary`),
* six hash indexes (S, P, O, SP, PO, SO) map bound components to the set of
  matching id-triples, so every possible binding combination of a triple
  pattern has a direct access path (there is no separate triple set: the SP
  index answers membership and the P index enumerates every triple),
* the five large index spines are split into :data:`FANOUT` chunk dicts so an
  MVCC write copies only the chunks it touches (:class:`GenerationDraft`),
* per-predicate and per-class statistics are maintained for the optimizer.

Two access levels are exposed:

``triples()`` / ``count()``
    The term-level :class:`~repro.store.base.TripleStore` interface: patterns
    are encoded on the way in and every matching id-triple is decoded back to
    a :class:`~repro.rdf.triple.Triple` on the way out.

``encode_pattern()`` / ``triples_ids()`` / ``count_ids()``
    The id-level interface used by the id-space query evaluator
    (:mod:`repro.sparql.idspace`): the caller encodes its constants once,
    probes the indexes with raw integers, and receives raw id 3-tuples with
    **no decoding at all** — terms are only reconstructed at the result
    boundary.  ``supports_id_access`` advertises this capability so the
    evaluator can keep scan-based stores on the term-level path.
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import chain, islice, repeat
from operator import and_, setitem

from ..rdf.triple import Triple
from .base import TripleStore
from .dictionary import TermDictionary
from .statistics import StoreStatistics

#: Shared empty set returned for index misses (never mutated).
_EMPTY = frozenset()

#: Chunks per large index spine (a power of two).  A write generation
#: copies the list of chunk references (FANOUT entries per spine) plus each
#: chunk it touches.
FANOUT = 256
MASK = FANOUT - 1

#: Per index, in snapshot order (S, P, O, SP, PO, SO): the key column
#: (0 for an id key or a pair's first id, 1 for a pair's second) whose id
#: picks a key's chunk, as ``id & MASK``; ``None`` marks the P index, which
#: stays one plain dict.  So S, SP and SO are chunked by subject, O and PO
#: by object.  Ids are dense integers, so their low bits spread keys evenly
#: and cost less than hashing a pair key once more.
_CHUNK_COLUMNS = (0, None, 0, 0, 1, 0)

#: Sort orders a predicate run can be materialized in.
RUN_BY_SUBJECT = "s"
RUN_BY_OBJECT = "o"


class SortedRun:
    """One predicate's triples as two parallel, key-sorted ``u32`` columns.

    ``keys`` holds the sort column (subjects for order ``"s"``, objects for
    order ``"o"``) in ascending order with ties broken by ``values``, so a
    run doubles as a lexicographically sorted ``(key, value)`` pair list —
    the layout the batch kernels (:mod:`repro.sparql.kernels`) binary-search
    and merge-join over without materializing any Python tuples.

    ``cache`` is scratch space for kernel-computed views (numpy mirrors,
    composite keys); it lives and dies with the run, so store mutation
    invalidating the run also drops every derived view.
    """

    __slots__ = ("predicate", "order", "keys", "values", "cache")

    def __init__(self, predicate, order, keys, values):
        self.predicate = predicate
        self.order = order
        self.keys = keys
        self.values = values
        self.cache = {}

    def __len__(self):
        return len(self.keys)

    def __repr__(self):
        return (f"SortedRun(predicate={self.predicate}, order={self.order!r}, "
                f"len={len(self)})")


def _new_spine():
    """An empty chunked index spine: FANOUT dicts (see ``_CHUNK_COLUMNS``)."""
    return [{} for _ in range(FANOUT)]


def _keys(columns):
    """The keys of an index image's key columns (ids, or id pairs)."""
    return columns[0] if len(columns) == 1 else zip(*columns)


def _fill_spine(spine, columns, buckets, chunk_column):
    """Store ``buckets`` under the keys in ``columns``, in C-level loops."""
    slots = map(and_, columns[chunk_column], repeat(MASK))
    deque(map(setitem, map(spine.__getitem__, slots), _keys(columns), buckets),
          maxlen=0)


def _rebuild_index(triples, image, chunk_column):
    """Rebuild one hash index from a grouped snapshot image.

    ``image`` is ``(single_columns, single_members, multi_columns,
    multi_counts, multi_members)`` with keys given as id columns and
    members as positions into ``triples``.  Building the buckets in C-level
    ``set``/``islice``/``map``/``zip`` pipelines is roughly 3x cheaper than
    replaying per-triple ``setdefault(...).add(...)`` churn for every index
    entry.  ``chunk_column`` is the index's ``_CHUNK_COLUMNS`` entry: the P
    index comes back as one plain dict, every other index as a chunked
    spine.
    """
    single_columns, single_members, multi_columns, multi_counts, multi_members = image
    member = triples.__getitem__
    # No per-bucket Python frame anywhere: each multi bucket is a set() over
    # an islice() of one shared member stream; for the (dominant) singleton
    # buckets — the sp/po/so keys are mostly unique — zip() wraps each member
    # triple in a 1-tuple and map(set, ...) turns it into its bucket, so both
    # streams run inside the C iterator protocol.
    multi_buckets = map(set, map(islice, repeat(map(member, multi_members)),
                                 multi_counts))
    single_buckets = map(set, zip(map(member, single_members)))
    if chunk_column is None:
        index = dict(zip(_keys(multi_columns), multi_buckets))
        index.update(zip(_keys(single_columns), single_buckets))
        return index
    spine = _new_spine()
    _fill_spine(spine, multi_columns, multi_buckets, chunk_column)
    _fill_spine(spine, single_columns, single_buckets, chunk_column)
    return spine


class _Scan:
    """The all-wildcard candidate set: every triple, one predicate at a time.

    Sized and iterable like the index buckets ``_candidates`` returns.
    """

    __slots__ = ("_buckets", "_size")

    def __init__(self, buckets, size):
        self._buckets = buckets
        self._size = size

    def __len__(self):
        return self._size

    def __iter__(self):
        return chain.from_iterable(self._buckets)


class IndexedStore(TripleStore):
    """A hash-indexed triple store with dictionary encoding."""

    name = "indexed"

    #: Id-level access (``triples_ids`` & friends) is available.
    supports_id_access = True

    #: Predicate-sorted id runs (``sorted_run``) are available.
    supports_sorted_runs = True

    def __init__(self, triples=None):
        self._dictionary = TermDictionary()
        self._by_p = {}            # one plain dict: predicates are few
        self._by_s = _new_spine()
        self._by_o = _new_spine()
        self._by_sp = _new_spine()
        self._by_po = _new_spine()
        self._by_so = _new_spine()
        self._size = 0             # number of stored triples
        self._sorted_runs = {}     # (predicate_id, order) -> SortedRun
        self.statistics = StoreStatistics()
        if triples is not None:
            self.load_graph(triples)

    @classmethod
    def _from_parts(cls, dictionary, by_p, spines, size, statistics):
        """A store over ready-made index structures (builds no empty spines).

        ``spines`` are the five chunked spines in :meth:`_spines` order.
        """
        store = cls.__new__(cls)
        store._dictionary = dictionary
        store._by_p = by_p
        (store._by_s, store._by_o, store._by_sp,
         store._by_po, store._by_so) = spines
        store._size = size
        store._sorted_runs = {}
        store.statistics = statistics
        return store

    # -- bulk construction --------------------------------------------------

    @classmethod
    def from_id_triples(cls, dictionary, id_triples, statistics=None):
        """Bulk-construct a store from a dictionary and raw id 3-tuples.

        This is the snapshot/bulk-load entry point: the caller supplies an
        already-populated :class:`TermDictionary` and the id-triple set, so
        construction skips per-triple term encoding.  When ``statistics`` is
        given (e.g. deserialized from a snapshot) the per-triple statistics
        observation is skipped as well; otherwise statistics are recomputed
        in one pass over the loaded triples.
        """
        store = cls()
        store._dictionary = dictionary
        store.bulk_add_ids(id_triples)
        if statistics is None:
            statistics = store._recompute_statistics()
        store.statistics = statistics
        return store

    @classmethod
    def _from_snapshot(cls, dictionary, triples, index_images, statistics):
        """Assemble a store from deserialized snapshot sections (trusted)."""
        by_s, by_p, by_o, by_sp, by_po, by_so = (
            _rebuild_index(triples, image, chunk_column)
            for image, chunk_column in zip(index_images, _CHUNK_COLUMNS)
        )
        return cls._from_parts(dictionary, by_p,
                               (by_s, by_o, by_sp, by_po, by_so),
                               len(triples), statistics)

    def bulk_add_ids(self, id_triples):
        """Insert raw id 3-tuples in bulk; returns the number actually added.

        The bulk path of :meth:`from_id_triples`: indexes are maintained
        triple by triple, but **statistics are deliberately not updated** —
        callers either install deserialized statistics or call
        :meth:`_recompute_statistics` once afterwards.  All ids must already
        be valid for this store's dictionary.
        """
        insert = self._insert
        added = 0
        for ids in id_triples:
            if insert(tuple(ids)):
                added += 1
        if added:
            self._sorted_runs.clear()
            self.version += 1
        return added

    def _recompute_statistics(self):
        """Rebuild :class:`StoreStatistics` from the stored id-triples."""
        statistics = StoreStatistics()
        decode = self._dictionary.decode
        for s_id, p_id, o_id in self.id_triples():
            statistics.observe(Triple(decode(s_id), decode(p_id), decode(o_id)))
        return statistics

    def _index_table(self):
        """The six hash indexes as ``(key arity, (key, bucket) items)``,
        in snapshot order."""
        def items(spine):
            return chain.from_iterable(chunk.items() for chunk in spine)

        return (
            (1, items(self._by_s)), (1, self._by_p.items()),
            (1, items(self._by_o)), (2, items(self._by_sp)),
            (2, items(self._by_po)), (2, items(self._by_so)),
        )

    # -- index maintenance ----------------------------------------------------

    def _spines(self):
        """The five chunked index spines, in a fixed order."""
        return (self._by_s, self._by_o, self._by_sp, self._by_po, self._by_so)

    def _spine_keys(self, s, p, o):
        """Each chunked spine, in :meth:`_spines` order, with the chunk slot
        and the key an id-triple has in it."""
        by_subject, by_object = s & MASK, o & MASK
        return ((self._by_s, by_subject, s), (self._by_o, by_object, o),
                (self._by_sp, by_subject, (s, p)),
                (self._by_po, by_object, (p, o)),
                (self._by_so, by_subject, (s, o)))

    def _has(self, ids):
        """Membership of an id-triple, answered by its SP bucket."""
        return ids in self._by_sp[ids[0] & MASK].get(ids[:2], _EMPTY)

    def _insert(self, ids):
        """Index an id-triple; False, changing nothing, when it is stored.

        Unrolled rather than looped over :meth:`_spine_keys`, and the
        membership probe reuses the SP bucket: this is the per-triple cost
        of every bulk load.
        """
        s, p, o = ids
        by_subject, by_object = s & MASK, o & MASK
        bucket = self._by_sp[by_subject].setdefault((s, p), set())
        if ids in bucket:
            return False
        bucket.add(ids)
        self._by_p.setdefault(p, set()).add(ids)
        self._by_s[by_subject].setdefault(s, set()).add(ids)
        self._by_o[by_object].setdefault(o, set()).add(ids)
        self._by_po[by_object].setdefault((p, o), set()).add(ids)
        self._by_so[by_subject].setdefault((s, o), set()).add(ids)
        self._size += 1
        return True

    def _delete(self, ids):
        """Unindex a stored id-triple, dropping buckets it leaves empty.

        Empty buckets are dropped so lookups of fully removed keys stay O(1).
        """
        s, p, o = ids
        bucket = self._by_p[p]
        bucket.discard(ids)
        if not bucket:
            del self._by_p[p]
        for spine, slot, key in self._spine_keys(s, p, o):
            chunk = spine[slot]
            bucket = chunk[key]
            bucket.discard(ids)
            if not bucket:
                del chunk[key]
        self._size -= 1

    # -- snapshots -----------------------------------------------------------

    def save(self, path, metadata=None):
        """Write a binary snapshot of this store (see :mod:`.snapshot`)."""
        from .snapshot import save_snapshot

        return save_snapshot(self, path, metadata=metadata)

    @classmethod
    def load(cls, path):
        """Rebuild a store from a snapshot written by :meth:`save`."""
        from .snapshot import load_snapshot

        return load_snapshot(path, expected_kind="indexed")

    # -- mutation -----------------------------------------------------------

    def add(self, triple):
        encode = self._dictionary.encode
        ids = (encode(triple.subject), encode(triple.predicate),
               encode(triple.object))
        if not self._insert(ids):
            return False
        self._invalidate_sorted_runs(ids[1])
        self.statistics.observe(triple)
        self.version += 1
        return True

    def remove(self, triple):
        """Remove a triple if present; returns True when removed.

        All six indexes and the store statistics are maintained.  Dictionary
        entries are intentionally kept — ids are stable for the lifetime of
        the store, which is what lets id-space evaluation cache decoded
        terms safely.
        """
        encoded = self.encode_pattern(triple.subject, triple.predicate, triple.object)
        if encoded is None or not self._has(encoded):
            return False
        self._delete(encoded)
        self._invalidate_sorted_runs(encoded[1])
        self.statistics.forget(triple)
        self.version += 1
        return True

    def begin_generation(self):
        """Start a copy-on-write draft of this store's next MVCC generation.

        Returns a :class:`GenerationDraft` sharing this store's term
        dictionary (append-only, so ids stay valid across generations), its
        untouched index chunks and buckets, its statistics and its sorted
        runs.  This store is never modified through the draft — readers
        holding it keep an immutable view while the writer assembles the
        next generation.
        """
        return GenerationDraft(self)

    # -- id-level access ----------------------------------------------------

    def encode_pattern(self, subject, predicate, object):
        """Encode bound pattern positions; returns None if a bound term is unknown.

        ``None`` positions stay ``None`` (wildcards).  A ``None`` return means
        the pattern cannot match anything in this store — callers short-circuit
        to an empty result without touching any index.
        """
        encoded = []
        for term in (subject, predicate, object):
            if term is None:
                encoded.append(None)
                continue
            term_id = self._dictionary.lookup(term)
            if term_id is None:
                return None
            encoded.append(term_id)
        return tuple(encoded)

    def id_triples(self):
        """Iterate over every stored triple as a raw id 3-tuple (no decode).

        The bulk counterpart of :meth:`triples_ids` used by snapshot and
        copy/bulk-load paths: ``IndexedStore.from_id_triples(other.dictionary,
        other.id_triples())`` clones a store without touching terms.  The
        triples come predicate by predicate, chained from the P index.
        """
        return chain.from_iterable(self._by_p.values())

    def triples_ids(self, subject=None, predicate=None, object=None):
        """Yield raw id 3-tuples matching an already-encoded pattern.

        Arguments are dictionary ids (or ``None`` wildcards); nothing is
        decoded.  This is the join-loop access path of the id-space evaluator.
        """
        return iter(self._candidates(subject, predicate, object))

    def count_ids(self, subject=None, predicate=None, object=None):
        """Number of triples matching an already-encoded pattern (no decode)."""
        return len(self._candidates(subject, predicate, object))

    def _candidates(self, s, p, o):
        """Return the candidate id-triple set for an encoded pattern.

        A probe of a chunked spine first picks the key's chunk by its
        subject or object id (see ``_CHUNK_COLUMNS``).
        """
        if s is not None and p is not None:
            bucket = self._by_sp[s & MASK].get((s, p), _EMPTY)
            if o is None:
                return bucket
            return {(s, p, o)} if (s, p, o) in bucket else _EMPTY
        if p is not None and o is not None:
            return self._by_po[o & MASK].get((p, o), _EMPTY)
        if s is not None and o is not None:
            return self._by_so[s & MASK].get((s, o), _EMPTY)
        if s is not None:
            return self._by_s[s & MASK].get(s, _EMPTY)
        if p is not None:
            return self._by_p.get(p, _EMPTY)
        if o is not None:
            return self._by_o[o & MASK].get(o, _EMPTY)
        return _Scan(self._by_p.values(), self._size)

    # -- sorted runs ---------------------------------------------------------

    def sorted_run(self, predicate_id, order=RUN_BY_SUBJECT):
        """The predicate's triples as a key-sorted :class:`SortedRun`.

        ``order`` selects the sort column: ``"s"`` sorts by subject (values
        are the objects), ``"o"`` sorts by object (values are the subjects).
        Runs are built lazily on first request, cached per ``(predicate,
        order)``, and invalidated by any mutation touching the predicate.
        Returns ``None`` for a predicate with no triples, so callers can
        fall back to the tuple path without special-casing empty columns.
        """
        if order not in (RUN_BY_SUBJECT, RUN_BY_OBJECT):
            raise ValueError(f"unknown run order: {order!r}")
        key = (predicate_id, order)
        run = self._sorted_runs.get(key)
        if run is not None:
            return run
        bucket = self._by_p.get(predicate_id)
        if not bucket:
            return None
        if order == RUN_BY_SUBJECT:
            pairs = sorted((s, o) for s, _p, o in bucket)
        else:
            pairs = sorted((o, s) for s, _p, o in bucket)
        keys = array("I", (pair[0] for pair in pairs))
        values = array("I", (pair[1] for pair in pairs))
        run = SortedRun(predicate_id, order, keys, values)
        self._sorted_runs[key] = run
        return run

    def _install_sorted_runs(self, runs):
        """Adopt prebuilt runs (snapshot load path, trusted input)."""
        for run in runs:
            self._sorted_runs[(run.predicate, run.order)] = run

    def _invalidate_sorted_runs(self, predicate_id):
        """Drop both cached runs of one predicate after a mutation."""
        if self._sorted_runs:
            self._sorted_runs.pop((predicate_id, RUN_BY_SUBJECT), None)
            self._sorted_runs.pop((predicate_id, RUN_BY_OBJECT), None)

    # -- term-level lookup --------------------------------------------------

    def triples(self, subject=None, predicate=None, object=None):
        encoded = self.encode_pattern(subject, predicate, object)
        if encoded is None:
            return
        decode = self._dictionary.decode
        for s_id, p_id, o_id in self._candidates(*encoded):
            yield Triple(decode(s_id), decode(p_id), decode(o_id))

    def contains(self, triple):
        encoded = self.encode_pattern(triple.subject, triple.predicate, triple.object)
        return encoded is not None and self._has(encoded)

    def count(self, subject=None, predicate=None, object=None):
        encoded = self.encode_pattern(subject, predicate, object)
        if encoded is None:
            return 0
        return len(self._candidates(*encoded))

    def estimate_count(self, subject=None, predicate=None, object=None):
        """Cheap cardinality estimate for the optimizer.

        Fully bound or singly/doubly bound patterns are answered exactly from
        the index sizes (constant time); everything else falls back to the
        statistics-based estimate.
        """
        encoded = self.encode_pattern(subject, predicate, object)
        if encoded is None:
            return 0
        s, p, o = encoded
        if s is not None or o is not None or p is not None:
            return len(self._candidates(s, p, o))
        return self.statistics.triple_count

    def __len__(self):
        return self._size

    @property
    def dictionary(self):
        """The term dictionary (id-space evaluation and white-box tests)."""
        return self._dictionary

    def __repr__(self):
        return f"IndexedStore(len={len(self)}, terms={len(self._dictionary)})"


class GenerationDraft:
    """A copy-on-write draft of an :class:`IndexedStore`'s next generation.

    Built by :meth:`IndexedStore.begin_generation` and driven by the MVCC
    writer (:mod:`repro.store.mvcc`).  The draft's store starts as a
    structural-sharing copy of the base generation:

    * the term dictionary is *shared* (append-only; ids are stable forever),
    * each chunked index spine copies its list of :data:`FANOUT` chunk
      references and the P index copies its small dict spine; everything
      below is shared with the base.  A chunk is copied on the draft's first
      write to it and a bucket on the first write to its key (``_own``);
      ownership is tracked per draft,
    * statistics start as a shallow copy that copies one predicate's
      counters on the first write to that predicate
      (:meth:`StoreStatistics.copy`),
    * sorted runs are shared and only the runs of *touched predicates* are
      dropped at :meth:`finish` — untouched predicates keep their (immutable)
      runs across generations with zero rebuild cost.

    A write therefore costs O(fan-out + touched chunks + touched buckets),
    whatever the store's size.  Three costs still grow with a touched
    predicate's size: copying its P bucket, copying its statistics counters,
    and the lazy rebuild of its sorted runs in the new generation.

    The base store is never mutated: concurrent readers pinned to it see a
    frozen, consistent state for as long as they hold the reference.
    """

    def __init__(self, base):
        store = IndexedStore._from_parts(
            base._dictionary, base._by_p.copy(),
            [list(spine) for spine in base._spines()], base._size,
            base.statistics.copy(),
        )
        # dict.copy() is a single C-level call, so it is atomic with respect
        # to readers lazily inserting sorted runs into the base generation.
        store._sorted_runs = base._sorted_runs.copy()
        store.version = base.version
        self.store = store
        #: Predicates written so far; their P buckets are the draft's own.
        self._touched_predicates = set()
        #: Per spine, in ``_spine_keys`` order: chunk slots copied so far ...
        self._owned_chunks = tuple(set() for _ in range(5))
        #: ... and keys whose bucket is the draft's own (or was absent).
        self._owned_keys = tuple(set() for _ in range(5))
        self.inserted = 0
        self.deleted = 0

    def _own(self, ids):
        """Give the draft private copies of the chunks and buckets of ``ids``.

        Afterwards the store's plain ``_insert``/``_delete`` may change them
        in place.  A key that has no bucket yet counts as owned: a bucket
        created there later is created by this draft.
        """
        store = self.store
        s, p, o = ids
        if p not in self._touched_predicates:
            bucket = store._by_p.get(p)
            if bucket is not None:
                store._by_p[p] = set(bucket)
            self._touched_predicates.add(p)
        for (spine, slot, key), owned_chunks, owned_keys in zip(
            store._spine_keys(s, p, o), self._owned_chunks, self._owned_keys
        ):
            if slot not in owned_chunks:
                spine[slot] = spine[slot].copy()
                owned_chunks.add(slot)
            if key not in owned_keys:
                chunk = spine[slot]
                bucket = chunk.get(key)
                if bucket is not None:
                    chunk[key] = set(bucket)
                owned_keys.add(key)

    def add(self, triple):
        """Insert one ground triple into the draft; True when it was new."""
        store = self.store
        encode = store._dictionary.encode
        ids = (encode(triple.subject), encode(triple.predicate),
               encode(triple.object))
        if store._has(ids):
            return False
        self._own(ids)
        store._insert(ids)
        store.statistics.observe(triple)
        self.inserted += 1
        return True

    def remove(self, triple):
        """Remove one ground triple from the draft; True when it was present."""
        store = self.store
        encoded = store.encode_pattern(triple.subject, triple.predicate,
                                       triple.object)
        if encoded is None or not store._has(encoded):
            return False
        self._own(encoded)
        store._delete(encoded)
        store.statistics.forget(triple)
        self.deleted += 1
        return True

    @property
    def mutated(self):
        """True when at least one triple was actually inserted or removed."""
        return bool(self.inserted or self.deleted)

    def finish(self, version):
        """Seal the draft as generation ``version`` and return its store.

        Sorted runs of every touched predicate are dropped (they rebuild
        lazily on first use in the new generation); untouched predicates
        keep the shared runs of the previous generation.
        """
        store = self.store
        for predicate_id in self._touched_predicates:
            store._sorted_runs.pop((predicate_id, RUN_BY_SUBJECT), None)
            store._sorted_runs.pop((predicate_id, RUN_BY_OBJECT), None)
        store.version = version
        return store
