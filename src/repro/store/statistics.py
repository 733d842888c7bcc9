"""Store-level statistics used for selectivity estimation.

Section V of the paper discusses triple-pattern reordering based on
selectivity estimation (citing Stocker et al.) and notes that schema
statistics allow native engines to answer queries such as Q3c (no article has
``swrc:isbn``) or Q9 (schema extraction) in near-constant time.
:class:`StoreStatistics` collects the counts those techniques need:

* triples per predicate,
* distinct subjects/objects per predicate,
* instances per ``rdf:type`` class.
"""

from __future__ import annotations

from ..rdf.namespace import RDF

_RDF_TYPE = RDF.type


class StoreStatistics:
    """Incremental counts maintained while triples are added to a store.

    The distinct-subject/object structures are reference-counted (term ->
    occurrence count) rather than plain sets so that :meth:`forget` can
    maintain them exactly when triples are removed.  Those per-predicate
    counters may be shared with a :meth:`copy`; ``_shared`` names the
    predicates whose counters must be copied before they change.
    """

    def __init__(self):
        self.triple_count = 0
        self.predicate_counts = {}
        self._predicate_subjects = {}
        self._predicate_objects = {}
        self.class_counts = {}
        self._shared = set()

    def _unshare(self, predicate):
        """Take private copies of one predicate's distinct-term counters."""
        for table in (self._predicate_subjects, self._predicate_objects):
            counts = table.get(predicate)
            if counts is not None:
                table[predicate] = dict(counts)
        self._shared.discard(predicate)

    def observe(self, triple):
        """Record one added triple."""
        self.triple_count += 1
        predicate = triple.predicate
        if self._shared and predicate in self._shared:
            self._unshare(predicate)
        self.predicate_counts[predicate] = self.predicate_counts.get(predicate, 0) + 1
        subjects = self._predicate_subjects.setdefault(predicate, {})
        subjects[triple.subject] = subjects.get(triple.subject, 0) + 1
        objects = self._predicate_objects.setdefault(predicate, {})
        objects[triple.object] = objects.get(triple.object, 0) + 1
        if predicate == _RDF_TYPE:
            self.class_counts[triple.object] = self.class_counts.get(triple.object, 0) + 1

    def forget(self, triple):
        """Record one removed triple (exact inverse of :meth:`observe`)."""
        self.triple_count -= 1
        predicate = triple.predicate
        if self._shared and predicate in self._shared:
            self._unshare(predicate)
        _decrement(self.predicate_counts, predicate)
        subjects = self._predicate_subjects.get(predicate)
        if subjects is not None:
            _decrement(subjects, triple.subject)
            if not subjects:
                del self._predicate_subjects[predicate]
        objects = self._predicate_objects.get(predicate)
        if objects is not None:
            _decrement(objects, triple.object)
            if not objects:
                del self._predicate_objects[predicate]
        if predicate == _RDF_TYPE:
            _decrement(self.class_counts, triple.object)

    def copy(self):
        """An independent copy that shares each predicate's counters until
        one side changes them (MVCC generation builds start from one).

        The copy costs O(predicates + classes): the per-predicate
        distinct-subject/object counters — the bulk of the statistics — are
        shared, and whichever side first records an added or removed triple
        of a predicate (:meth:`observe`, :meth:`forget`) copies that
        predicate's counters alone.  A writer can therefore maintain the next
        generation's statistics incrementally while readers keep planning
        against the published generation's counts, and pays only for the
        predicates it touches.
        """
        shared = set(self._predicate_subjects)
        shared.update(self._predicate_objects)
        # Both sides now hold the same counter dicts; each copies before
        # writing.  Only this bookkeeping set changes on the original.
        self._shared = shared
        clone = StoreStatistics()
        clone.triple_count = self.triple_count
        clone.predicate_counts = dict(self.predicate_counts)
        clone._predicate_subjects = dict(self._predicate_subjects)
        clone._predicate_objects = dict(self._predicate_objects)
        clone.class_counts = dict(self.class_counts)
        clone._shared = set(shared)
        return clone

    # -- accessors ---------------------------------------------------------

    def predicate_count(self, predicate):
        """Number of triples carrying ``predicate``."""
        return self.predicate_counts.get(predicate, 0)

    def distinct_subjects(self, predicate):
        """Number of distinct subjects appearing with ``predicate``."""
        return len(self._predicate_subjects.get(predicate, ()))

    def distinct_objects(self, predicate):
        """Number of distinct objects appearing with ``predicate``."""
        return len(self._predicate_objects.get(predicate, ()))

    def class_count(self, class_uri):
        """Number of ``rdf:type`` instances of ``class_uri``."""
        return self.class_counts.get(class_uri, 0)

    def distinct_predicates(self):
        """Number of distinct predicates observed."""
        return len(self.predicate_counts)

    def distinct_subject_total(self):
        """Number of distinct subjects across all predicates.

        Linear in the number of (predicate, subject) pairs; the cost-based
        planner memoizes it per planning pass (it is only needed for
        variable-predicate patterns, Q9/Q10 style).
        """
        return len(self._all_subjects())

    def distinct_object_total(self):
        """Number of distinct objects across all predicates."""
        return len(self._all_objects())

    # -- selectivity estimation ---------------------------------------------

    def estimate(self, subject, predicate, object):
        """Estimate the number of triples matching an (s, p, o) pattern.

        ``None`` marks a wildcard position.  The estimates follow the classic
        attribute-independence model: start from the predicate count (or the
        total triple count for a variable predicate) and divide by the number
        of distinct subjects/objects for each bound subject/object.
        """
        if predicate is not None:
            base = self.predicate_count(predicate)
            if base == 0:
                return 0
            estimate = float(base)
            if subject is not None:
                estimate /= max(self.distinct_subjects(predicate), 1)
            if object is not None:
                if predicate == _RDF_TYPE and subject is None:
                    return self.class_count(object)
                estimate /= max(self.distinct_objects(predicate), 1)
            return max(estimate, 0.0)
        # Variable predicate: fall back to the total count, scaled down when
        # subject and/or object are bound.
        estimate = float(self.triple_count)
        if subject is not None:
            estimate /= max(len(self._all_subjects()), 1)
        if object is not None:
            estimate /= max(len(self._all_objects()), 1)
        return estimate

    def _all_subjects(self):
        subjects = set()
        for per_predicate in self._predicate_subjects.values():
            subjects.update(per_predicate)
        return subjects

    def _all_objects(self):
        objects = set()
        for per_predicate in self._predicate_objects.values():
            objects.update(per_predicate)
        return objects

    def __eq__(self, other):
        """Exact structural equality (snapshot round-trip tests rely on it)."""
        if not isinstance(other, StoreStatistics):
            return NotImplemented
        return (
            self.triple_count == other.triple_count
            and self.predicate_counts == other.predicate_counts
            and self._predicate_subjects == other._predicate_subjects
            and self._predicate_objects == other._predicate_objects
            and self.class_counts == other.class_counts
        )

    __hash__ = None  # mutable container; equality is structural

    def __repr__(self):
        return (
            f"StoreStatistics(triples={self.triple_count}, "
            f"predicates={len(self.predicate_counts)}, classes={len(self.class_counts)})"
        )


def merge_statistics(parts):
    """Exact statistics of the disjoint union of several stores.

    The partitioned store keeps one :class:`StoreStatistics` per segment and
    plans against their merge.  Because every triple lives in exactly one
    segment, all counters — including the reference-counted distinct
    subject/object maps — add exactly: the merge is structurally equal
    (``==``) to the statistics a single store holding all the triples would
    have computed, so planner cardinality estimates are identical under
    sharding.  (This exactness is asserted by the statistics-equivalence
    test; it would break if segments could ever share a triple.)
    """
    merged = StoreStatistics()
    for part in parts:
        merged.triple_count += part.triple_count
        for predicate, count in part.predicate_counts.items():
            merged.predicate_counts[predicate] = (
                merged.predicate_counts.get(predicate, 0) + count
            )
        for predicate, counts in part._predicate_subjects.items():
            target = merged._predicate_subjects.setdefault(predicate, {})
            for term, count in counts.items():
                target[term] = target.get(term, 0) + count
        for predicate, counts in part._predicate_objects.items():
            target = merged._predicate_objects.setdefault(predicate, {})
            for term, count in counts.items():
                target[term] = target.get(term, 0) + count
        for class_uri, count in part.class_counts.items():
            merged.class_counts[class_uri] = (
                merged.class_counts.get(class_uri, 0) + count
            )
    return merged


def _decrement(counter, key):
    """Decrease ``counter[key]`` by one, dropping the entry at zero."""
    remaining = counter.get(key, 0) - 1
    if remaining > 0:
        counter[key] = remaining
    else:
        counter.pop(key, None)
