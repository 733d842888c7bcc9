"""Versioned binary snapshots of triple stores (the persistent-store model).

SP2Bench separates document generation and loading from query time, and the
paper reports loading times per engine precisely because native engines
(Sesame-native, Virtuoso) amortize the expensive physical build into a
reusable on-disk database (Section V).  This module is that on-disk database
for the reproduction: a fully built :class:`~.indexed_store.IndexedStore` is
serialized once — term dictionary, id-triple set, grouped images of the six
hash indexes, and the :class:`~.statistics.StoreStatistics` — and every later
run rebuilds the store from the snapshot through bulk constructors that skip
the per-triple dictionary encoding, statistics observation, and index churn
of the incremental ``add()`` path.  :class:`~.memory_store.MemoryStore`
snapshots keep the two engine families symmetric with a trivial
N-Triples-backed payload (the in-memory engines of the paper re-parse their
document; only the parse is amortized, matching their cost model).

File layout (all integers little-endian)::

    magic    8s   b"SP2BSNAP"
    version  u16  FORMAT_VERSION
    kind     u8   1 = indexed, 2 = memory
    flags    u8   reserved (0)
    meta_len u32  length of the metadata JSON that follows the header
    data_len u64  length of the payload that follows the metadata
    crc32    u32  CRC-32 of metadata + payload
    metadata      JSON object (generator config, statistics, free-form)
    payload       kind-specific sections (see _pack_indexed / _pack_memory)

The version is bumped whenever the payload layout changes; readers reject
other versions (callers such as the dataset cache then rebuild).  The CRC
guards against truncated or bit-rotted cache entries.
"""

from __future__ import annotations

import gc
import json
import logging
import os
import struct
import sys
import zlib
from array import array

from ..rdf import ntriples
from ..rdf.terms import BNode, Literal, URIRef
from .dictionary import TermDictionary
from .statistics import StoreStatistics

MAGIC = b"SP2BSNAP"

#: Bump on any payload layout change.  Version 2 appended the sorted-run
#: section to the indexed payload; version-1 files are still readable (the
#: runs section is simply absent and runs are rebuilt lazily on demand).
FORMAT_VERSION = 2

#: Versions this build can read.  Anything else is rejected and callers such
#: as the dataset cache rebuild from source.
READ_VERSIONS = (1, 2)

KIND_INDEXED = 1
KIND_MEMORY = 2

_HEADER = struct.Struct("<8sHBBIQI")
_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

#: Term kind tags in the dictionary section.
_TERM_URI = 0
_TERM_BNODE = 1
_TERM_LITERAL = 2

_LOG = logging.getLogger(__name__)

#: Set after the first legacy-version load so the lazy-rebuild notice is
#: logged once per process, not once per cached snapshot.
_warned_legacy_runs = False


class SnapshotError(Exception):
    """Base class for snapshot read/write failures."""


class SnapshotFormatError(SnapshotError):
    """The file is not an SP2Bench snapshot (or its structure is malformed)."""


class SnapshotVersionError(SnapshotError):
    """The snapshot was written by an incompatible format version."""


class SnapshotCorruptError(SnapshotError):
    """The snapshot is truncated or fails its integrity check."""


# -- public API --------------------------------------------------------------


def save_snapshot(store, path, metadata=None):
    """Serialize ``store`` to a snapshot file at ``path`` (atomically).

    ``metadata`` is an optional JSON-serializable dict stored alongside the
    payload; :func:`read_snapshot_metadata` retrieves it without loading the
    store.  Returns ``path``.
    """
    # Imported here: the store modules import this module from save()/load().
    from .indexed_store import IndexedStore
    from .memory_store import MemoryStore

    if isinstance(store, IndexedStore):
        kind, payload = KIND_INDEXED, _pack_indexed(store)
    elif isinstance(store, MemoryStore):
        kind, payload = KIND_MEMORY, _pack_memory(store)
    else:
        raise SnapshotFormatError(
            f"no snapshot serialization for {type(store).__name__}"
        )
    meta = dict(metadata or {})
    meta.setdefault("store", store.name)
    meta.setdefault("triples", len(store))
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    crc = zlib.crc32(payload, zlib.crc32(meta_bytes))
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, kind, 0, len(meta_bytes), len(payload), crc
    )
    # Write-then-rename keeps concurrent readers (and interrupted writers)
    # from ever observing a half-written snapshot; a failed write must not
    # leak its temp file into the cache directory.
    path = os.fspath(path)
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(header)
            handle.write(meta_bytes)
            handle.write(payload)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return path


def load_snapshot(path, expected_kind=None):
    """Load a snapshot file and return the rebuilt store.

    ``expected_kind`` (``"indexed"`` / ``"memory"``) rejects snapshots of the
    other store family up front.  Raises :class:`SnapshotFormatError` /
    :class:`SnapshotVersionError` / :class:`SnapshotCorruptError` on invalid
    input — callers holding a cache treat any :class:`SnapshotError` as a
    miss and rebuild.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    version, kind, meta_bytes, payload = _split(path, data, verify=True)
    kind_name = "indexed" if kind == KIND_INDEXED else "memory"
    if expected_kind is not None and expected_kind != kind_name:
        raise SnapshotFormatError(
            f"{path}: snapshot holds a {kind_name} store, expected {expected_kind}"
        )
    del meta_bytes
    # Rebuilding a store allocates hundreds of thousands of tracked
    # containers at once; pausing the generational collector for the burst
    # shaves ~30% off load time (nothing allocated here can be cyclic
    # garbage — every object ends up reachable from the returned store).
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        if kind == KIND_INDEXED:
            return _unpack_indexed(path, payload, version)
        return _unpack_memory(payload)
    finally:
        if was_enabled:
            gc.enable()


def read_snapshot_metadata(path):
    """Return the metadata dict of a snapshot without loading its payload."""
    with open(path, "rb") as handle:
        head = handle.read(_HEADER.size)
        _check_header(path, head)
        _magic, _version, kind, _flags, meta_len, data_len, _crc = _HEADER.unpack(head)
        meta_bytes = handle.read(meta_len)
    if len(meta_bytes) != meta_len:
        raise SnapshotCorruptError(f"{path}: truncated snapshot metadata")
    try:
        metadata = json.loads(meta_bytes.decode("utf-8"))
    except ValueError as error:
        raise SnapshotCorruptError(f"{path}: unreadable snapshot metadata") from error
    metadata.setdefault("store", "indexed" if kind == KIND_INDEXED else "memory")
    return metadata


# -- container framing -------------------------------------------------------


def _check_header(path, head):
    if len(head) < _HEADER.size or head[:8] != MAGIC:
        raise SnapshotFormatError(f"{path}: not an SP2Bench snapshot")
    version = _HEADER.unpack(head[: _HEADER.size])[1]
    if version not in READ_VERSIONS:
        raise SnapshotVersionError(
            f"{path}: snapshot format version {version}, this build reads "
            f"versions {', '.join(map(str, READ_VERSIONS))}"
        )


def _split(path, data, verify):
    _check_header(path, data[: _HEADER.size])
    _magic, version, kind, _flags, meta_len, data_len, crc = _HEADER.unpack(
        data[: _HEADER.size]
    )
    if kind not in (KIND_INDEXED, KIND_MEMORY):
        raise SnapshotFormatError(f"{path}: unknown store kind {kind}")
    meta_start = _HEADER.size
    data_start = meta_start + meta_len
    if len(data) != data_start + data_len:
        raise SnapshotCorruptError(f"{path}: truncated snapshot")
    meta_bytes = data[meta_start:data_start]
    payload = data[data_start:]
    if verify and zlib.crc32(payload, zlib.crc32(meta_bytes)) != crc:
        raise SnapshotCorruptError(f"{path}: snapshot integrity check failed")
    return version, kind, meta_bytes, payload


# -- low-level helpers -------------------------------------------------------


def _u32_array(values):
    """Pack an iterable of ints as a little-endian u32 array."""
    packed = array("I", values)
    if packed.itemsize != 4:
        # Exotic platform where C unsigned int is not 32-bit: repack exactly.
        return struct.pack(f"<{len(packed)}I", *packed)
    if sys.byteorder == "big":
        packed.byteswap()
    return packed.tobytes()


class _Reader:
    """Sequential reader over a payload bytes object."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data):
        self._data = data
        self._pos = 0

    def _unpack(self, fmt):
        try:
            value = fmt.unpack_from(self._data, self._pos)[0]
        except struct.error as error:
            raise SnapshotCorruptError("snapshot payload ends prematurely") from error
        self._pos += fmt.size
        return value

    def u8(self):
        return self._unpack(_U8)

    def u32(self):
        return self._unpack(_U32)

    def u64(self):
        return self._unpack(_U64)

    def raw(self, length):
        end = self._pos + length
        if end > len(self._data):
            raise SnapshotCorruptError("snapshot payload ends prematurely")
        chunk = self._data[self._pos:end]
        self._pos = end
        return chunk

    def u32_array(self, count):
        chunk = self.raw(4 * count)
        values = array("I")
        if values.itemsize != 4:
            return array("Q", struct.unpack(f"<{count}I", chunk))
        values.frombytes(chunk)
        if sys.byteorder == "big":
            values.byteswap()
        return values

    def string(self):
        return self.raw(self.u32()).decode("utf-8")


def _append_string(out, text):
    encoded = text.encode("utf-8")
    out.append(_U32.pack(len(encoded)))
    out.append(encoded)


# -- indexed-store payload ---------------------------------------------------
#
# Sections, in order:
#   dictionary   term kinds + datatype/language tables + one shared text blob
#   triples      the id-triple set as a flat u32 array
#   indexes      six grouped index images (singleton and multi buckets split,
#                members as positions into the triples section) — the bulk
#                rebuild data that lets load skip per-triple index churn
#   statistics   StoreStatistics in id space (decoded through the dictionary
#                on load instead of being re-observed per triple)
#   runs         (version >= 2) predicate-sorted id runs for the batch
#                kernels: run count, then per run the predicate id, the sort
#                order tag (0 = by subject, 1 = by object), the length, and
#                the two u32 columns — absent in version-1 files, in which
#                case runs are rebuilt lazily on first use


def _pack_indexed(store):
    out = []
    _pack_dictionary(out, store.dictionary)
    triples = list(store.id_triples())
    out.append(_U32.pack(len(triples)))
    out.append(_u32_array(component for triple in triples for component in triple))
    positions = {triple: index for index, triple in enumerate(triples)}
    for arity, items in store._index_table():
        _pack_index_image(out, arity, items, positions)
    _pack_statistics(out, store.statistics, store.dictionary)
    _pack_sorted_runs(out, store)
    return b"".join(out)


def _unpack_indexed(path, payload, version=FORMAT_VERSION):
    from .indexed_store import IndexedStore

    reader = _Reader(payload)
    try:
        terms = _unpack_dictionary(reader)
        count = reader.u32()
        flat = iter(reader.u32_array(3 * count))
        triples = list(zip(flat, flat, flat))
        images = [_unpack_index_image(reader) for _ in range(6)]
        statistics = _unpack_statistics(reader, terms)
        runs = _unpack_sorted_runs(reader) if version >= 2 else None
    except SnapshotError as error:
        raise type(error)(f"{path}: {error}") from None
    dictionary = TermDictionary.from_terms(terms)
    store = IndexedStore._from_snapshot(dictionary, triples, images, statistics)
    if runs is not None:
        store._install_sorted_runs(runs)
    else:
        global _warned_legacy_runs
        if not _warned_legacy_runs:
            _warned_legacy_runs = True
            _LOG.warning(
                "%s: version-%d snapshot has no sorted-run section; "
                "predicate runs will be rebuilt lazily (save a new snapshot "
                "to persist them)", path, version,
            )
    return store


def _pack_sorted_runs(out, store):
    """Serialize eagerly built sorted runs for every predicate, both orders.

    Snapshots are the amortized-build artifact of the native engine model, so
    the runs are materialized here even when the live store never needed
    them: paying the sort once at save time is what lets every later load
    start with merge-joinable columns for free.
    """
    from .indexed_store import RUN_BY_OBJECT, RUN_BY_SUBJECT

    runs = [
        run
        for predicate_id in sorted(store._by_p)
        for order in (RUN_BY_SUBJECT, RUN_BY_OBJECT)
        for run in (store.sorted_run(predicate_id, order),)
        if run is not None
    ]
    out.append(_U32.pack(len(runs)))
    for run in runs:
        out.append(_U32.pack(run.predicate))
        out.append(_U8.pack(0 if run.order == RUN_BY_SUBJECT else 1))
        out.append(_U32.pack(len(run)))
        out.append(_u32_array(run.keys))
        out.append(_u32_array(run.values))


def _unpack_sorted_runs(reader):
    from .indexed_store import RUN_BY_OBJECT, RUN_BY_SUBJECT, SortedRun

    runs = []
    for _ in range(reader.u32()):
        predicate = reader.u32()
        order_tag = reader.u8()
        if order_tag not in (0, 1):
            raise SnapshotFormatError(f"unknown sorted-run order tag {order_tag}")
        length = reader.u32()
        keys = reader.u32_array(length)
        values = reader.u32_array(length)
        order = RUN_BY_SUBJECT if order_tag == 0 else RUN_BY_OBJECT
        runs.append(SortedRun(predicate, order, keys, values))
    return runs


def _pack_dictionary(out, dictionary):
    terms = dictionary._id_to_term
    kinds = bytearray()
    datatype_table = {}
    language_table = {}
    datatype_refs = []
    language_refs = []
    parts = []
    offsets = [0]
    total_chars = 0
    for term in terms:
        if isinstance(term, URIRef):
            kinds.append(_TERM_URI)
            text = term.value
            datatype_refs.append(0)
            language_refs.append(0)
        elif isinstance(term, BNode):
            kinds.append(_TERM_BNODE)
            text = term.label
            datatype_refs.append(0)
            language_refs.append(0)
        elif isinstance(term, Literal):
            kinds.append(_TERM_LITERAL)
            text = term.lexical
            datatype_refs.append(
                0 if term.datatype is None
                else datatype_table.setdefault(term.datatype, len(datatype_table)) + 1
            )
            language_refs.append(
                0 if term.language is None
                else language_table.setdefault(term.language, len(language_table)) + 1
            )
        else:
            raise SnapshotFormatError(f"cannot serialize term {term!r}")
        parts.append(text)
        total_chars += len(text)
        offsets.append(total_chars)
    out.append(_U32.pack(len(terms)))
    out.append(bytes(kinds))
    for table in (datatype_table, language_table):
        out.append(_U32.pack(len(table)))
        for value in table:  # insertion order == index order
            _append_string(out, value)
    out.append(_u32_array(datatype_refs))
    out.append(_u32_array(language_refs))
    out.append(_u32_array(offsets))
    blob = "".join(parts).encode("utf-8")
    out.append(_U64.pack(len(blob)))
    out.append(blob)


def _unpack_dictionary(reader):
    count = reader.u32()
    kinds = reader.raw(count)
    datatype_table = [reader.string() for _ in range(reader.u32())]
    language_table = [reader.string() for _ in range(reader.u32())]
    datatype_refs = reader.u32_array(count)
    language_refs = reader.u32_array(count)
    offsets = reader.u32_array(count + 1)  # writer always emits count+1
    blob = reader.raw(reader.u64()).decode("utf-8")
    # Rebuilding ~10k+ term objects is on the load hot path; construct them
    # directly (the CRC already vouches for the payload, and the format only
    # ever stores terms that passed validation when first created).
    terms = []
    append = terms.append
    new = object.__new__
    set_field = object.__setattr__
    for index in range(count):
        text = blob[offsets[index]:offsets[index + 1]]
        kind = kinds[index]
        if kind == _TERM_URI:
            term = new(URIRef)
            set_field(term, "value", text)
        elif kind == _TERM_BNODE:
            term = new(BNode)
            set_field(term, "label", text)
        elif kind == _TERM_LITERAL:
            term = new(Literal)
            set_field(term, "lexical", text)
            datatype_ref = datatype_refs[index]
            language_ref = language_refs[index]
            set_field(
                term, "datatype",
                datatype_table[datatype_ref - 1] if datatype_ref else None,
            )
            set_field(
                term, "language",
                language_table[language_ref - 1] if language_ref else None,
            )
        else:
            raise SnapshotFormatError(f"unknown term kind tag {kind}")
        append(term)
    return terms


def _pack_index_image(out, arity, items, positions):
    """Serialize one hash index (its ``(key, bucket)`` items) as grouped
    singleton/multi bucket images."""
    single_keys = []
    single_members = []
    multi_keys = []
    multi_counts = []
    multi_members = []
    for key, bucket in items:
        if len(bucket) == 1:
            single_keys.append(key)
            single_members.append(positions[next(iter(bucket))])
        else:
            multi_keys.append(key)
            multi_counts.append(len(bucket))
            multi_members.extend(positions[triple] for triple in bucket)
    out.append(_U8.pack(arity))
    out.append(_U32.pack(len(single_keys)))
    if arity == 1:
        out.append(_u32_array(single_keys))
    else:
        out.append(_u32_array(key[0] for key in single_keys))
        out.append(_u32_array(key[1] for key in single_keys))
    out.append(_u32_array(single_members))
    out.append(_U32.pack(len(multi_keys)))
    if arity == 1:
        out.append(_u32_array(multi_keys))
    else:
        out.append(_u32_array(key[0] for key in multi_keys))
        out.append(_u32_array(key[1] for key in multi_keys))
    out.append(_u32_array(multi_counts))
    out.append(_U32.pack(len(multi_members)))
    out.append(_u32_array(multi_members))


def _unpack_index_image(reader):
    """Read one index image for the bulk rebuild.

    Keys come back as columns: a tuple of one id array (arity 1) or of the
    first and second components' arrays (arity 2).
    """
    arity = reader.u8()
    if arity not in (1, 2):
        raise SnapshotFormatError(f"index image with key arity {arity}")
    n_single = reader.u32()
    single_columns = tuple(reader.u32_array(n_single) for _ in range(arity))
    single_members = reader.u32_array(n_single)
    n_multi = reader.u32()
    multi_columns = tuple(reader.u32_array(n_multi) for _ in range(arity))
    multi_counts = reader.u32_array(n_multi)
    multi_members = reader.u32_array(reader.u32())
    return (single_columns, single_members, multi_columns, multi_counts,
            multi_members)


def _pack_statistics(out, statistics, dictionary):
    lookup = dictionary.lookup

    def pack_counter(counter):
        out.append(_U32.pack(len(counter)))
        out.append(_u32_array(lookup(term) for term in counter))
        out.append(_u32_array(counter.values()))

    out.append(_U64.pack(statistics.triple_count))
    out.append(_U32.pack(len(statistics.predicate_counts)))
    for predicate, count in statistics.predicate_counts.items():
        out.append(_U32.pack(lookup(predicate)))
        out.append(_U32.pack(count))
        pack_counter(statistics._predicate_subjects.get(predicate, {}))
        pack_counter(statistics._predicate_objects.get(predicate, {}))
    pack_counter(statistics.class_counts)


def _unpack_statistics(reader, terms):
    decode = terms.__getitem__

    def unpack_counter():
        count = reader.u32()
        ids = reader.u32_array(count)
        values = reader.u32_array(count)
        return dict(zip(map(decode, ids), values))

    statistics = StoreStatistics()
    statistics.triple_count = reader.u64()
    for _ in range(reader.u32()):
        predicate = decode(reader.u32())
        statistics.predicate_counts[predicate] = reader.u32()
        subjects = unpack_counter()
        objects = unpack_counter()
        if subjects:
            statistics._predicate_subjects[predicate] = subjects
        if objects:
            statistics._predicate_objects[predicate] = objects
    statistics.class_counts = unpack_counter()
    return statistics


# -- memory-store payload ----------------------------------------------------


def _pack_memory(store):
    """The in-memory engine snapshot: the document itself, as N-Triples."""
    return ntriples.serialize(store.triples()).encode("utf-8")


def _unpack_memory(payload):
    from .memory_store import MemoryStore

    try:
        text = payload.decode("utf-8")
        store = MemoryStore()
        store.bulk_load(ntriples.parse(text))
    except (UnicodeDecodeError, ntriples.ParseError) as error:
        raise SnapshotCorruptError(f"unreadable memory-store payload: {error}") from None
    return store
