"""Query texts the workloads send, each paired with the check of its answer.

A check receives the decoded SPARQL JSON result and returns True only when
the answer is exactly the one the reference (``document.Facts`` or the
reference catalog counts) predicts.
"""

from dataclasses import dataclass
from typing import Callable

from repro.queries.catalog import ALL_QUERIES

CATALOG = {query.identifier: query for query in ALL_QUERIES}
#: The heavy tail of the serving mix, and the heavy set ``heavy_p50_ms`` reads.
HEAVY_IDS = ("Q3a", "Q2", "Q9", "Q5b")
#: The fixed-text cheap reads, and the read set of the in-process workload.
CHEAP_IDS = ("Q1", "Q10", "Q12c")

CANARY = "http://perfbench.invalid/canary"
CANARY_SUBJECTS = ("http://perfbench.invalid/a", "http://perfbench.invalid/b")


@dataclass(frozen=True)
class Request:
    kind: str          # "read", "heavy", "canary" or "catalog"
    label: str         # query id or lookup shape, for reports
    text: str
    check: Callable


def bindings(result):
    return result["results"]["bindings"]


def node_key(binding):
    return "_" if binding["type"] == "bnode" else binding["value"]


def catalog_check(expected):
    if isinstance(expected, bool):
        return lambda result: result.get("boolean") is expected
    return lambda result: "results" in result and len(bindings(result)) == expected


def catalog_request(identifier, expected, kind="catalog"):
    return Request(kind, identifier, CATALOG[identifier].text,
                   catalog_check(expected[identifier]))


def journal_year(facts, title):
    """Q1 shape: a journal's year by its title."""
    years = sorted(facts.journal_years[title])
    text = ("SELECT ?yr WHERE { ?journal rdf:type bench:Journal . "
            f"?journal dc:title {title} . ?journal dcterms:issued ?yr }}")
    return Request("read", "Q1-shape", text, lambda result: sorted(
        b["yr"]["value"] for b in bindings(result)) == years)


def person_incoming(facts, name):
    """Q10 shape: the subjects pointing at the person of a given name."""
    pairs = facts.person_incoming[name]
    text = (f"SELECT ?subj ?pred WHERE {{ ?person foaf:name {name} . "
            "?subj ?pred ?person }")
    return Request("read", "Q10-shape", text, lambda result: sorted(
        (node_key(b["subj"]), b["pred"]["value"])
        for b in bindings(result)) == pairs)


def person_exists(facts, name):
    """Q12c shape: ASK whether a person of a given name exists (always yes)."""
    text = ("ASK { ?person rdf:type foaf:Person . "
            f"?person foaf:name {name} }}")
    return Request("read", "Q12c-shape", text,
                   lambda result: result.get("boolean") is True)


def sample_lookup(facts, rng):
    """One ad-hoc lookup whose constant is drawn from the document."""
    shape = rng.randrange(3)
    if shape == 0:
        return journal_year(facts, rng.choice(facts.titles))
    name = rng.choice(facts.names)
    return person_incoming(facts, name) if shape == 1 else person_exists(facts, name)


def canary_insert(serial):
    a, b = CANARY_SUBJECTS
    return (f'INSERT DATA {{ <{a}> <{CANARY}> "{serial}" . '
            f'<{b}> <{CANARY}> "{serial}" }}')


CANARY_DELETE = f"DELETE WHERE {{ ?s <{CANARY}> ?v }}"


def canary_pair_whole(result):
    """A canary pair is visible entirely or not at all, never half."""
    rows = bindings(result)
    if not rows:
        return True
    return (len(rows) == 2
            and sorted(row["s"]["value"] for row in rows) == list(CANARY_SUBJECTS)
            and rows[0]["v"]["value"] == rows[1]["v"]["value"])


CANARY_PROBE = Request("canary", "canary",
                       f"SELECT ?s ?v WHERE {{ ?s <{CANARY}> ?v }}",
                       canary_pair_whole)
