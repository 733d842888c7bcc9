"""W3C SPARQL Protocol surface logic, independent of any socket.

Everything here is pure request/response computation, so the protocol rules
are unit-testable without starting a server:

* :func:`parse_query_request` implements the three query transport forms of
  the SPARQL 1.1 Protocol — ``GET`` with a ``query=`` URL parameter,
  ``POST`` with an ``application/x-www-form-urlencoded`` body, and ``POST``
  with a direct ``application/sparql-query`` body — plus the ``timeout=``
  extension parameter (seconds, capped by the server's maximum).
* :func:`content_length` validates the ``Content-Length`` of a POST body.
* :func:`negotiate` maps an ``Accept`` header onto one of the four result
  serialization formats (JSON / XML / CSV / TSV), honouring q-values and
  wildcards, with JSON as the default for absent or ``*/*`` preferences.
* :class:`ProtocolError` carries an HTTP status plus the machine-readable
  error payload of :func:`repro.sparql.errors.error_payload`, so transport
  failures and query failures share one body shape.
"""

from __future__ import annotations

from urllib.parse import parse_qs, urlsplit

from ..sparql.errors import ERROR_BAD_REQUEST, error_payload
from ..sparql.serializers import CONTENT_TYPES, FORMATS

#: The endpoint path of the protocol (the W3C spec leaves the path open;
#: ``/sparql`` is the de-facto convention).
ENDPOINT_PATH = "/sparql"

#: The update endpoint path (SPARQL 1.1 Protocol "update operation").
UPDATE_PATH = "/update"

#: Media type of a direct-POST query body.
SPARQL_QUERY_TYPE = "application/sparql-query"

#: Media type of a direct-POST update body.
SPARQL_UPDATE_TYPE = "application/sparql-update"

#: Media type of an HTML-form POST body.
FORM_TYPE = "application/x-www-form-urlencoded"

#: Accept-header media types mapped to serialization formats.  Includes the
#: pragmatic aliases real clients send alongside the four W3C types.
MEDIA_TYPE_FORMATS = {
    "application/sparql-results+json": "json",
    "application/json": "json",
    "application/sparql-results+xml": "xml",
    "application/xml": "xml",
    "text/csv": "csv",
    "text/tab-separated-values": "tsv",
}

#: Server preference order when the client's Accept ranks formats equally.
FORMAT_PREFERENCE = FORMATS  # ("json", "xml", "csv", "tsv")


class ProtocolError(Exception):
    """A protocol-level failure: HTTP status + structured error payload."""

    def __init__(self, status, message, code=ERROR_BAD_REQUEST):
        super().__init__(message)
        self.status = status
        self.code = code

    def payload(self):
        return error_payload(self, code=self.code)


def media_type(content_type):
    """The bare media type of a Content-Type header value (or '')."""
    if not content_type:
        return ""
    return content_type.split(";", 1)[0].strip().lower()


def content_length(header):
    """The body length a ``Content-Length`` header value declares.

    An absent or empty header means no body (0).  Anything but a plain
    non-negative decimal raises :class:`ProtocolError` (400): the body's
    extent is then unknown, so it can be neither read nor skipped.
    """
    if not header:
        return 0
    text = header.strip()
    if not (text.isascii() and text.isdigit()):
        raise ProtocolError(400, f"malformed Content-Length header: {header!r}")
    return int(text)


def negotiate(accept_header):
    """Pick the result format for an ``Accept`` header value.

    Returns one of :data:`~repro.sparql.serializers.FORMATS`.  An absent or
    empty header, ``*/*``, and ``application/*``/``text/*`` wildcards all
    resolve through the server preference order (JSON first).  Raises
    :class:`ProtocolError` (406) when the client only accepts media types
    the server cannot produce.
    """
    if not accept_header or not accept_header.strip():
        return FORMAT_PREFERENCE[0]
    best_format = None
    best_rank = None
    for index, clause in enumerate(accept_header.split(",")):
        parts = [part.strip() for part in clause.split(";")]
        offered = parts[0].lower()
        if not offered:
            continue
        quality = 1.0
        for parameter in parts[1:]:
            if parameter.startswith("q="):
                try:
                    quality = float(parameter[2:])
                except ValueError:
                    quality = 0.0
        if quality <= 0:
            continue
        if offered in MEDIA_TYPE_FORMATS:
            candidates = (MEDIA_TYPE_FORMATS[offered],)
            specificity = 0
        elif offered == "text/*":
            candidates = ("csv", "tsv")
            specificity = 1
        elif offered == "application/*":
            candidates = FORMAT_PREFERENCE
            specificity = 1
        elif offered == "*/*":
            candidates = FORMAT_PREFERENCE
            specificity = 2
        else:
            continue
        for candidate in candidates:
            # Higher q wins; at equal q a specific media type beats a
            # wildcard range (RFC 7231 §5.3.2 precedence), then ties break
            # on Accept-list order and finally on the server preference
            # order (the candidate tuple is pre-ordered).
            rank = (-quality, specificity, index,
                    FORMAT_PREFERENCE.index(candidate))
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best_format = candidate
            break
    if best_format is None:
        raise ProtocolError(
            406,
            f"no supported result format in Accept: {accept_header!r} "
            f"(supported: {', '.join(CONTENT_TYPES.values())})",
        )
    return best_format


def _single_parameter(parameters, name):
    values = parameters.get(name, [])
    if len(values) > 1:
        raise ProtocolError(400, f"multiple {name!r} parameters given")
    return values[0] if values else None


def _parse_timeout(raw, max_timeout):
    if raw is None:
        return None
    try:
        timeout = float(raw)
    except ValueError:
        raise ProtocolError(400, f"malformed timeout parameter {raw!r}") from None
    if timeout < 0:
        raise ProtocolError(400, "timeout parameter must be non-negative")
    if max_timeout is not None:
        timeout = min(timeout, max_timeout)
    return timeout


def parse_query_request(method, target, content_type=None, body=None,
                        max_timeout=None):
    """Extract ``(query_text, timeout)`` from one protocol request.

    ``target`` is the raw request target (path plus query string); ``body``
    is the decoded request body for POST.  Raises :class:`ProtocolError`
    with the proper status for every malformed transport: unknown method
    (405), missing/duplicate ``query`` parameter (400), unsupported POST
    Content-Type (415), malformed ``timeout`` (400).  The query text itself
    is *not* validated here — parse errors surface when the engine prepares
    it, and map to 400 at the handler layer.
    """
    url = urlsplit(target)
    url_parameters = parse_qs(url.query, keep_blank_values=True)
    timeout_raw = _single_parameter(url_parameters, "timeout")

    if method == "GET":
        query = _single_parameter(url_parameters, "query")
        if query is None:
            raise ProtocolError(
                400, "missing query parameter (GET /sparql?query=...)"
            )
    elif method == "POST":
        kind = media_type(content_type)
        if kind == SPARQL_QUERY_TYPE:
            query = body or ""
        elif kind == FORM_TYPE or kind == "":
            form_parameters = parse_qs(body or "", keep_blank_values=True)
            query = _single_parameter(form_parameters, "query")
            if query is None:
                raise ProtocolError(
                    400, "missing query parameter in form-encoded POST body"
                )
            if timeout_raw is None:
                timeout_raw = _single_parameter(form_parameters, "timeout")
        else:
            raise ProtocolError(
                415,
                f"unsupported POST Content-Type {content_type!r} (expected "
                f"{SPARQL_QUERY_TYPE} or {FORM_TYPE})",
            )
    else:
        raise ProtocolError(405, f"method {method} not allowed on {ENDPOINT_PATH}")

    if not query.strip():
        raise ProtocolError(400, "empty query text")
    return query, _parse_timeout(timeout_raw, max_timeout)


def parse_update_request(method, content_type=None, body=None):
    """Extract the update text from one SPARQL Protocol update request.

    The update operation has exactly two transport forms, both POST: a
    direct ``application/sparql-update`` body, and an
    ``application/x-www-form-urlencoded`` body with an ``update=``
    parameter.  Raises :class:`ProtocolError` for every malformed
    transport: non-POST method (405), unsupported Content-Type (415),
    missing/duplicate/empty ``update`` parameter (400).
    """
    if method != "POST":
        raise ProtocolError(405, f"method {method} not allowed on {UPDATE_PATH} "
                                 "(updates must be POSTed)")
    kind = media_type(content_type)
    if kind == SPARQL_UPDATE_TYPE:
        update = body or ""
    elif kind == FORM_TYPE or kind == "":
        form_parameters = parse_qs(body or "", keep_blank_values=True)
        update = _single_parameter(form_parameters, "update")
        if update is None:
            raise ProtocolError(
                400, "missing update parameter in form-encoded POST body"
            )
    else:
        raise ProtocolError(
            415,
            f"unsupported POST Content-Type {content_type!r} (expected "
            f"{SPARQL_UPDATE_TYPE} or {FORM_TYPE})",
        )
    if not update.strip():
        raise ProtocolError(400, "empty update text")
    return update
