"""The wire protocol: JSON bodies over minimal HTTP/1.1.

One module defines both directions so the server and the clients cannot
drift: request/response body schemas, the error-code ↔ exception mapping,
and the HTTP framing helpers (request/response rendering plus the
stream-reader parsers the asyncio server and client share).

Endpoints (full spec with examples: docs/serving.md):

====================  ======  =========================================
Path                  Method  Body → Response
====================  ======  =========================================
``/v1/lookup``        POST    ``{"keys": [...]}`` → ``{"values": [...]}``
``/v1/insert``        POST    ``{"keys": [...], "values": [...]}`` → ``{"inserted": n}``
``/v1/update``        POST    ``{"keys": [...], "values": [...]}`` → ``{"updated": n}``
``/v1/delete``        POST    ``{"keys": [...]}`` → ``{"deleted": n}``
``/healthz``          GET     → ``{"status": "ok", "keys": n, ...}``
``/stats``            GET     → the ``repro-metrics/1`` JSON snapshot
``/metrics``          GET     → Prometheus text exposition
====================  ======  =========================================

Keys are JSON integers or strings (the table canonicalises both; bytes
keys are not representable in JSON). Errors come back as
``{"error": CODE, "detail": "..."}`` with a matching HTTP status, and
the client raises them as the library's own exception types — a 409 is a
:class:`~repro.core.errors.DuplicateKey` on both sides of the wire.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, List, Optional, Tuple, Type, Union

from repro.core.errors import (
    DuplicateKey,
    KeyNotFound,
    ReconstructionFailed,
    ReproError,
    SpaceExhausted,
    UpdateFailure,
)
from repro.serve.batcher import BatcherClosed, Overloaded

__all__ = [
    "ProtocolError",
    "ServeError",
    "ServeProtocolError",
    "dump_json",
    "error_response",
    "exception_from",
    "json_body",
    "parse_keys",
    "parse_pairs",
    "read_http_request",
    "read_http_response",
    "render_http_request",
    "render_http_response",
]

#: HTTP status + wire code per exception type, and the inverse. Order
#: matters: subclasses must precede base classes.
_ERROR_TABLE: Tuple[Tuple[Type[BaseException], int, str], ...] = (
    (Overloaded, 429, "overloaded"),
    (BatcherClosed, 503, "shutting_down"),
    (DuplicateKey, 409, "duplicate_key"),
    (KeyNotFound, 404, "key_not_found"),
    (SpaceExhausted, 507, "space_exhausted"),
    (ReconstructionFailed, 507, "reconstruction_failed"),
    (UpdateFailure, 500, "update_failure"),
    (TypeError, 400, "bad_request"),
    (ValueError, 400, "bad_request"),
)

_CODE_TO_EXCEPTION: Dict[str, Type[BaseException]] = {
    code: exc_type for exc_type, _, code in _ERROR_TABLE
}

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not "
    "Allowed", 409: "Conflict", 413: "Payload Too Large", 429: "Too Many "
    "Requests", 500: "Internal Server Error", 501: "Not Implemented",
    503: "Service Unavailable", 507: "Insufficient Storage",
}

JsonKey = Union[int, str]


class ServeError(ReproError):
    """A server-reported error with no more specific library type."""

    def __init__(self, message: str, status: int = 500,
                 code: str = "internal"):
        super().__init__(message)
        self.status = status
        self.code = code


class ProtocolError(ServeError):
    """The peer sent something that is not valid protocol traffic."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message, status=status, code="bad_request")


class ServeProtocolError(ServeError):
    """The server spoke a dialect this client does not understand.

    Raised client-side for wire error codes with no local exception type
    and for responses missing a required field — both mean server and
    client versions have drifted, which deserves a distinct type rather
    than a silent ``KeyError`` or a catch-all :class:`ServeError`.
    """

    def __init__(self, message: str, status: int = 502,
                 code: str = "protocol") -> None:
        super().__init__(message, status=status, code=code)


# ---------------------------------------------------------------------------
# Body schemas
# ---------------------------------------------------------------------------


#: The JSON types a key may decode to (``bool`` is not ``int`` here).
_KEY_TYPES = frozenset((int, str))


def parse_keys(body: Dict[str, Any]) -> List[JsonKey]:
    """Validate and extract ``{"keys": [...]}`` (lookup/delete bodies)."""
    keys = body.get("keys")
    if not isinstance(keys, list) or not keys:
        raise ProtocolError('body must carry a non-empty "keys" array')
    # One pass over the key types; the list is walked again only to name
    # the first offender.
    if not set(map(type, keys)) <= _KEY_TYPES:
        bad = next(key for key in keys if type(key) not in _KEY_TYPES)
        raise ProtocolError(
            f"keys must be integers or strings, got {type(bad).__name__}"
        )
    return keys


def parse_pairs(
    body: Dict[str, Any]
) -> Tuple[List[JsonKey], List[int]]:
    """Validate ``{"keys": [...], "values": [...]}`` (insert/update)."""
    keys = parse_keys(body)
    values = body.get("values")
    if not isinstance(values, list) or len(values) != len(keys):
        raise ProtocolError('"values" must be an array aligned with "keys"')
    if not set(map(type, values)) <= {int}:
        bad = next(value for value in values if type(value) is not int)
        raise ProtocolError(
            f"values must be integers, got {type(bad).__name__}"
        )
    return keys, values


def error_response(exc: BaseException) -> Tuple[int, Dict[str, Any]]:
    """Map an exception to ``(status, error_body)`` for the wire."""
    if isinstance(exc, ServeError):
        return exc.status, {"error": exc.code, "detail": str(exc)}
    for exc_type, status, code in _ERROR_TABLE:
        if isinstance(exc, exc_type):
            return status, {"error": code, "detail": str(exc)}
    return 500, {"error": "internal", "detail": str(exc)}


def exception_from(status: int, body: Dict[str, Any]) -> BaseException:
    """The client-side inverse: rebuild the library exception type.

    A recognised wire code becomes the matching library exception; the
    server's own catch-all (``"internal"``) stays a plain
    :class:`ServeError`; any *other* code means the server is newer (or
    older) than this client and surfaces as
    :class:`ServeProtocolError` so callers can tell version drift from
    an ordinary server-side failure.
    """
    code = body.get("error", "internal")
    detail = body.get("detail", f"HTTP {status}")
    exc_type = _CODE_TO_EXCEPTION.get(code)
    if exc_type is not None:
        return exc_type(detail)
    if code == "internal":
        return ServeError(detail, status=status, code="internal")
    return ServeProtocolError(
        f"unknown wire error code {code!r}: {detail}", status=status
    )


# ---------------------------------------------------------------------------
# HTTP framing
# ---------------------------------------------------------------------------

_MAX_HEADER_BYTES = 32 * 1024


def render_http_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    keep_alive: bool = True,
) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {connection}\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


def render_http_request(
    method: str,
    path: str,
    body: Optional[bytes] = None,
    host: str = "localhost",
) -> bytes:
    payload = body if body is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "\r\n"
    )
    return head.encode("ascii") + payload


async def _read_head(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[List[str], Dict[str, str]]]:
    """Read one header block; ``None`` on clean EOF before any bytes."""
    try:
        raw = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-header") from exc
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError("header block too large", status=413) from exc
    if len(raw) > _MAX_HEADER_BYTES:
        raise ProtocolError("header block too large", status=413)
    lines = raw.decode("latin-1").split("\r\n")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return lines[0].split(" "), headers


def _content_length(headers: Dict[str, str], limit: int) -> int:
    raw = headers.get("content-length", "0")
    try:
        length = int(raw)
    except ValueError as exc:
        raise ProtocolError(f"bad Content-Length {raw!r}") from exc
    if length < 0:
        raise ProtocolError(f"bad Content-Length {raw!r}")
    if length > limit:
        raise ProtocolError(
            f"body of {length} bytes exceeds the {limit}-byte limit",
            status=413,
        )
    return length


async def read_http_request(
    reader: asyncio.StreamReader,
    max_body_bytes: int,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """One request as ``(method, path, headers, body)``; ``None`` on EOF."""
    head = await _read_head(reader)
    if head is None:
        return None
    parts, headers = head
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(f"malformed request line {' '.join(parts)!r}")
    method, path, _version = parts
    if "transfer-encoding" in headers:
        # Framing here is Content-Length only. Silently ignoring the
        # header would parse the chunk bytes as the next pipelined
        # request (request-smuggling-shaped desync), so refuse — the
        # server answers 501 and hangs up (ProtocolError closes the
        # connection).
        raise ProtocolError(
            "Transfer-Encoding is not supported; send Content-Length",
            status=501,
        )
    length = _content_length(headers, max_body_bytes)
    body = await reader.readexactly(length) if length else b""
    return method.upper(), path, headers, body


async def read_http_response(
    reader: asyncio.StreamReader,
    max_body_bytes: int = 64 * 1024 * 1024,
) -> Tuple[int, Dict[str, str], bytes]:
    """One response as ``(status, headers, body)``."""
    head = await _read_head(reader)
    if head is None:
        raise ProtocolError("connection closed before response")
    parts, headers = head
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise ProtocolError(f"malformed status line {' '.join(parts)!r}")
    try:
        status = int(parts[1])
    except ValueError as exc:
        raise ProtocolError(f"bad status {parts[1]!r}") from exc
    length = _content_length(headers, max_body_bytes)
    body = await reader.readexactly(length) if length else b""
    return status, headers, body


def json_body(raw: bytes) -> Dict[str, Any]:
    """Decode a JSON object body (the only body shape the protocol uses)."""
    if not raw:
        raise ProtocolError("empty body where JSON was expected")
    try:
        decoded = json.loads(raw)
    except ValueError as exc:
        raise ProtocolError(f"body is not valid JSON: {exc}") from exc
    if not isinstance(decoded, dict):
        raise ProtocolError("JSON body must be an object")
    return decoded


def dump_json(payload: Dict[str, Any]) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")
