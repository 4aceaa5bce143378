"""Versioned JSON-lines wire protocol for the analysis service.

One request or response per line, UTF-8 JSON objects.  Every message
carries the protocol version in ``"v"``; a server refuses versions it
does not speak with the ``version-mismatch`` error code instead of
guessing at field semantics.

Request::

    {"v": 1, "id": 7, "op": "check",
     "params": {"program": "...", "property": "simple-privilege"}}

Response::

    {"v": 1, "id": 7, "ok": true, "result": {...}}
    {"v": 1, "id": 7, "ok": false,
     "error": {"code": "parse-error", "message": "line 3: ..."}}

``id`` is an opaque client-chosen correlation value (echoed verbatim,
``null`` if absent) — responses to pipelined requests may arrive out of
order, and the id is how a client matches them up.

Operations
----------

``check``
    params: ``program`` (mini-C source), ``property`` (registry name),
    optional ``traces`` (bool), ``max_findings`` (int).

The analysis ops (``check``, ``patch``, ``dataflow``, ``flow``) accept a
reserved optional ``budget`` param — an object with any of ``steps``
(int) and ``seconds`` (float) — bounding the solve; exhaustion yields
the ``budget-exceeded`` error code.  They also accept a reserved
``deadline`` param — an *absolute* Unix timestamp (float seconds): work
that arrives already expired is refused with ``deadline-exceeded``
before admission, and otherwise the remaining time tightens the solve
budget end to end.  Servers additionally enforce their own per-request
deadline and admission limits (``timeout``, ``overloaded``,
``cancelled``, ``circuit-open``).
``patch``
    params: ``program`` (the *edited* mini-C source), ``property``
    (registry name), optional ``base`` (a version token: the program
    hash the client believes the server's hot session is at — from a
    prior response's ``version`` field), optional ``key`` (an opaque
    idempotency token: a *retry* of an already-applied patch — same
    key, same program — answers from the session instead of degrading
    to ``base-mismatch``; responses served this way set ``replayed``).
    The server keeps one patchable
    solved session per property machine; when the request can be served
    by differential re-solving it patches that session, otherwise it
    falls back to a cold solve.  The result always reflects ``program``:
    ``patched`` (bool) says which path ran, ``fallback`` carries a
    reason slug (``cold-start``, ``base-mismatch``, ``patch-failed``,
    or ``quarantined-<reason>`` for the first request after a journal
    quarantine)
    when ``patched`` is false, ``version`` is the new program hash to
    send as ``base`` next time, and ``patch`` holds the
    :class:`~repro.incremental.delta.PatchStats` counters on the patched
    path.  Parametric properties are refused with ``unsupported``; a
    program that does not parse, or has no ``main``, is ``parse-error``
    (and leaves the hot session intact).  A patch failure is *not* an error response — the
    server discards the session, solves cold, and answers with
    ``fallback: "patch-failed"``.
``dataflow``
    params: ``program``, ``track`` (list of primitive names).
``flow``
    params: ``program`` (flow-language source), optional ``query``
    (``[src, dst]``), ``pn`` (bool), ``assume`` (list of ``[src, dst]``
    speculative label flows — the incremental what-if path).
``stats``
    no params; returns engine metrics, cache occupancy, and aggregated
    solver counters.
``ping``
    no params; liveness probe.
``shutdown``
    no params; the server acknowledges and stops accepting requests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

PROTOCOL_VERSION = 1

#: Typed error codes — the wire-level contract, stable across releases.
E_VERSION = "version-mismatch"
E_MALFORMED = "malformed-request"
E_BAD_REQUEST = "bad-request"
E_PARSE = "parse-error"
E_UNSUPPORTED = "unsupported"
E_TIMEOUT = "timeout"
E_SHUTTING_DOWN = "shutting-down"
E_INTERNAL = "internal-error"
#: Resource-governance codes (PR 3).  ``overloaded`` — the admission
#: queue is full and the request was shed without queueing;
#: ``cancelled`` — the server revoked the request (deadline passed or
#: shutdown) and the worker observed the cancellation; ``budget-exceeded``
#: — the solve hit a per-request step/time/fact budget;
#: ``circuit-open`` — this exact request fingerprint has failed
#: repeatedly and is being refused until a cooldown elapses;
#: ``unavailable`` — client-side: retries were exhausted without ever
#: reaching a healthy server.
E_OVERLOADED = "overloaded"
E_CANCELLED = "cancelled"
E_BUDGET = "budget-exceeded"
E_CIRCUIT_OPEN = "circuit-open"
E_UNAVAILABLE = "unavailable"
#: Deadline propagation (PR 8).  Analysis ops accept a reserved
#: ``deadline`` param — an absolute Unix timestamp (float seconds).  A
#: request that arrives already expired is refused *before* admission
#: with this code; otherwise the remaining time tightens the solve
#: budget, so a solve never outlives its caller.  The deadline is
#: excluded from the circuit-breaker fingerprint (it varies per send).
E_DEADLINE = "deadline-exceeded"

ERROR_CODES = frozenset(
    {
        E_VERSION,
        E_MALFORMED,
        E_BAD_REQUEST,
        E_PARSE,
        E_UNSUPPORTED,
        E_TIMEOUT,
        E_SHUTTING_DOWN,
        E_INTERNAL,
        E_OVERLOADED,
        E_CANCELLED,
        E_BUDGET,
        E_CIRCUIT_OPEN,
        E_UNAVAILABLE,
        E_DEADLINE,
    }
)

OPS = frozenset(
    {"check", "patch", "dataflow", "flow", "stats", "ping", "shutdown"}
)

#: Per-op required ``params`` keys, validated at decode time so handler
#: code never sees a structurally invalid request.
_REQUIRED_PARAMS: dict[str, tuple[str, ...]] = {
    "check": ("program", "property"),
    "patch": ("program", "property"),
    "dataflow": ("program", "track"),
    "flow": ("program",),
    "stats": (),
    "ping": (),
    "shutdown": (),
}


class ProtocolError(Exception):
    """A request that cannot be dispatched, with its wire error code."""

    def __init__(self, code: str, message: str, request_id: Any = None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.request_id = request_id


@dataclass
class Request:
    op: str
    params: dict[str, Any] = field(default_factory=dict)
    id: Any = None
    version: int = PROTOCOL_VERSION


@dataclass
class Response:
    id: Any
    ok: bool
    result: dict[str, Any] | None = None
    error: dict[str, str] | None = None
    version: int = PROTOCOL_VERSION


def ok_response(request_id: Any, result: dict[str, Any]) -> Response:
    return Response(id=request_id, ok=True, result=result)


def error_response(request_id: Any, code: str, message: str) -> Response:
    assert code in ERROR_CODES, f"unknown error code {code!r}"
    return Response(
        id=request_id, ok=False, error={"code": code, "message": message}
    )


def encode_request(request: Request) -> str:
    """One JSON line (no trailing newline) for a request."""
    return json.dumps(
        {
            "v": request.version,
            "id": request.id,
            "op": request.op,
            "params": request.params,
        },
        separators=(",", ":"),
    )


def decode_request(line: str) -> Request:
    """Parse and validate one request line.

    Raises :class:`ProtocolError` with the precise error code: bad JSON
    or a non-object is ``malformed-request``; a wrong ``v`` is
    ``version-mismatch``; an unknown op or missing required params is
    ``bad-request``.  The request id is recovered whenever possible so
    the error response can still be correlated.
    """
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(E_MALFORMED, f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ProtocolError(
            E_MALFORMED, f"request must be a JSON object, got {type(data).__name__}"
        )
    request_id = data.get("id")
    version = data.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            E_VERSION,
            f"protocol version {version!r} not supported "
            f"(server speaks {PROTOCOL_VERSION})",
            request_id,
        )
    op = data.get("op")
    if not isinstance(op, str) or op not in OPS:
        raise ProtocolError(
            E_BAD_REQUEST, f"unknown op {op!r}", request_id
        )
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError(
            E_BAD_REQUEST, "params must be an object", request_id
        )
    missing = [key for key in _REQUIRED_PARAMS[op] if key not in params]
    if missing:
        raise ProtocolError(
            E_BAD_REQUEST,
            f"op {op!r} missing required param(s): {', '.join(missing)}",
            request_id,
        )
    return Request(op=op, params=params, id=request_id, version=version)


def encode_response(response: Response) -> str:
    """One JSON line (no trailing newline) for a response."""
    payload: dict[str, Any] = {
        "v": response.version,
        "id": response.id,
        "ok": response.ok,
    }
    if response.ok:
        payload["result"] = response.result
    else:
        payload["error"] = response.error
    return json.dumps(payload, separators=(",", ":"))


def decode_response(line: str) -> Response:
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(E_MALFORMED, f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ProtocolError(E_MALFORMED, "response must be a JSON object")
    version = data.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            E_VERSION, f"response protocol version {version!r} not supported"
        )
    ok = data.get("ok")
    if not isinstance(ok, bool):
        raise ProtocolError(E_MALFORMED, "response missing boolean 'ok'")
    if ok:
        result = data.get("result")
        if not isinstance(result, dict):
            raise ProtocolError(E_MALFORMED, "ok response missing 'result'")
        return Response(id=data.get("id"), ok=True, result=result)
    error = data.get("error")
    if (
        not isinstance(error, dict)
        or not isinstance(error.get("code"), str)
        or not isinstance(error.get("message"), str)
    ):
        raise ProtocolError(E_MALFORMED, "error response missing 'error'")
    return Response(id=data.get("id"), ok=False, error=error)
