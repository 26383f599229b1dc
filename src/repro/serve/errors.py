"""Uniform error envelope for every HTTP surface (server, router, jobs).

Every error response body has one shape, whatever handler produced it::

    {"error": {"code": "<stable-slug>", "message": "...",
               "trace_id": "..."}}

``code`` is a stable machine-readable slug drawn from :data:`ERROR_CODES`
— clients and tests branch on it, never on message substrings, so error
wording can improve without breaking anyone.  ``message`` is the human
diagnostic; ``trace_id`` (when a request trace is open) correlates the
failure with the span breakdowns under ``/stats?verbose=1``.

:func:`classify_exception` maps the library's exception hierarchy to
``(status, code)`` pairs in one place, shared by the single-process
handler and the pool router; :func:`default_code` backs helpers that only
know an HTTP status (body-size limits, admission control).
"""

from __future__ import annotations

from ..exceptions import (
    EmbeddingError,
    ExperimentError,
    ExportError,
    JobError,
    RetiredCheckpointError,
    SerializationError,
    ServingError,
    VectorIndexError,
)

__all__ = ["ERROR_CODES", "classify_exception", "default_code",
           "error_envelope"]

#: Every stable error code the API can answer with.  Adding a code here is
#: an API change; renaming one is a breaking change.
ERROR_CODES = frozenset({
    "bad_request",        # malformed body, bad parameters, unservable input
    "not_found",          # unknown route, model, index or job
    "payload_too_large",  # request body over the size limit
    "over_capacity",      # admission control shed the request (429)
    "checkpoint_corrupt",  # a checkpoint could not be read or written
    "no_workers",         # pool routing found no live worker (503)
    "jobs_disabled",      # jobs API not enabled on this server
    "internal",           # unexpected server-side failure
})

#: Fallback code per status for call sites that raise no typed exception.
_STATUS_CODES = {
    400: "bad_request",
    404: "not_found",
    409: "bad_request",
    413: "payload_too_large",
    429: "over_capacity",
    500: "internal",
    503: "no_workers",
}


def error_envelope(code: str, message: str,
                   trace_id: str | None = None) -> dict:
    """Build the uniform error body; ``code`` must be a registered slug."""
    assert code in ERROR_CODES, f"unregistered error code {code!r}"
    error: dict = {"code": code, "message": message}
    if trace_id:
        error["trace_id"] = trace_id
    return {"error": error}


def default_code(status: int) -> str:
    """The conventional code for a bare HTTP status."""
    return _STATUS_CODES.get(status, "internal" if status >= 500
                             else "bad_request")


def classify_exception(exc: Exception) -> tuple[int, str]:
    """Map a library exception to its ``(status, code)`` pair.

    The mapping is intentionally coarse: everything a client could have
    prevented is 400 ``bad_request``, resolution failures are 404
    ``not_found``, storage damage is 500 ``checkpoint_corrupt`` (an
    intact checkpoint of a retired class is 400: rebuilding it is the
    caller's fix), a failure of the interpreter (``SystemError``,
    ``MemoryError``) is 500 ``internal``, and anything unrecognised is a
    400 shape/validation error (models raise plain ``ValueError`` for
    malformed matrices).
    """
    if isinstance(exc, (SystemError, MemoryError)):
        return (500, "internal")
    if isinstance(exc, ServingError):
        return ((404, "not_found") if "no model named" in str(exc)
                else (400, "bad_request"))
    if isinstance(exc, JobError):
        return ((404, "not_found") if "no job" in str(exc)
                else (400, "bad_request"))
    if isinstance(exc, RetiredCheckpointError):
        return (400, "bad_request")
    if isinstance(exc, SerializationError):
        return (500, "checkpoint_corrupt")
    if isinstance(exc, (EmbeddingError, VectorIndexError, ExperimentError,
                        ExportError)):
        return (400, "bad_request")
    return (400, "bad_request")
