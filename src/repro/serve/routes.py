"""The canonical route table behind the versioned ``/v1`` HTTP surface.

One table drives four things that must never drift apart:

* **Dispatch** — the single-process server and the pool router resolve
  incoming paths against these patterns (``compile_route``), so a route
  exists on the wire iff it exists here;
* **Versioning** — every canonical path carries the ``/v1`` prefix;
  legacy unprefixed paths keep answering but are stamped with
  ``Deprecation: true`` and a ``Link: </v1/...>; rel="successor-version"``
  header (:func:`deprecation_headers`);
* **The machine-readable spec** — ``GET /v1/openapi.json`` renders this
  table as an OpenAPI 3 document (:func:`openapi_spec`);
* **The docs** — API.md's "HTTP API" section is rendered from the same
  rows (:func:`render_http_api_md` via
  :mod:`repro.experiments.api_docs`), and ``tests`` assert the spec, the
  routers and the committed docs all agree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = [
    "API_PREFIX",
    "API_VERSION",
    "ROUTES",
    "Route",
    "compile_route",
    "deprecation_headers",
    "openapi_spec",
    "render_http_api_md",
    "split_version",
]

API_VERSION = "v1"
API_PREFIX = f"/{API_VERSION}"

#: Legacy spellings that map to a *different* canonical path than just
#: prefixing ``/v1`` (everything else aliases 1:1).
_LEGACY_SYNONYMS = {"/health": "/healthz"}

#: Path-parameter pattern reused by every ``{param}`` segment.
_PARAM_PATTERN = r"[A-Za-z0-9._-]+"


@dataclass(frozen=True)
class Route:
    """One row of the API surface.

    ``endpoint`` doubles as the metrics label (``repro_http_requests_total``
    etc.), so a route's traffic is attributable under the same name in the
    spec, the docs and the dashboards.
    """

    method: str
    path: str       # canonical, "/v1/..."-prefixed, "{param}" placeholders
    endpoint: str
    summary: str
    query: tuple[tuple[str, str], ...] = field(default_factory=tuple)
    has_body: bool = False

    @property
    def legacy_path(self) -> str:
        """The deprecated unversioned alias of this route."""
        return self.path[len(API_PREFIX):]

    def params(self) -> tuple[str, ...]:
        """Names of the ``{...}`` path parameters, in order."""
        return tuple(re.findall(r"\{([a-z_]+)\}", self.path))


ROUTES: tuple[Route, ...] = (
    Route("GET", "/v1/healthz", "healthz",
          "Liveness: status, model count, resident models."),
    Route("GET", "/v1/models", "models",
          "One summary per checkpoint in the model directory."),
    Route("POST", "/v1/models/{name}/predict", "predict",
          "Cluster raw items or pre-embedded vectors with a named model.",
          has_body=True),
    Route("POST", "/v1/models/{name}/neighbors", "neighbors",
          "Top-k similarity search against a named vector index; the "
          "body may carry per-request nprobe/rerank tunables.",
          has_body=True),
    Route("POST", "/v1/search", "search",
          "Similarity search with the index named in the body (or the "
          "only served index); accepts the same per-request tunables as "
          "neighbors.", has_body=True),
    Route("POST", "/v1/jobs", "jobs_submit",
          "Submit an experiment as an async job; identical submissions "
          "dedup to the same job id.", has_body=True),
    Route("GET", "/v1/jobs", "jobs_list",
          "List every known job with status and progress."),
    Route("GET", "/v1/jobs/{id}", "jobs_get",
          "Status, progress and metadata of one job."),
    Route("DELETE", "/v1/jobs/{id}", "jobs_cancel",
          "Cooperatively cancel a queued or running job."),
    Route("GET", "/v1/jobs/{id}/result", "jobs_result",
          "Result of a completed job, serialised by a pluggable exporter.",
          query=(("format", "json (default), csv, jsonl or npz"),)),
    Route("GET", "/v1/stats", "stats",
          "Micro-batching / routing counters.",
          query=(("verbose", "attach slowest-request span breakdowns"),)),
    Route("GET", "/v1/metrics", "metrics",
          "Prometheus text exposition of the metrics registry.",
          query=(("format", "json for the raw registry snapshot"),)),
    Route("GET", "/v1/openapi.json", "openapi",
          "This API as an OpenAPI 3 document, rendered from the route "
          "table."),
)


def compile_route(route: Route) -> re.Pattern:
    """Compile a route's *unversioned* path into a matching regex.

    The handlers normalise incoming paths with :func:`split_version`
    first, so patterns are matched without the ``/v1`` prefix; a trailing
    slash is tolerated, mirroring the historical behaviour.
    """
    pattern = re.escape(route.legacy_path)
    for param in route.params():
        pattern = pattern.replace(re.escape("{%s}" % param),
                                  f"(?P<{param}>{_PARAM_PATTERN})")
    return re.compile(f"^{pattern}/?$")


def split_version(raw_path: str) -> tuple[str, bool]:
    """Normalise a request path to ``(unversioned_path, versioned)``.

    Strips the ``/v1`` prefix when present, collapses a trailing slash and
    resolves legacy synonyms (``/health`` -> ``/healthz``), so dispatch
    works on exactly one spelling per route.
    """
    path = raw_path.rstrip("/") or "/"
    versioned = False
    if path == API_PREFIX or path.startswith(API_PREFIX + "/"):
        versioned = True
        path = path[len(API_PREFIX):] or "/"
    path = _LEGACY_SYNONYMS.get(path, path)
    return path, versioned


def deprecation_headers(unversioned_path: str) -> list[tuple[str, str]]:
    """Headers stamped on every response to a legacy (unprefixed) path."""
    return [
        ("Deprecation", "true"),
        ("Link", f"<{API_PREFIX}{unversioned_path}>; "
                 f'rel="successor-version"'),
    ]


# ----------------------------------------------------------------------
# OpenAPI rendering
def openapi_spec() -> dict:
    """The route table as an OpenAPI 3 document (deterministic)."""
    paths: dict[str, dict] = {}
    for route in ROUTES:
        operation: dict = {
            "operationId": route.endpoint,
            "summary": route.summary,
            "responses": {
                "default": {
                    "description": "JSON body; errors use the envelope "
                                   '{"error": {"code", "message", '
                                   '"trace_id"}}',
                },
            },
        }
        parameters = [
            {"name": param, "in": "path", "required": True,
             "schema": {"type": "string"}}
            for param in route.params()
        ] + [
            {"name": name, "in": "query", "required": False,
             "description": description, "schema": {"type": "string"}}
            for name, description in route.query
        ]
        if parameters:
            operation["parameters"] = parameters
        if route.has_body:
            operation["requestBody"] = {
                "required": True,
                "content": {"application/json": {
                    "schema": {"type": "object"}}},
            }
        paths.setdefault(route.path, {})[route.method.lower()] = operation
    return {
        "openapi": "3.0.3",
        "info": {
            "title": "repro serving API",
            "version": API_VERSION,
            "description": "Online predict/search plus the async jobs "
                           "tier, served by `repro serve` (single server "
                           "or `--workers N` pool). Unversioned legacy "
                           "paths answer with Deprecation headers "
                           "pointing at their /v1 successor.",
        },
        "paths": paths,
    }


def render_http_api_md() -> str:
    """The "HTTP API" section of API.md, rendered from the route table."""
    lines = [
        "## HTTP API (v1)",
        "",
        "Routes served by `repro serve` — identically by the single "
        "server and the `--workers N` pool router.  Legacy unversioned "
        "paths still answer, with `Deprecation: true` and a `Link: "
        '</v1/...>; rel="successor-version"` header; errors always use '
        'the envelope `{"error": {"code", "message", "trace_id"}}`.',
        "",
    ]
    for route in ROUTES:
        lines.append(f"- **`{route.method} {route.path}`** — "
                     f"{route.summary}")
        if route.query:
            knobs = "; ".join(f"`?{name}=` {description}"
                              for name, description in route.query)
            lines.append(f"  ({knobs})")
    lines.append("")
    return "\n".join(lines)
