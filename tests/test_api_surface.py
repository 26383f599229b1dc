"""One route table, four consumers: dispatch, OpenAPI, docs, versioning.

The serving surface is declared once in ``repro.serve.routes.ROUTES`` and
consumed by the single-process server, the pool router, the OpenAPI
document and API.md.  These tests pin the invariant that none of the four
can drift: every declared route answers on both server shapes, the spec
served over the wire equals the one rendered from the table, the
committed API.md contains every canonical path, legacy unversioned paths
carry deprecation headers, and error responses use stable codes.  Both
shapes answer through one handler frame, so they also share its wire
discipline: one write per response on a ``TCP_NODELAY`` socket, and every
answered request counted, refused bodies included.
"""

from __future__ import annotations

import http.client
import json
import socket
import socketserver
import time
from pathlib import Path

import pytest

from repro.serve.errors import (
    ERROR_CODES,
    classify_exception,
    default_code,
    error_envelope,
)
from repro.serve.routes import (
    API_PREFIX,
    ROUTES,
    deprecation_headers,
    openapi_spec,
    render_http_api_md,
    split_version,
)
from repro.exceptions import ServingError

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Placeholder values for path parameters when sweeping the live surface.
_PARAM_FILL = {"name": "missing-model", "id": "j-missing"}


def _request(port: int, method: str, path: str, body: bytes | None = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    data = response.read()
    result = (response.status, dict(response.getheaders()), data)
    conn.close()
    return result


def _raw_exchange(port: int, raw: bytes):
    """Send raw bytes, parse whatever HTTP response comes back."""
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        sock.sendall(raw)
        response = http.client.HTTPResponse(sock)
        response.begin()
        return (response.status, dict(response.getheaders()),
                response.read())


def _counter_value(port: int, name: str, **labels) -> float:
    """Sum of a counter's series matching ``labels``, scraped over HTTP."""
    _, _, data = _request(port, "GET", "/v1/metrics?format=json")
    return sum(series["value"]
               for series in json.loads(data).get(name, {}).get("series", [])
               if all(str(series["labels"].get(key)) == str(value)
                      for key, value in labels.items()))


def _fill(path: str) -> str:
    for param, value in _PARAM_FILL.items():
        path = path.replace("{%s}" % param, value)
    return path


@pytest.fixture()
def model_dir(tmp_path):
    path = tmp_path / "models"
    path.mkdir()
    return path


class TestRouteTable:
    def test_every_route_is_versioned(self):
        for route in ROUTES:
            assert route.path.startswith(API_PREFIX + "/"), route.path

    def test_openapi_spec_mirrors_route_table(self):
        spec = openapi_spec()
        operations = {(method.upper(), path)
                      for path, methods in spec["paths"].items()
                      for method in methods}
        assert operations == {(route.method, route.path)
                              for route in ROUTES}
        for route in ROUTES:
            operation = spec["paths"][route.path][route.method.lower()]
            assert operation["operationId"] == route.endpoint
            assert operation["summary"] == route.summary

    def test_committed_api_md_contains_every_route(self):
        api_md = (REPO_ROOT / "API.md").read_text(encoding="utf-8")
        assert render_http_api_md() in api_md
        for route in ROUTES:
            assert f"`{route.method} {route.path}`" in api_md, route.path

    def test_split_version(self):
        assert split_version("/v1/jobs") == ("/jobs", True)
        assert split_version("/jobs") == ("/jobs", False)
        assert split_version("/v1/jobs/") == ("/jobs", True)
        # Legacy synonym resolves to the canonical spelling.
        assert split_version("/health") == ("/healthz", False)
        assert split_version("/v1/health") == ("/healthz", True)

    def test_deprecation_headers_point_at_successor(self):
        headers = dict(deprecation_headers("/jobs"))
        assert headers["Deprecation"] == "true"
        assert headers["Link"] == '</v1/jobs>; rel="successor-version"'


class TestErrorCodes:
    def test_status_defaults_are_stable(self):
        assert default_code(400) == "bad_request"
        assert default_code(404) == "not_found"
        assert default_code(413) == "payload_too_large"
        assert default_code(429) == "over_capacity"
        assert default_code(500) == "internal"
        assert default_code(503) == "no_workers"

    def test_envelope_shape(self):
        body = error_envelope("not_found", "no job named j-x",
                              trace_id="t" * 16)
        assert body == {"error": {"code": "not_found",
                                  "message": "no job named j-x",
                                  "trace_id": "t" * 16}}
        assert set(ERROR_CODES) >= {"bad_request", "not_found",
                                    "over_capacity", "checkpoint_corrupt",
                                    "no_workers", "jobs_disabled",
                                    "internal"}

    def test_envelope_rejects_unregistered_codes(self):
        with pytest.raises(AssertionError):
            error_envelope("made_up_code", "boom")

    def test_classify_exception(self):
        from repro.serialize import SerializationError

        assert classify_exception(ServingError("bad input")) == \
            (400, "bad_request")
        assert classify_exception(ServingError("no model named x")) == \
            (404, "not_found")
        assert classify_exception(SerializationError("truncated")) == \
            (500, "checkpoint_corrupt")
        # Unrecognised exceptions classify as client errors: the models
        # raise plain ValueError for malformed matrices.
        assert classify_exception(ValueError("bad shape")) == \
            (400, "bad_request")


class _SurfaceChecks:
    """Shared live-surface assertions, run against a port."""

    @staticmethod
    def assert_all_routes_answer(port: int):
        for route in ROUTES:
            body = b"{}" if route.has_body else None
            status, _, data = _request(port, route.method,
                                       _fill(route.path), body)
            # Any answer is fine except the dispatcher's own "no such
            # route" — a declared route must exist on the wire.
            if status == 404:
                message = json.loads(data)["error"]["message"]
                assert "no such route" not in message, route.path
            assert status != 501, route.path  # unsupported method

    @staticmethod
    def assert_openapi_served(port: int):
        status, headers, data = _request(port, "GET", "/v1/openapi.json")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert json.loads(data) == openapi_spec()

    @staticmethod
    def assert_legacy_paths_deprecated(port: int):
        status, headers, _ = _request(port, "GET", "/healthz")
        assert status == 200
        assert headers["Deprecation"] == "true"
        assert headers["Link"] == '</v1/healthz>; rel="successor-version"'
        # The pre-/healthz spelling is doubly legacy; same stamp.
        status, headers, _ = _request(port, "GET", "/health")
        assert status == 200
        assert headers["Link"] == '</v1/healthz>; rel="successor-version"'
        # Canonical paths are not deprecated.
        status, headers, _ = _request(port, "GET", "/v1/healthz")
        assert status == 200
        assert "Deprecation" not in headers

    @staticmethod
    def assert_error_envelopes(port: int):
        # Unknown route: stable code, enveloped.  (No trace_id here — a
        # request trace is only opened once a route is matched.)
        status, _, data = _request(port, "GET", "/v1/no/such/route")
        body = json.loads(data)
        assert status == 404
        assert body["error"]["code"] == "not_found"
        assert "no such route" in body["error"]["message"]
        # Malformed JSON body.
        status, _, data = _request(port, "POST", "/v1/search", b"{nope")
        assert status == 400
        assert json.loads(data)["error"]["code"] == "bad_request"
        # Unknown model on a versioned inference route.
        status, _, data = _request(port, "POST",
                                   "/v1/models/ghost/predict",
                                   b'{"vectors": [[0.0]]}')
        assert status == 404
        assert json.loads(data)["error"]["code"] == "not_found"
        # Errors the stdlib detects before dispatch keep their status but
        # use the envelope too: an unsupported method...
        status, headers, data = _raw_exchange(
            port, b"PUT /v1/models HTTP/1.1\r\nHost: x\r\n"
                  b"Content-Length: 0\r\n\r\n")
        assert status == 501
        assert headers["Content-Type"] == "application/json"
        assert json.loads(data)["error"]["code"] == default_code(501)
        # ...and a request line that does not parse.
        status, headers, data = _raw_exchange(port, b"GARBAGE\r\n\r\n")
        assert status == 400
        assert headers["Content-Type"] == "application/json"
        assert json.loads(data)["error"]["code"] == default_code(400)

    @staticmethod
    def assert_one_write_per_response(port: int, monkeypatch):
        """Keep-alive answers leave in one write on a TCP_NODELAY socket.

        A header block and a body in two writes with Nagle on make every
        answer after the first wait for the client's delayed ACK.  The
        handler instance is reused across the connection's requests, so
        no header may leak from one answer into the next.
        """
        writes = []
        original = socketserver._SocketWriter.write

        def recording_write(writer, data):
            nodelay = writer._sock.getsockopt(socket.IPPROTO_TCP,
                                              socket.TCP_NODELAY)
            writes.append((writer._sock.fileno(), nodelay))
            return original(writer, data)

        monkeypatch.setattr(socketserver._SocketWriter, "write",
                            recording_write)
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        requests = [("GET", "/v1/healthz", None),
                    ("POST", "/v1/models/ghost/predict",
                     b'{"vectors": [[0.0]]}'),
                    ("GET", "/healthz", None),
                    ("GET", "/v1/openapi.json", None),
                    ("POST", "/v1/search", b"{nope")]
        for answered, (method, path, body) in enumerate(requests, 1):
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            response.read()
            assert not response.will_close, path
            assert len(writes) == answered, (path, writes)
            if method == "GET":
                assert response.getheader("X-Repro-Trace") is None, path
                assert (response.getheader("Deprecation") is not None) \
                    == (path == "/healthz"), path
        conn.close()
        # One accepted socket served them all, with Nagle off.
        assert len({fileno for fileno, _ in writes}) == 1
        assert all(nodelay for _, nodelay in writes)

    @staticmethod
    def assert_drain_rejections_counted(port: int, metric: str):
        """A body refused before it is read still counts as a request."""
        labels = {"endpoint": "search", "status": 413}
        before = _counter_value(port, metric, **labels)
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        conn.putrequest("POST", "/v1/search")
        conn.putheader("Content-Length", str(1 << 30))
        conn.endheaders()
        response = conn.getresponse()
        assert response.status == 413
        assert json.loads(response.read())["error"]["code"] == \
            "payload_too_large"
        conn.close()
        # The counter is bumped just after the answer is written.
        deadline = time.monotonic() + 5.0
        while (_counter_value(port, metric, **labels) < before + 1
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert _counter_value(port, metric, **labels) == before + 1


class TestSingleServerSurface(_SurfaceChecks):
    def test_surface(self, http_server, model_dir):
        _, port = http_server(model_dir)
        self.assert_all_routes_answer(port)
        self.assert_openapi_served(port)
        self.assert_legacy_paths_deprecated(port)
        self.assert_error_envelopes(port)

    def test_one_write_per_response(self, http_server, model_dir,
                                    monkeypatch):
        _, port = http_server(model_dir)
        self.assert_one_write_per_response(port, monkeypatch)

    def test_drain_rejections_counted(self, http_server, model_dir):
        _, port = http_server(model_dir)
        self.assert_drain_rejections_counted(port,
                                             "repro_http_requests_total")


class TestPoolRouterSurface(_SurfaceChecks):
    def test_surface(self, pool_server, model_dir):
        _, port = pool_server(model_dir, workers=2)
        self.assert_all_routes_answer(port)
        self.assert_openapi_served(port)
        self.assert_legacy_paths_deprecated(port)
        self.assert_error_envelopes(port)

    def test_one_write_per_response(self, pool_server, model_dir,
                                    monkeypatch):
        _, port = pool_server(model_dir, workers=2)
        self.assert_one_write_per_response(port, monkeypatch)

    def test_drain_rejections_counted(self, pool_server, model_dir):
        _, port = pool_server(model_dir, workers=2)
        self.assert_drain_rejections_counted(port,
                                             "repro_router_requests_total")
