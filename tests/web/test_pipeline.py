"""The instrumented request pipeline: middleware, envelopes, the API surface."""

import pytest

from repro.core.repository import Repository
from repro.corpus.seed import seed_ontologies
from repro.obs import MetricsRegistry, RequestLog
from repro.web import CarCsApi, Client
from repro.web.http import HttpError, Request, json_response
from repro.web.middleware import (
    ErrorMiddleware,
    MetricsMiddleware,
    RequestIdMiddleware,
    compose,
)


@pytest.fixture()
def api():
    repo = Repository()
    seed_ontologies(repo)
    return CarCsApi(repo)


@pytest.fixture()
def client(api):
    return Client(api, root="/api/v2")


class TestCompose:
    def test_middlewares_wrap_outermost_first(self):
        trace = []

        def make(tag):
            def middleware(request, call_next):
                trace.append(f"{tag}-in")
                response = call_next(request)
                trace.append(f"{tag}-out")
                return response
            return middleware

        handler = compose(
            [make("a"), make("b"), make("c")],
            lambda request: trace.append("endpoint") or json_response(None),
        )
        handler(Request.build("GET", "/x"))
        assert trace == [
            "a-in", "b-in", "c-in", "endpoint", "c-out", "b-out", "a-out",
        ]

    def test_api_chain_order(self, api):
        # The production chain must keep the id stamp outermost, the
        # snapshot pin outside the conditional-GET check, and the
        # version stamp between them (pinned version on reads, stamped
        # on 304s too).
        names = [type(m).__name__ for m in api.middlewares]
        assert names == [
            "RequestIdMiddleware",
            "TracingMiddleware",
            "MetricsMiddleware",
            "LoggingMiddleware",
            "ErrorMiddleware",
            "AdmissionMiddleware",
            "SnapshotMiddleware",
            "VersionHeaderMiddleware",
            "ConditionalGetMiddleware",
        ]

    def test_read_only_chain_gains_the_refusal_above_the_pin(self):
        from repro.core.repository import Repository
        from repro.web import CarCsApi

        api = CarCsApi(Repository(), read_only=True)
        names = [type(m).__name__ for m in api.middlewares]
        assert names.index("ReadOnlyMiddleware") < names.index(
            "SnapshotMiddleware"
        )


class TestRequestIds:
    def test_every_response_carries_an_id(self, client):
        first = client.get("/healthz")
        second = client.get("/healthz")
        assert first.headers["x-request-id"]
        assert first.headers["x-request-id"] != second.headers["x-request-id"]

    def test_inbound_id_is_propagated(self, client):
        r = client.get("/healthz", headers={"x-request-id": "proxy-41"})
        assert r.headers["x-request-id"] == "proxy-41"

    def test_error_envelope_carries_the_request_id(self, client):
        r = client.get("/materials/999999", headers={"x-request-id": "rid-7"})
        assert r.status == 404
        assert r.error == {
            "code": 404,
            "message": "no material with id 999999",
            "request_id": "rid-7",
        }

    def test_request_is_logged_with_its_id(self, api, client):
        r = client.get("/healthz", headers={"x-request-id": "logged-1"})
        assert r.ok
        (record,) = api.request_log.find("logged-1")
        assert record["status"] == 200
        assert record["route"] == "/api/v2/healthz"
        assert record["duration_ms"] >= 0


class TestErrorBoundary:
    def test_uncaught_exception_becomes_clean_500(self):
        registry = MetricsRegistry()
        log = RequestLog()

        def explode(request):
            raise RuntimeError("wires crossed")

        handler = compose(
            [RequestIdMiddleware(), MetricsMiddleware(registry),
             ErrorMiddleware(registry, log)],
            explode,
        )
        response = handler(Request.build("GET", "/x"))
        assert response.status == 500
        assert response.error["message"] == "internal server error"
        assert response.error["request_id"]
        # The internal detail is logged, not leaked to the client.
        assert "wires crossed" not in str(response.payload)
        assert log.tail(1)[0]["detail"] == "wires crossed"
        assert registry.counter(
            "http_exceptions_total", type="RuntimeError"
        ).value == 1

    def test_http_error_from_middleware_keeps_its_status(self):
        def reject(request):
            raise HttpError(403, "nope")

        handler = compose([ErrorMiddleware()], reject)
        assert handler(Request.build("GET", "/x")).status == 403

    def test_handler_exception_does_not_kill_subsequent_requests(self, api):
        # Register a broken route directly, then hit it over the full
        # pipeline: the 500 must not poison the app for the next request.
        api.router.add(
            "GET", "/api/v2/broken",
            lambda request: (_ for _ in ()).throw(ValueError("boom")),
        )
        client = Client(api, root="/api/v2")
        assert client.get("/broken").status == 500
        assert client.get("/healthz").status == 200


class TestMetricsCollection:
    def test_per_route_counters_and_histograms(self, api, client):
        for _ in range(3):
            assert client.get("/ontologies").ok
        label = "GET /api/v2/ontologies"
        counter = api.metrics.counter(
            "http_requests_total", route=label, status="2xx"
        )
        assert counter.value == 3
        hist = api.metrics.histogram("http_request_seconds", route=label)
        assert hist.count == 3
        assert hist.sum > 0

    def test_status_classes_are_separated(self, api, client):
        client.get("/materials/424242")  # 404
        label = "GET /api/v2/materials/<int:id>"
        assert api.metrics.counter(
            "http_requests_total", route=label, status="4xx"
        ).value == 1

    def test_unmatched_paths_share_one_label(self, api, client):
        client.get("/definitely/not/a/route")
        assert api.metrics.counter(
            "http_requests_total", route="GET <unmatched>", status="4xx"
        ).value == 1


class TestMetricsEndpoint:
    def test_exports_route_series_and_repo_counters(self, client):
        assert client.get("/stats").ok
        body = client.get("/metrics").json()
        counters = body["metrics"]["counters"]
        key = 'http_requests_total{route="GET /api/v2/stats",status="2xx"}'
        assert counters[key]["value"] == 1
        hists = body["metrics"]["histograms"]
        assert 'http_request_seconds{route="GET /api/v2/stats"}' in hists
        gauges = body["metrics"]["gauges"]
        # db/cache counters from Repository.stats() surface as gauges.
        assert "carcs_version" in gauges
        assert "carcs_cache_hits" in gauges
        assert gauges["carcs_materials"]["value"] == 0

    def test_metrics_never_304(self, client):
        first = client.get("/metrics")
        assert "etag" not in first.headers
        again = client.get("/metrics", headers={"if-none-match": "*"})
        assert again.status == 200

    def test_healthz(self, client):
        body = client.get("/healthz").json()
        assert body["status"] == "ok"
        assert body["uptime_seconds"] >= 0
        assert body["version"] >= 0


class TestVersionedSurface:
    def test_index_lists_the_route_table(self, client):
        body = client.get("/").json()
        assert body["api_version"] == "v2"
        paths = {(r["method"], r["path"]) for r in body["routes"]}
        assert ("GET", "/api/v2/coverage") in paths
        assert ("POST", "/api/v2/materials") in paths
        assert ("GET", "/api/v2/metrics") in paths
        assert all(p.startswith("/api/v2") for _, p in paths)

    def test_typed_params_reach_handlers_as_ints(self, client):
        # A non-numeric id never matches the <int:id> route at all.
        assert client.get("/materials/abc").status == 404
        r = client.get("/materials/1")
        assert r.status == 404  # empty repo, but the route *did* match
        assert "no material with id 1" in r.error["message"]
