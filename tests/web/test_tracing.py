"""End-to-end request tracing through the middleware chain.

The acceptance bar of the tracing layer: every traced API request
produces a retrievable span tree crossing at least three layers (web
root span → core ``repo.``/``cache.``/``search.`` spans → ``db.``
spans), trace ids stay disjoint under a live threaded server, and the
``/api/v2/traces`` surface pages over retained traces without ever
revalidating to a 304.
"""

import json
import threading
import urllib.request

import pytest

from repro.corpus.seed import seed_all
from repro.obs import MODE_ALL, MODE_OFF, MODE_SAMPLED, TraceStore, Tracer
from repro.web import CarCsApi, Client
from repro.web.server import ApiServer

SEARCH = "/search?q=monte+carlo&limit=5"
COVERAGE = "/coverage?collection=itcs3145&ontology=PDC12"


def make_tracer(**kwargs):
    kwargs.setdefault("mode", MODE_ALL)
    kwargs.setdefault("sample_every", 1)
    kwargs.setdefault("slow_ms", 1e9)
    return Tracer(TraceStore(capacity=64), **kwargs)


@pytest.fixture(scope="module")
def repo():
    return seed_all()


@pytest.fixture()
def tracer():
    return make_tracer()


@pytest.fixture()
def api(repo, tracer):
    return CarCsApi(repo, tracer=tracer)


@pytest.fixture()
def client(api):
    return Client(api, root="/api/v2")


def span_names(tree: dict) -> set[str]:
    names = {tree["name"]}
    for child in tree["children"]:
        names |= span_names(child)
    return names


def check_parentage(tree: dict, trace_id: str) -> int:
    """Every span carries the trace id; children point at their parent.
    Returns the number of spans verified."""
    assert tree["trace_id"] == trace_id
    count = 1
    for child in tree["children"]:
        assert child["parent_id"] == tree["span_id"]
        count += check_parentage(child, trace_id)
    return count


class TestRootSpan:
    def test_trace_id_reuses_request_id_and_is_stamped(self, client):
        response = client.get("/healthz")
        assert response.headers["x-trace-id"] == \
            response.headers["x-request-id"]

    def test_inbound_request_id_becomes_the_trace_id(self, client, tracer):
        response = client.get(
            "/stats", headers={"x-request-id": "deadbeefdeadbeefdeadbeef"}
        )
        assert response.headers["x-trace-id"] == "deadbeefdeadbeefdeadbeef"
        assert tracer.store.get("deadbeefdeadbeefdeadbeef") is not None

    def test_root_span_is_named_after_the_matched_route(self, client, tracer):
        response = client.get(COVERAGE)
        record = tracer.store.get(response.headers["x-trace-id"])
        assert record.root.name == "GET /api/v2/coverage"
        assert record.root.attributes["status"] == 200

    def test_mode_off_is_a_pass_through(self, repo):
        api = CarCsApi(repo, tracer=make_tracer(mode=MODE_OFF))
        client = Client(api, root="/api/v2")
        response = client.get("/stats")
        assert response.ok
        assert "x-trace-id" not in response.headers
        assert len(api.tracer.store) == 0


class TestThreeLayerTraces:
    def test_search_trace_crosses_web_core_and_db(self, client, tracer):
        response = client.get(SEARCH)
        assert response.ok
        trace = client.get(
            f"/traces/{response.headers['x-trace-id']}"
        ).json()
        names = span_names(trace["root"])
        assert trace["root"]["name"] == "GET /api/v2/search"        # web
        assert any(n.startswith("search.") for n in names)          # core
        assert any(n.startswith("db.") for n in names)              # db
        check_parentage(trace["root"], trace["trace_id"])

    def test_coverage_trace_crosses_web_core_and_db(self, client, tracer):
        response = client.get(COVERAGE)
        trace = client.get(
            f"/traces/{response.headers['x-trace-id']}"
        ).json()
        names = span_names(trace["root"])
        assert any(n.startswith("repo.") or n.startswith("cache.")
                   for n in names)
        assert "db.snapshot.pin" in names
        assert trace["spans"] == check_parentage(
            trace["root"], trace["trace_id"]
        )

    def test_every_api_request_is_traced_in_sampled_default(self, repo):
        # CARCS_TRACE_SAMPLE defaults to 1: sampled mode retains every
        # trace until the stride is raised explicitly.
        api = CarCsApi(repo, tracer=make_tracer(mode=MODE_SAMPLED))
        client = Client(api, root="/api/v2")
        for path in ("/healthz", "/stats", SEARCH, COVERAGE):
            response = client.get(path)
            trace_id = response.headers["x-trace-id"]
            assert client.get(f"/traces/{trace_id}").ok, path

    def test_mutation_requests_carry_db_write_spans(self, client, tracer):
        created = client.post("/materials", body={
            "title": "traced scratch", "collection": "traced-scratch",
        })
        assert created.status == 201
        trace = client.get(
            f"/traces/{created.headers['x-trace-id']}"
        ).json()
        names = span_names(trace["root"])
        assert "db.transaction" in names or "db.insert" in names
        deleted = client.delete(
            f"/materials/{created.json()['id']}"
        )
        assert deleted.ok


class TestTracesEndpoint:
    def test_pagination_envelope_and_newest_first(self, client, tracer):
        for _ in range(3):
            client.get("/healthz")
        page = client.get("/traces?limit=2").json()
        assert page["limit"] == 2 and len(page["items"]) == 2
        assert page["total"] >= 3
        assert page["tracer"]["retained"] >= 3
        newest, second = page["items"][:2]
        assert newest["started_ts"] >= second["started_ts"]

    def test_status_filter(self, api, client):
        @api.router.route("GET", "/api/v2/boom")
        def boom(request):
            raise RuntimeError("kaboom")

        assert client.get("/boom").status == 500
        errored = client.get("/traces?status=error").json()
        assert errored["total"] >= 1
        assert all(s["status"] == "error" for s in errored["items"])

    def test_unknown_trace_is_a_clean_404(self, client):
        response = client.get("/traces/nope")
        assert response.status == 404
        assert response.error["code"] == 404

    def test_traces_never_304(self, client):
        first = client.get("/traces")
        assert "etag" not in first.headers
        revalidated = client.get(
            "/traces", headers={"if-none-match": '"carcs-v0"'}
        )
        assert revalidated.status == 200
        listed = client.get("/traces").json()
        trace_id = listed["items"][0]["trace_id"]
        detail = client.get(
            f"/traces/{trace_id}", headers={"if-none-match": "*"}
        )
        assert detail.status == 200  # nested path inherits the exemption

    def test_error_traces_survive_an_aggressive_sampler(self, repo):
        api = CarCsApi(
            repo, tracer=make_tracer(mode=MODE_SAMPLED, sample_every=10**6)
        )
        client = Client(api, root="/api/v2")

        @api.router.route("GET", "/api/v2/boom")
        def boom(request):
            raise RuntimeError("kaboom")

        client.get("/healthz")       # first request: head-sampled
        client.get("/stats")         # sampled out
        failed = client.get("/boom")
        assert failed.status == 500
        record = api.tracer.store.get(failed.headers["x-trace-id"])
        assert record is not None
        assert record.retained_by == "error"
        assert record.root.status == "error"


class TestMetricsIntegration:
    def test_span_histograms_and_exemplars_in_metrics_json(
        self, client, tracer
    ):
        traced = client.get(SEARCH)
        body = client.get("/metrics").json()
        hists = body["metrics"]["histograms"]
        assert any(
            key.startswith("carcs_span_seconds") for key in hists
        )
        exemplars = body["exemplars"]
        assert tracer.store.get(exemplars["search.query"]) is not None
        gauges = body["metrics"]["gauges"]
        assert gauges["carcs_traces_retained"]["value"] >= 1
        assert traced.headers["x-trace-id"] in set(exemplars.values())

    def test_prometheus_exposition(self, client):
        client.get("/stats")
        response = client.get("/metrics?format=prometheus")
        assert response.ok
        assert response.headers["content-type"].startswith("text/plain")
        text = response.payload
        assert isinstance(text, str)
        assert "# TYPE http_requests_total counter" in text
        assert 'route="GET /api/v2/stats"' in text
        assert "http_request_seconds_bucket" in text
        assert 'le="+Inf"' in text
        assert "http_request_seconds_count" in text


class TestConcurrentTracing:
    def test_parallel_requests_get_disjoint_well_formed_traces(self, repo):
        api = CarCsApi(repo, tracer=make_tracer())
        workers = 6
        trace_ids: list[str] = []
        failures: list[object] = []
        sink = threading.Lock()

        with ApiServer(api, port=0, threaded=True) as srv:
            def hammer(worker: int):
                path = SEARCH if worker % 2 else COVERAGE
                try:
                    for _ in range(4):
                        with urllib.request.urlopen(
                            f"{srv.url}/api/v2{path}", timeout=30
                        ) as response:
                            assert response.status == 200
                            with sink:
                                trace_ids.append(
                                    response.headers["x-trace-id"]
                                )
                except Exception as exc:  # pragma: no cover - failure path
                    failures.append(exc)

            threads = [
                threading.Thread(target=hammer, args=(w,))
                for w in range(workers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not any(t.is_alive() for t in threads), "worker hung"
            assert failures == []

            # Disjoint ids: no request ever wrote into another's trace.
            assert len(set(trace_ids)) == len(trace_ids) == workers * 4

            # Every trace is retrievable and internally consistent.
            for trace_id in trace_ids:
                with urllib.request.urlopen(
                    f"{srv.url}/api/v2/traces/{trace_id}", timeout=30
                ) as response:
                    trace = json.loads(response.read())
                assert trace["spans"] == check_parentage(
                    trace["root"], trace_id
                )
                names = span_names(trace["root"])
                assert "db.snapshot.pin" in names
                assert any(
                    n.split(".", 1)[0] in ("search", "repo", "cache")
                    for n in names
                )
