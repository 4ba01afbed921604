"""Fleet-wide tracing through the front tier — in-process.

The propagation chain under test: the router opens a ``front`` root
span, stamps ``traceparent`` on every proxied hop, the member's tracing
middleware continues that trace with a ``remote_parent`` link, and
``GET /api/v2/traces/<id>`` on the router stitches every member's
segments (including job segments) into one labelled tree.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.repository import Repository
from repro.corpus.seed import seed_ontologies
from repro.jobs import run_pending
from repro.obs import (
    MODE_ALL,
    MODE_OFF,
    REMOTE_PARENT_ATTR,
    TraceStore,
    Tracer,
)
from repro.web import CarCsApi, Client, FrontTier, LocalBackend
from repro.web.front import BACKEND_HEADER, SERVED_BY_HEADER


def make_tracer(**kwargs):
    kwargs.setdefault("mode", MODE_ALL)
    kwargs.setdefault("sample_every", 1)
    kwargs.setdefault("slow_ms", 1e9)
    return Tracer(TraceStore(capacity=64), **kwargs)


class RecordingBackend(LocalBackend):
    """A LocalBackend that keeps the headers of every proxied request."""

    def __init__(self, name, app):
        super().__init__(name, app)
        self.seen_headers = []

    def request(self, request):
        self.seen_headers.append(dict(request.headers))
        return super().request(request)


@pytest.fixture()
def traced_fleet():
    """A primary behind a FrontTier, every tier with its own tracer."""
    repo = Repository()
    seed_ontologies(repo)
    primary_tracer = make_tracer()
    primary_api = CarCsApi(repo, tracer=primary_tracer)
    backend = RecordingBackend("primary", primary_api)
    router_tracer = make_tracer()
    front = FrontTier(backend, [], tracer=router_tracer, name="router")
    return SimpleNamespace(
        repo=repo,
        front=front,
        backend=backend,
        primary_api=primary_api,
        primary_tracer=primary_tracer,
        router_tracer=router_tracer,
        client=Client(front, root="/api/v2"),
    )


class TestContextPropagation:
    def test_proxied_hop_carries_the_routers_traceparent(self, traced_fleet):
        response = traced_fleet.client.get("/stats")
        assert response.ok
        headers = traced_fleet.backend.seen_headers[-1]
        assert "traceparent" in headers
        trace_id = response.headers["x-trace-id"]
        assert headers["traceparent"].split("-")[1] == trace_id

    def test_router_and_member_share_one_trace_id(self, traced_fleet):
        response = traced_fleet.client.get("/stats")
        trace_id = response.headers["x-trace-id"]
        router_record = traced_fleet.router_tracer.store.get(trace_id)
        member_record = traced_fleet.primary_tracer.store.get(trace_id)
        assert router_record is not None
        assert member_record is not None
        assert router_record.root.name == "front GET"
        assert member_record.root.name == "GET /api/v2/stats"
        # The member root names the router's hop span as its remote
        # parent — the edge the stitcher walks.
        hop = next(
            s for s in router_record.root.walk() if s.name == "front.read"
        )
        assert member_record.root.attributes[REMOTE_PARENT_ATTR] \
            == hop.span_id

    def test_inbound_traceparent_is_continued_not_replaced(
        self, traced_fleet
    ):
        inbound = "00-feedfacefeedfacefeedface-cafe0001-01"
        response = traced_fleet.client.get(
            "/stats", headers={"traceparent": inbound},
        )
        assert response.headers["x-trace-id"] == "feedfacefeedfacefeedface"
        record = traced_fleet.router_tracer.store.get(
            "feedfacefeedfacefeedface"
        )
        assert record.root.attributes[REMOTE_PARENT_ATTR] == "cafe0001"

    def test_tracer_off_router_proxies_without_headers(self):
        repo = Repository()
        seed_ontologies(repo)
        backend = RecordingBackend(
            "primary", CarCsApi(repo, tracer=make_tracer(mode=MODE_OFF))
        )
        front = FrontTier(
            backend, [], tracer=make_tracer(mode=MODE_OFF), name="router",
        )
        response = Client(front, root="/api/v2").get("/stats")
        assert response.ok
        assert "x-trace-id" not in response.headers
        assert "traceparent" not in backend.seen_headers[-1]

    def test_router_root_span_marks_5xx(self, traced_fleet):
        @traced_fleet.primary_api.router.route("GET", "/api/v2/boom")
        def boom(request):
            raise RuntimeError("kaboom")

        response = traced_fleet.client.get("/boom")
        assert response.status == 500
        record = traced_fleet.router_tracer.store.get(
            response.headers["x-trace-id"]
        )
        assert record.root.status == "error"


class TestServedBy:
    def test_proxied_responses_name_the_member(self, traced_fleet):
        response = traced_fleet.client.get("/stats")
        assert response.headers[SERVED_BY_HEADER] == "primary"
        assert response.headers[BACKEND_HEADER] == "primary"

    def test_router_local_endpoints_are_stamped_too(self, traced_fleet):
        assert traced_fleet.client.get("/fleet").headers[
            SERVED_BY_HEADER
        ] == "router"


class TestStitchedTraceEndpoint:
    def test_stitched_tree_spans_router_and_member(self, traced_fleet):
        trace_id = traced_fleet.client.get("/stats").headers["x-trace-id"]
        stitched = traced_fleet.client.get(f"/traces/{trace_id}")
        assert stitched.ok
        payload = stitched.json()
        assert payload["trace_id"] == trace_id
        assert payload["processes"] == ["primary", "router"]
        assert payload["root"]["name"] == "front GET"
        assert payload["root"]["process"] == "router"
        # The router lists every backend it asked plus itself (it holds
        # the front segment for this trace).
        member_names = {m["name"] for m in payload["members"]}
        assert member_names == {"primary", "router"}
        assert all(m["reachable"] for m in payload["members"])
        # The member's segment hangs under the router's read hop.
        hop = next(
            c for c in payload["root"]["children"]
            if c["name"] == "front.read"
        )
        assert hop["children"][0]["name"] == "GET /api/v2/stats"
        assert hop["children"][0]["process"] == "primary"

    def test_job_segment_joins_the_stitched_tree(self, traced_fleet):
        # Seed one unclassified material so the classify sweep has work.
        from repro.core.material import Material

        traced_fleet.repo.add_material(
            Material(title="untagged", description="")
        )
        accepted = traced_fleet.client.post("/jobs/classify", body={})
        assert accepted.status == 202
        trace_id = accepted.headers["x-trace-id"]
        run_pending(
            traced_fleet.primary_api.queue,
            traced_fleet.primary_api.job_handlers,
            tracer=traced_fleet.primary_tracer,
        )
        payload = traced_fleet.client.get(f"/traces/{trace_id}").json()
        assert payload["unlinked"] == []
        names = set()
        stack = [payload["root"]]
        while stack:
            node = stack.pop()
            names.add(node["name"])
            stack.extend(node.get("children") or ())
        assert "front POST" in names
        assert "job.run" in names

    def test_unknown_trace_404s_with_member_detail(self, traced_fleet):
        response = traced_fleet.client.get("/traces/deadbeefdeadbeefdeadbeef")
        assert response.status == 404

    def test_router_only_trace_still_renders(self, traced_fleet):
        # A trace retained by the router but sampled out by the member
        # still answers with the router's segment.
        trace_id = traced_fleet.client.get("/stats").headers["x-trace-id"]
        # Drain the tracer's completion queue into the store first, or
        # the clear races the deferred insert and the segment survives.
        traced_fleet.primary_tracer.store.segments(trace_id)
        traced_fleet.primary_tracer.store._traces.clear()
        payload = traced_fleet.client.get(f"/traces/{trace_id}").json()
        assert payload["processes"] == ["router"]
        assert payload["root"]["name"] == "front GET"


class TestSloEndpoint:
    def test_slo_payload_shape(self, traced_fleet):
        for _ in range(3):
            traced_fleet.client.get("/stats")
        payload = traced_fleet.client.get("/slo").json()
        assert set(payload["windows"]) == {"5m", "1h"}
        window = payload["windows"]["5m"]
        for key in ("availability", "availability_burn", "latency_burn",
                    "p99_ms", "req_s"):
            assert key in window
        assert payload["targets"]["availability"] > 0.9
        assert "queued" in payload["jobs"]
        assert payload["replication"]["role"] == "standalone"
        assert payload["uptime_seconds"] >= 0

    def test_slo_gauges_ride_the_metrics_exposition(self, traced_fleet):
        traced_fleet.client.get("/stats")
        text = Client(
            traced_fleet.primary_api, root="/api/v2"
        ).get("/metrics?format=prometheus").payload
        assert "carcs_slo_burn_rate" in text
        assert "carcs_build_info" in text
        assert "carcs_process_uptime_seconds" in text
        assert "carcs_process_threads" in text

    def test_slo_never_304s(self, traced_fleet):
        response = traced_fleet.client.get(
            "/slo", headers={"if-none-match": "*"},
        )
        assert response.status == 200
