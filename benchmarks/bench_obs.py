"""OBS — tracing overhead on the warm request path.

The tracing layer's budget (docs/architecture.md §Observability): in
``sampled`` mode, tracing may cost at most **10%** of a warm-path
request versus ``CARCS_TRACE=off``.  The verdict is

    (sampled − off) cost of the in-process pipeline
    ------------------------------------------------  <=  10%
        off cost of the same request over HTTP

**Numerator — in-process.**  Tracing is pure server-side CPU: every
span a request produces is opened and closed inside the application
pipeline (middleware chain → dispatch → core → db), which runs
identically whether the request arrives through a socket or a direct
call.  Driving :class:`CarCsApi` directly measures exactly that work,
and the difference of per-mode minima is stable to well under a
microsecond.  Differencing two *HTTP* timings instead would be
hopeless on a shared host: the client and server threads ping-pong
across the scheduler, so each closed-loop sample carries tens of
microseconds of scheduling noise — larger than the quantity measured.

**Denominator — HTTP.**  The budget is a fraction of what a real
client pays, so the baseline is the untraced request served by a live
:class:`ApiServer` over HTTP/1.1 keep-alive on loopback (HTTP parsing,
socket I/O, JSON framing included).

Both sides use a **minimum over many small interleaved chunks**: CPU
steal and frequency drift only ever *slow* a sample, so the minimum
converges on the interference-free cost, where means and medians
compare whatever steal each mode happened to absorb.  Chunk rounds
scale with ``CARCS_BENCH_OBS_ROUNDS`` (default 60).
"""

from __future__ import annotations

import http.client
import os
import time

import pytest

from _results import record
from repro.obs import MODE_ALL, MODE_OFF, MODE_SAMPLED, TraceStore, Tracer
from repro.web import CarCsApi, FrontTier, HttpBackend, LocalBackend
from repro.web.http import Request
from repro.web.server import ApiServer

SEARCH = "/api/v2/search?q=monte+carlo&limit=10"
COVERAGE = "/api/v2/coverage?collection=itcs3145&ontology=PDC12"

MODES = (MODE_OFF, MODE_SAMPLED, MODE_ALL)
ROUNDS = max(1, int(os.environ.get("CARCS_BENCH_OBS_ROUNDS", "60")))
REQUESTS_PER_CHUNK = 40
BASELINE_ROUNDS = 40
BASELINE_PER_CHUNK = 10
OVERHEAD_BUDGET = 0.10


@pytest.fixture(scope="module")
def harness(repo):
    tracer = Tracer(
        TraceStore(capacity=256), mode=MODE_ALL, sample_every=1, slow_ms=1e9,
    )
    app = CarCsApi(repo, tracer=tracer)
    with ApiServer(app, port=0) as server:
        conn = http.client.HTTPConnection("127.0.0.1", server.port)

        def get(path: str) -> int:
            conn.request("GET", path)
            response = conn.getresponse()
            response.read()
            return response.status

        # Warm everything mode-independent: search index, analytics
        # cache, the keep-alive connection itself.
        for path in (SEARCH, COVERAGE):
            assert get(path) == 200
        yield app, get, tracer
        conn.close()


def _pipeline_chunk(app, path: str) -> float:
    """Mean in-process seconds per request over one warm chunk."""
    build = Request.build
    start = time.perf_counter()
    for _ in range(REQUESTS_PER_CHUNK):
        assert app(build("GET", path)).status == 200
    return (time.perf_counter() - start) / REQUESTS_PER_CHUNK


def _http_chunk(get, path: str) -> float:
    """Mean over-HTTP seconds per request over one warm chunk."""
    start = time.perf_counter()
    for _ in range(BASELINE_PER_CHUNK):
        assert get(path) == 200
    return (time.perf_counter() - start) / BASELINE_PER_CHUNK


def _measure(app, get, tracer):
    """Per path: per-mode best pipeline chunk + best untraced HTTP chunk.

    Mode order rotates round to round so no mode always samples the
    same phase of whatever interference pattern the host is under.
    """
    out: dict[str, tuple[dict[str, float], float]] = {}
    for path in (SEARCH, COVERAGE):
        pipeline = {mode: float("inf") for mode in MODES}
        for round_no in range(ROUNDS):
            shift = round_no % len(MODES)
            for mode in MODES[shift:] + MODES[:shift]:
                tracer.configure(mode=mode, sample_every=1, slow_ms=1e9)
                seconds = _pipeline_chunk(app, path)
                if seconds < pipeline[mode]:
                    pipeline[mode] = seconds
        tracer.configure(mode=MODE_OFF)
        baseline = min(
            _http_chunk(get, path) for _ in range(BASELINE_ROUNDS)
        )
        out[path] = (pipeline, baseline)
    tracer.configure(mode=MODE_ALL, sample_every=1, slow_ms=1e9)
    return out


def _overhead(pipeline: dict[str, float], baseline: float,
              mode: str) -> float:
    return (pipeline[mode] - pipeline[MODE_OFF]) / baseline


def _report(path: str, pipeline: dict[str, float],
            baseline: float) -> None:
    print(f"\n{path}")
    print(f"  http request (off): {baseline * 1e6:8.2f} us/req "
          f"{1.0 / baseline:10.0f} req/s   (best of {BASELINE_ROUNDS} "
          f"chunks x {BASELINE_PER_CHUNK})")
    for mode in MODES:
        per_req = pipeline[mode]
        delta = per_req - pipeline[MODE_OFF]
        print(f"  pipeline {mode:8s} {per_req * 1e6:8.2f} us/req  "
              f"delta {delta * 1e6:+7.2f} us  "
              f"overhead {_overhead(pipeline, baseline, mode):+7.2%}"
              f"  (best of {ROUNDS} chunks x {REQUESTS_PER_CHUNK})")


def test_sampled_overhead_within_budget(harness):
    app, get, tracer = harness
    failures = []
    worst = 0.0
    for path, (pipeline, baseline) in _measure(app, get, tracer).items():
        _report(path, pipeline, baseline)
        overhead = _overhead(pipeline, baseline, MODE_SAMPLED)
        worst = max(worst, overhead)
        if overhead > OVERHEAD_BUDGET:
            failures.append(f"{path}: {overhead:.1%}")
    record("obs.sampled_trace_overhead", worst, OVERHEAD_BUDGET,
           comparator="<=", unit="fraction")
    assert not failures, (
        f"sampled-mode tracing exceeds the {OVERHEAD_BUDGET:.0%} warm-path "
        f"budget: {'; '.join(failures)}"
    )


@pytest.fixture(scope="module")
def fleet_harness(repo):
    """A router (FrontTier) proxying a primary, both ways it deploys.

    The *numerator* pipeline drives a LocalBackend front in-process —
    tracing cost is pure server-side CPU, identical whichever transport
    carries the hop, and the in-process form is the only one whose
    per-mode difference is stable (see the module docstring).  The
    *baseline* is the topology a real client actually pays for:
    ``carcs serve --router`` proxies over :class:`HttpBackend`, so the
    untraced request crosses two HTTP/1.1 hops (client → router →
    primary), both served live on loopback.
    """
    member_tracer = Tracer(
        TraceStore(capacity=256), mode=MODE_OFF, sample_every=1, slow_ms=1e9,
    )
    router_tracer = Tracer(
        TraceStore(capacity=256), mode=MODE_OFF, sample_every=1, slow_ms=1e9,
    )
    app = CarCsApi(repo, tracer=member_tracer)
    front = FrontTier(
        LocalBackend("primary", app), [],
        tracer=router_tracer, name="router",
    )
    with ApiServer(app, port=0) as member_server:
        http_front = FrontTier(
            HttpBackend("primary", member_server.url), [],
            tracer=router_tracer, name="router",
        )
        with ApiServer(http_front, port=0) as router_server:
            conn = http.client.HTTPConnection(
                "127.0.0.1", router_server.port
            )

            def get(path: str) -> int:
                conn.request("GET", path)
                response = conn.getresponse()
                response.read()
                return response.status

            for path in (SEARCH, COVERAGE):
                assert get(path) == 200
            yield front, get, router_tracer, member_tracer
            conn.close()


def _front_chunk(front, path: str) -> float:
    """Mean in-process seconds per proxied request over one warm chunk."""
    build = Request.build
    start = time.perf_counter()
    for _ in range(REQUESTS_PER_CHUNK):
        assert front(build("GET", path)).status == 200
    return (time.perf_counter() - start) / REQUESTS_PER_CHUNK


def test_propagation_overhead_within_budget(fleet_harness):
    """Trace-context propagation on a router→primary proxied request —
    traceparent injection at the router, segment continuation at the
    member, two flight recorders instead of one — must stay within the
    same 10% warm-path budget as single-node tracing."""
    front, get, router_tracer, member_tracer = fleet_harness
    prop_modes = (MODE_OFF, MODE_SAMPLED)
    failures = []
    worst = 0.0
    for path in (SEARCH, COVERAGE):
        pipeline = {mode: float("inf") for mode in prop_modes}
        for round_no in range(ROUNDS):
            shift = round_no % len(prop_modes)
            for mode in prop_modes[shift:] + prop_modes[:shift]:
                router_tracer.configure(
                    mode=mode, sample_every=1, slow_ms=1e9,
                )
                member_tracer.configure(
                    mode=mode, sample_every=1, slow_ms=1e9,
                )
                seconds = _front_chunk(front, path)
                if seconds < pipeline[mode]:
                    pipeline[mode] = seconds
        router_tracer.configure(mode=MODE_OFF)
        member_tracer.configure(mode=MODE_OFF)
        baseline = min(
            _http_chunk(get, path) for _ in range(BASELINE_ROUNDS)
        )
        print(f"\n{path} (router -> primary)")
        print(f"  http request (off): {baseline * 1e6:8.2f} us/req")
        for mode in prop_modes:
            delta = pipeline[mode] - pipeline[MODE_OFF]
            print(f"  proxied {mode:8s} {pipeline[mode] * 1e6:8.2f} us/req"
                  f"  delta {delta * 1e6:+7.2f} us  overhead "
                  f"{_overhead(pipeline, baseline, mode):+7.2%}")
        overhead = _overhead(pipeline, baseline, MODE_SAMPLED)
        worst = max(worst, overhead)
        if overhead > OVERHEAD_BUDGET:
            failures.append(f"{path}: {overhead:.1%}")
    record("obs.propagated_trace_overhead", worst, OVERHEAD_BUDGET,
           comparator="<=", unit="fraction")
    assert not failures, (
        f"trace propagation exceeds the {OVERHEAD_BUDGET:.0%} warm-path "
        f"budget on proxied requests: {'; '.join(failures)}"
    )


def test_propagation_actually_crosses_the_hop(fleet_harness):
    # Guard against "fast because propagation silently no-ops": with
    # tracing on, one request must land one segment in *each* tier's
    # store under the same trace id.
    front, get, router_tracer, member_tracer = fleet_harness
    for tracer in (router_tracer, member_tracer):
        tracer.configure(mode=MODE_SAMPLED, sample_every=1, slow_ms=1e9)
        tracer.reset()
    response = front(Request.build("GET", SEARCH))
    assert response.status == 200
    trace_id = response.headers["x-trace-id"]
    assert router_tracer.store.get(trace_id) is not None
    assert member_tracer.store.get(trace_id) is not None
    for tracer in (router_tracer, member_tracer):
        tracer.configure(mode=MODE_OFF)


def test_traced_requests_actually_produce_traces(harness):
    # Guard against "fast because tracing silently no-ops": in sampled
    # mode every one of these warm requests must land in the store.
    app, get, tracer = harness
    tracer.configure(mode=MODE_SAMPLED, sample_every=1, slow_ms=1e9)
    tracer.reset()
    before = len(tracer.store)
    for _ in range(5):
        assert get(SEARCH) == 200
    assert tracer.stats()["retained"] == 5
    assert len(tracer.store) == before + 5
    tracer.configure(mode=MODE_ALL, sample_every=1, slow_ms=1e9)
