"""Trace retention and sampling under concurrency.

Two hostile environments for the flight recorder: a multi-threaded
:class:`~repro.jobs.worker.WorkerPool` running linked job segments in
parallel, and a live threaded HTTP server hammered while an aggressive
sampler drops almost everything.  The invariants: spans never leak
across traces, every segment stays internally well-formed, and the
error/slow always-keep rules survive the sampler under load.
"""

from __future__ import annotations

import threading
import time
import urllib.error
import urllib.request

from repro.corpus.seed import seed_all
from repro.db import Database
from repro.jobs import JobQueue, WorkerPool
from repro.obs import (
    MODE_ALL,
    MODE_SAMPLED,
    REMOTE_PARENT_ATTR,
    TraceStore,
    Tracer,
)
from repro.obs import trace as _trace
from repro.web import CarCsApi
from repro.web.server import ApiServer


def make_tracer(**kwargs):
    kwargs.setdefault("mode", MODE_ALL)
    kwargs.setdefault("sample_every", 1)
    kwargs.setdefault("slow_ms", 1e9)
    return Tracer(TraceStore(capacity=256), **kwargs)


def well_formed(root, trace_id: str) -> int:
    """Walk a span tree checking parent/trace consistency; span count."""
    count = 0
    stack = [(root, None)]
    while stack:
        span, parent = stack.pop()
        count += 1
        assert span.trace_id == trace_id
        if parent is not None:
            assert span.parent_id == parent.span_id
        for child in span.children:
            stack.append((child, span))
    return count


class TestConcurrentJobSegments:
    def test_parallel_workers_never_interleave_trace_segments(self):
        tracer = make_tracer()
        queue = JobQueue(Database("conc-jobs"))
        jobs = 12

        def handler(ctx):
            # A child span plus a sleep long enough that worker threads
            # genuinely overlap — interleaving would cross-wire these.
            with _trace.span("work.step", job=ctx.job["id"]):
                time.sleep(0.01)
            return "ok"

        trace_ids = []
        job_ids = {}
        for i in range(jobs):
            trace_id = f"{0xabc0000 + i:024x}"
            trace_ids.append(trace_id)
            with tracer.trace("POST /jobs", trace_id=trace_id) as root:
                job = queue.enqueue("noop", {"i": i})
            job_ids[trace_id] = (job["id"], root.span_id)

        pool = WorkerPool(
            queue, {"noop": handler}, size=4, poll_interval=0.005,
            tracer=tracer, name="conc",
        ).start()
        try:
            assert pool.drain(timeout=30)
        finally:
            pool.stop()

        for trace_id in trace_ids:
            job_id, enqueue_span = job_ids[trace_id]
            segments = tracer.store.segments(trace_id)
            assert [seg.root.name for seg in segments] == \
                ["POST /jobs", "job.run"]
            job_root = segments[1].root
            # The segment links to *this* trace's enqueue span and ran
            # *this* trace's job — never a neighbour's.
            assert job_root.attributes[REMOTE_PARENT_ATTR] == enqueue_span
            assert job_root.attributes["job"] == job_id
            assert job_root.attributes["outcome"] == "done"
            # Internally consistent, and exactly one work.step — the
            # one this trace's handler opened (db spans from the queue
            # bookkeeping ride along in the same segment).
            well_formed(job_root, trace_id)
            steps = [s for s in job_root.walk() if s.name == "work.step"]
            assert len(steps) == 1
            assert steps[0].attributes["job"] == job_id

    def test_slow_always_keep_survives_sampling_in_the_pool(self):
        # sample_every is astronomically high, but every job sleeps past
        # slow_ms — the slow rule must retain all of them anyway.
        tracer = make_tracer(
            mode=MODE_SAMPLED, sample_every=10**6, slow_ms=1.0,
        )
        queue = JobQueue(Database("conc-slow"))

        def handler(ctx):
            time.sleep(0.005)
            return "ok"

        for i in range(8):
            queue.enqueue("noop", {"i": i})
        pool = WorkerPool(
            queue, {"noop": handler}, size=4, poll_interval=0.005,
            tracer=tracer, name="slow",
        ).start()
        try:
            assert pool.drain(timeout=30)
        finally:
            pool.stop()

        records = tracer.store.records()
        assert len(records) == 8
        assert all(r.retained_by in ("slow", "sampled") for r in records)
        assert sum(r.retained_by == "slow" for r in records) >= 7


class TestSamplerUnderThreadedLoad:
    def test_error_traces_survive_an_aggressive_sampler(self):
        repo = seed_all()
        tracer = make_tracer(
            mode=MODE_SAMPLED, sample_every=10**6, slow_ms=1e9,
        )
        api = CarCsApi(repo, tracer=tracer)

        @api.router.route("GET", "/api/v2/boom")
        def boom(request):
            raise RuntimeError("kaboom")

        ok_ids: list[str] = []
        error_ids: list[str] = []
        failures: list[object] = []
        sink = threading.Lock()

        with ApiServer(api, port=0, threaded=True) as srv:
            def hammer(worker: int):
                try:
                    for n in range(6):
                        if (worker + n) % 3 == 0:
                            try:
                                urllib.request.urlopen(
                                    f"{srv.url}/api/v2/boom", timeout=30
                                )
                            except urllib.error.HTTPError as err:
                                assert err.code == 500
                                with sink:
                                    error_ids.append(
                                        err.headers["x-trace-id"]
                                    )
                        else:
                            with urllib.request.urlopen(
                                f"{srv.url}/api/v2/stats", timeout=30
                            ) as response:
                                assert response.status == 200
                                with sink:
                                    ok_ids.append(
                                        response.headers["x-trace-id"]
                                    )
                except Exception as exc:  # pragma: no cover - failure path
                    failures.append(exc)

            threads = [
                threading.Thread(target=hammer, args=(w,))
                for w in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not any(t.is_alive() for t in threads), "worker hung"
            assert failures == []

        # Every error trace beat the sampler; nearly every OK trace
        # (all but possibly the first sampled one) was dropped.
        assert len(set(error_ids + ok_ids)) == len(error_ids + ok_ids)
        for trace_id in error_ids:
            record = tracer.store.get(trace_id)
            assert record is not None
            assert record.retained_by == "error"
            assert record.root.status == "error"
        retained_ok = [
            tid for tid in ok_ids if tracer.store.get(tid) is not None
        ]
        assert len(retained_ok) <= 1
        stats = tracer.stats()
        assert stats["dropped"] >= len(ok_ids) - 1
        assert stats["retained"] >= len(error_ids)
