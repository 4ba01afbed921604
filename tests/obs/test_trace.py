"""The tracing substrate: spans, context propagation, retention, stores."""

import threading

import pytest

from repro.obs import MetricsRegistry
from repro.obs.trace import (
    MODE_ALL,
    MODE_OFF,
    MODE_SAMPLED,
    NULL_SPAN,
    Span,
    TraceRecord,
    TraceStore,
    Tracer,
    current_span,
    current_trace_id,
    render_text,
    span,
)


def tracer(**kwargs):
    kwargs.setdefault("mode", MODE_ALL)
    kwargs.setdefault("sample_every", 1)
    kwargs.setdefault("slow_ms", 1e9)  # never auto-slow in unit tests
    return Tracer(TraceStore(capacity=kwargs.pop("capacity", 16)), **kwargs)


class TestSpanMath:
    def test_finish_freezes_wall_and_cpu_time(self):
        s = Span("work", "t1")
        s.finish()
        first = s.wall_s
        s.finish()  # idempotent
        assert s.wall_s == first
        assert s.wall_s >= 0.0
        assert s.cpu_s is not None

    def test_self_time_subtracts_finished_children(self):
        root = Span("root", "t1")
        child = Span("child", "t1", root.span_id)
        root.children.append(child)
        child.finish()
        root.finish()
        assert root.self_s == pytest.approx(
            max(0.0, root.wall_s - child.wall_s)
        )

    def test_walk_is_depth_first(self):
        root = Span("a", "t1")
        b, c = Span("b", "t1"), Span("c", "t1")
        d = Span("d", "t1")
        b.children.append(d)
        root.children.extend([b, c])
        assert [s.name for s in root.walk()] == ["a", "b", "d", "c"]

    def test_as_dict_nests_children_and_flags_errors(self):
        root = Span("root", "t1", attributes={"k": "v"})
        child = Span("boom", "t1", root.span_id)
        child.finish(ValueError("nope"))
        root.children.append(child)
        root.finish()
        d = root.as_dict()
        assert d["attributes"] == {"k": "v"}
        assert d["children"][0]["status"] == "error"
        assert "ValueError" in d["children"][0]["error"]
        assert d["children"][0]["parent_id"] == root.span_id


class TestContextPropagation:
    def test_span_without_active_trace_is_the_shared_null(self):
        assert current_span() is None
        scope = span("db.insert", table="materials")
        assert scope is NULL_SPAN
        assert not scope
        with scope as s:
            s.set(rows=1)  # no-op, no error

    def test_nested_spans_parent_correctly_and_restore_context(self):
        t = tracer()
        with t.trace("root") as root:
            trace_id = root.trace_id
            assert current_trace_id() == trace_id
            with span("outer") as outer:
                assert current_span() is outer
                with span("inner") as inner:
                    assert inner.parent_id == outer.span_id
                assert current_span() is outer
            assert current_span() is root
        assert current_span() is None
        tree = t.store.get(trace_id).root
        assert [c.name for c in tree.children] == ["outer"]
        (outer_span,) = tree.children
        assert [c.name for c in outer_span.children] == ["inner"]

    def test_exception_inside_span_marks_error_and_propagates(self):
        t = tracer()
        with pytest.raises(RuntimeError):
            with t.trace("root"):
                with span("work"):
                    raise RuntimeError("boom")
        record = t.store.summaries()[0]
        full = t.store.get(record["trace_id"])
        (child,) = full.root.children
        assert child.status == "error"
        assert "RuntimeError" in child.error

    def test_nested_trace_call_becomes_a_child_span(self):
        t = tracer()
        with t.trace("root") as root:
            with t.trace("inner") as inner:
                assert inner.trace_id == root.trace_id
                assert inner.parent_id == root.span_id
        assert len(t.store) == 1

    def test_threads_get_disjoint_contexts(self):
        t = tracer()
        seen = {}
        barrier = threading.Barrier(2)

        def work(tag):
            with t.trace(tag) as root:
                barrier.wait(timeout=10)  # both traces alive at once
                with span("child"):
                    seen[tag] = current_trace_id()
            assert current_span() is None

        threads = [
            threading.Thread(target=work, args=(f"t{i}",)) for i in range(2)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join(30)
        assert len(set(seen.values())) == 2
        roots = {r.root.name: r for r in map(
            t.store.get, set(seen.values())
        )}
        for tag, trace_id in seen.items():
            record = roots[tag]
            assert record.trace_id == trace_id
            assert [c.name for c in record.root.children] == ["child"]


class TestRetention:
    def test_mode_off_produces_no_spans_at_all(self):
        t = tracer(mode=MODE_OFF)
        assert not t.enabled
        with t.trace("root") as root:
            assert root is NULL_SPAN
            assert span("child") is NULL_SPAN
        assert len(t.store) == 0
        assert t.stats()["started"] == 0

    def test_sampled_mode_keeps_every_nth(self):
        t = tracer(mode=MODE_SAMPLED, sample_every=3)
        for _ in range(9):
            with t.trace("root"):
                pass
        assert t.stats() == {
            "started": 9, "retained": 3, "dropped": 6,
            "stored": 3, "evicted": 0,
        }
        assert all(
            s["retained_by"] == "sampled" for s in t.store.summaries()
        )

    def test_error_overrides_the_sampler(self):
        t = tracer(mode=MODE_SAMPLED, sample_every=10**6)
        with t.trace("fine"):
            pass  # head-sampled (first trace)
        with t.trace("broken") as root:
            root.mark_error("http 500")
        summaries = t.store.summaries()
        assert [s["retained_by"] for s in summaries] == ["error", "sampled"]

    def test_slow_span_overrides_the_sampler(self):
        t = tracer(mode=MODE_SAMPLED, sample_every=10**6, slow_ms=0.0)
        with t.trace("skipped-but-slow"):
            pass
        with t.trace("also-slow"):
            pass
        # Both exceed the (zero) slow threshold; the second would have
        # been sampled out but the slow override retains it anyway.
        assert [s["retained_by"] for s in t.store.summaries()] \
            == ["slow", "slow"]
        assert all(s["slow"] for s in t.store.summaries())

    def test_mode_all_retains_everything(self):
        t = tracer(mode=MODE_ALL, sample_every=10**6)
        for _ in range(4):
            with t.trace("root"):
                pass
        assert t.stats()["retained"] == 4
        assert {s["retained_by"] for s in t.store.summaries()} == {"all"}

    def test_configure_none_rereads_environment(self, monkeypatch):
        monkeypatch.setenv("CARCS_TRACE", "off")
        monkeypatch.setenv("CARCS_TRACE_SAMPLE", "7")
        monkeypatch.setenv("CARCS_TRACE_SLOW_MS", "5.5")
        t = Tracer()
        assert (t.mode, t.sample_every, t.slow_ms) == (MODE_OFF, 7, 5.5)
        t.configure(mode=MODE_ALL)  # explicit overrides env
        assert t.mode == MODE_ALL


class TestTraceStore:
    def test_bounded_with_eviction_count(self):
        store = TraceStore(capacity=2)
        t = Tracer(store, mode=MODE_ALL, slow_ms=1e9)
        ids = []
        for _ in range(5):
            with t.trace("root") as root:
                ids.append(root.trace_id)
        assert len(store) == 2
        assert store.evicted == 3
        assert store.get(ids[0]) is None
        assert store.get(ids[-1]) is not None
        # summaries are newest-first
        assert [s["trace_id"] for s in store.summaries()] == ids[:2:-1]

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            TraceStore(capacity=0)


class TestMetricsBridge:
    def test_span_histograms_and_trace_counter(self):
        t = tracer(mode=MODE_SAMPLED, sample_every=2)
        t.registry = MetricsRegistry()
        for _ in range(4):
            with t.trace("http.request"):
                with span("db.insert"):
                    pass
        t.flush_metrics()  # timings are buffered until a scrape drains them
        export = t.registry.export()
        hists = export["histograms"]
        assert hists['carcs_span_seconds{span="http.request"}']["count"] == 4
        assert hists['carcs_span_seconds{span="db.insert"}']["count"] == 4
        counters = export["counters"]
        assert counters['carcs_traces_total{retained="true"}']["value"] == 2
        assert counters['carcs_traces_total{retained="false"}']["value"] == 2

    def test_feeding_is_deferred_until_stats_or_flush(self):
        t = tracer()
        t.registry = MetricsRegistry()
        with t.trace("http.request"):
            pass
        assert t.registry.export()["histograms"] == {}  # still buffered
        t.stats()  # any scrape-path read drains the buffer
        hists = t.registry.export()["histograms"]
        assert hists['carcs_span_seconds{span="http.request"}']["count"] == 1

    def test_exemplars_point_at_retained_traces_only(self):
        t = tracer(mode=MODE_SAMPLED, sample_every=10**6)
        with t.trace("kept") as kept:  # first trace: head-sampled
            kept_id = kept.trace_id  # live handles don't outlive the block
            with span("cache.get"):
                pass
        with t.trace("dropped"):
            with span("search.query"):
                pass
        exemplars = t.exemplars()
        assert exemplars["kept"] == kept_id
        assert exemplars["cache.get"] == kept_id
        assert "search.query" not in exemplars
        assert t.store.get(exemplars["cache.get"]) is not None

    def test_reset_clears_store_counters_and_exemplars(self):
        t = tracer()
        with t.trace("root"):
            pass
        t.reset()
        assert len(t.store) == 0
        assert t.exemplars() == {}
        assert t.stats()["started"] == 0


class TestRenderText:
    def test_tree_layout_attributes_and_error_lines(self):
        t = tracer(slow_ms=0.0)
        with t.trace("GET /api/v2/search", status=200) as root:
            with span("search.query", mode="bm25"):
                with span("db.changes_since") as inner:
                    inner.mark_error("journal outrun")
        record = t.store.get(root.trace_id)
        text = render_text(record)
        lines = text.splitlines()
        assert lines[0].startswith(f"trace {root.trace_id}")
        assert "spans=3" in lines[0]
        assert "SLOW" in lines[0]
        assert lines[1].startswith("- GET /api/v2/search")
        assert "[status=200]" in lines[1]
        assert lines[2].startswith("  - search.query")
        assert "[mode=bm25]" in lines[2]
        assert lines[3].startswith("    - db.changes_since !")
        assert lines[4].strip() == "error: journal outrun"

    def test_record_summary_shape(self):
        t = tracer()
        with t.trace("root") as root:
            with span("child"):
                pass
        record = t.store.get(root.trace_id)
        assert isinstance(record, TraceRecord)
        summary = record.summary()
        assert summary["spans"] == 2
        assert summary["name"] == "root"
        assert summary["duration_ms"] >= 0.0
        assert record.as_dict()["root"]["children"][0]["name"] == "child"
