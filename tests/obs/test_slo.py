"""SLO burn-rate derivation from the live metrics registry."""

from __future__ import annotations

from repro.obs import MetricsRegistry, SloMonitor


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_monitor(registry, clock, **kwargs):
    kwargs.setdefault("availability_target", 0.999)
    kwargs.setdefault("latency_target", 0.95)
    kwargs.setdefault("latency_threshold_ms", 100.0)
    kwargs.setdefault("windows", (("5m", 300.0), ("1h", 3600.0)))
    kwargs.setdefault("min_sample_interval", 0.0)
    return SloMonitor(registry, clock=clock, **kwargs)


def record_requests(registry, n, *, status="2xx", latency=0.01,
                    route="GET /api/v2/stats"):
    for _ in range(n):
        registry.counter(
            "http_requests_total", route=route, status=status,
        ).inc()
        registry.histogram(
            "http_request_seconds", route=route,
        ).observe(latency)


class TestAvailability:
    def test_all_good_traffic_burns_nothing(self):
        registry, clock = MetricsRegistry(), FakeClock()
        monitor = make_monitor(registry, clock)
        monitor.sample(force=True)  # baseline at t0
        record_requests(registry, 100)
        clock.advance(60)
        report = monitor.report()
        window = report["windows"]["5m"]
        assert window["requests"] == 100
        assert window["errors"] == 0
        assert window["availability"] == 1.0
        assert window["availability_burn"] == 0.0
        assert report["targets"]["availability"] == 0.999

    def test_error_traffic_reports_burn_rate(self):
        registry, clock = MetricsRegistry(), FakeClock()
        monitor = make_monitor(registry, clock)
        monitor.sample(force=True)
        record_requests(registry, 99)
        record_requests(registry, 1, status="5xx")
        clock.advance(60)
        window = monitor.report()["windows"]["5m"]
        assert window["errors"] == 1
        assert window["availability"] == 0.99
        # bad ratio 1% against a 0.1% budget: burning 10x.
        assert window["availability_burn"] == 10.0

    def test_4xx_is_the_clients_budget(self):
        registry, clock = MetricsRegistry(), FakeClock()
        monitor = make_monitor(registry, clock)
        monitor.sample(force=True)
        record_requests(registry, 50, status="4xx")
        clock.advance(60)
        window = monitor.report()["windows"]["5m"]
        assert window["requests"] == 50
        assert window["errors"] == 0
        assert window["availability"] == 1.0


class TestLatency:
    def test_fast_traffic_meets_the_objective(self):
        registry, clock = MetricsRegistry(), FakeClock()
        monitor = make_monitor(registry, clock)
        monitor.sample(force=True)
        record_requests(registry, 40, latency=0.005)
        clock.advance(60)
        window = monitor.report()["windows"]["5m"]
        assert window["latency_ok_ratio"] == 1.0
        assert window["latency_burn"] == 0.0
        assert window["slow"] == 0

    def test_slow_traffic_burns_latency_budget(self):
        registry, clock = MetricsRegistry(), FakeClock()
        monitor = make_monitor(registry, clock)
        monitor.sample(force=True)
        record_requests(registry, 90, latency=0.005)
        record_requests(registry, 10, latency=0.4)  # over 100ms threshold
        clock.advance(60)
        window = monitor.report()["windows"]["5m"]
        assert window["slow"] == 10
        assert window["latency_ok_ratio"] == 0.9
        # 10% slow against a 5% budget: burning 2x.
        assert window["latency_burn"] == 2.0

    def test_p99_reflects_the_windows_latency_diff(self):
        registry, clock = MetricsRegistry(), FakeClock()
        monitor = make_monitor(registry, clock)
        monitor.sample(force=True)
        record_requests(registry, 100, latency=0.004)
        clock.advance(60)
        window = monitor.report()["windows"]["5m"]
        # Bucket-resolution answer: 0.004s falls in the le=0.005 bucket.
        assert window["p99_ms"] == 5.0


class TestWindowing:
    def test_old_samples_fall_out_of_the_short_window(self):
        registry, clock = MetricsRegistry(), FakeClock()
        monitor = make_monitor(registry, clock)
        monitor.sample(force=True)
        record_requests(registry, 10, status="5xx")
        clock.advance(60)
        monitor.sample(force=True)  # errors land inside this sample
        clock.advance(600)  # ...and then age past the 5m window
        report = monitor.report()
        assert report["windows"]["5m"]["errors"] == 0
        # The 1h window still sees them.
        assert report["windows"]["1h"]["errors"] == 10

    def test_req_s_uses_the_observed_span(self):
        registry, clock = MetricsRegistry(), FakeClock()
        monitor = make_monitor(registry, clock)
        monitor.sample(force=True)
        record_requests(registry, 120)
        clock.advance(60)
        window = monitor.report()["windows"]["5m"]
        assert window["req_s"] == 2.0
        assert window["span_s"] == 60.0

    def test_min_sample_interval_rate_limits_collection(self):
        registry, clock = MetricsRegistry(), FakeClock()
        monitor = make_monitor(registry, clock, min_sample_interval=5.0)
        # Construction seeds exactly one baseline; rate-limited reads
        # inside the interval never add another.
        monitor.report()
        monitor.report()
        assert monitor.report()["totals"]["samples"] == 1
        clock.advance(6)
        monitor.report()
        assert len(monitor._samples) == 2
        # force bypasses the interval.
        monitor.sample(force=True)
        assert len(monitor._samples) == 3

    def test_empty_registry_reports_cleanly(self):
        monitor = make_monitor(MetricsRegistry(), FakeClock())
        report = monitor.report()
        window = report["windows"]["5m"]
        assert window["requests"] == 0
        assert window["availability"] == 1.0
        assert window["availability_burn"] == 0.0
        assert window["p99_ms"] == 0.0


class TestExport:
    def test_export_mirrors_the_report_into_gauges(self):
        registry, clock = MetricsRegistry(), FakeClock()
        monitor = make_monitor(registry, clock)
        monitor.sample(force=True)
        record_requests(registry, 99)
        record_requests(registry, 1, status="5xx")
        clock.advance(60)
        monitor.export()
        gauges = registry.export()["gauges"]
        assert gauges['carcs_slo_target{slo="availability"}']["value"] \
            == 0.999
        assert gauges[
            'carcs_slo_burn_rate{slo="availability",window="5m"}'
        ]["value"] == 10.0
        assert gauges[
            'carcs_slo_ratio{slo="latency",window="1h"}'
        ]["value"] == 1.0

    def test_env_overrides_pick_up_targets(self, monkeypatch):
        monkeypatch.setenv("CARCS_SLO_AVAILABILITY", "0.99")
        monkeypatch.setenv("CARCS_SLO_LATENCY_MS", "250")
        monkeypatch.setenv("CARCS_SLO_LATENCY_TARGET", "0.9")
        monitor = SloMonitor(MetricsRegistry())
        assert monitor.availability_target == 0.99
        assert monitor.latency_threshold_ms == 250.0
        assert monitor.latency_target == 0.9

    def test_bad_env_values_fall_back_to_defaults(self, monkeypatch):
        monkeypatch.setenv("CARCS_SLO_AVAILABILITY", "not-a-number")
        monitor = SloMonitor(MetricsRegistry())
        assert monitor.availability_target == 0.999
