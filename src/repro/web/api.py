"""The CAR-CS RESTful API application.

Mirrors the resources the paper's prototype exposes at
``cs-materials.herokuapp.com``: material CRUD + classification editing
(Figure 1), ontology browsing with phrase search (Figure 1b), the
coverage resource behind Figure 2, and the similarity resource behind
Figure 3 — plus gap analysis and classification recommendation.

Every route lives under ``/api/v2``: the resources are mounted by
:mod:`repro.web.v2`, and this module wires the application together and
serves the operational endpoints (``healthz``, ``metrics``,
``replication``, ``slo``, ``traces``).  ``GET /api/v2`` lists the route
table.  All requests flow through the middleware chain in
:mod:`repro.web.middleware` — request ids, metrics, structured logging,
the 500 boundary, the MVCC snapshot pin (reads) / write lock
(mutations), and conditional GET.
"""

from __future__ import annotations

import time
from typing import Any

from repro.core.repository import Repository
from repro.jobs import JobQueue, WorkerPool, default_handlers
from repro.obs import (
    MetricsRegistry,
    RequestLog,
    SloMonitor,
    Tracer,
    collect_runtime_metrics,
    get_tracer,
    render_prometheus,
)

from .http import (
    HttpError,
    Request,
    Response,
    json_response,
    paginated,
    text_response,
)
from .middleware import (
    AdmissionMiddleware,
    ConditionalGetMiddleware,
    ErrorMiddleware,
    LoggingMiddleware,
    MetricsMiddleware,
    ReadOnlyMiddleware,
    RequestIdMiddleware,
    SnapshotMiddleware,
    TracingMiddleware,
    VersionHeaderMiddleware,
    compose,
)
from .router import Router

#: The one API surface (see :mod:`repro.web.v2`).
API_V2_PREFIX = "/api/v2"

#: Paths whose payload changes without a repository mutation — they are
#: exempt from the version-derived ETag and never 304.  Entries cover
#: nested paths too (``/traces`` exempts ``/traces/<id>``).
UNCONDITIONAL_PATHS = tuple(
    f"{API_V2_PREFIX}{suffix}"
    for suffix in ("/metrics", "/healthz", "/traces", "/replication", "/slo")
)


class CarCsApi:
    """Application object: a middleware pipeline around a routed repository.

    Every successful GET carries an ``ETag`` derived from the repository's
    mutation version; a GET with a matching ``If-None-Match`` validator
    short-circuits to an empty ``304 Not Modified`` *before* dispatch, so
    HTTP clients polling ``/api/v2/coverage`` or ``/api/v2/similarity``
    between mutations cost neither recomputation nor payload bytes.
    """

    def __init__(
        self,
        repo: Repository,
        *,
        metrics: MetricsRegistry | None = None,
        request_log: RequestLog | None = None,
        tracer: Tracer | None = None,
        replication: Any = None,
        read_only: bool = False,
        primary_url: str = "",
        queue: JobQueue | None = None,
        workers: int = 0,
        max_queued_jobs: int = 1_000,
        rate_limit: float | None = None,
        rate_burst: float | None = None,
        max_inflight: int | None = None,
    ) -> None:
        self.repo = repo
        # A PrimaryShipper or ReplicaApplier (anything with .status());
        # None on a standalone node.  Surfaces at /api/v2/replication
        # and as carcs_replication_* gauges.
        self.replication = replication
        self.read_only = read_only
        self.primary_url = primary_url
        self.router = Router()
        # The durable job queue backing /api/v2/jobs.  A replica must
        # not create the _jobs table locally (its state comes solely
        # from the primary's frame stream), so it gets a read-only view
        # that activates once the primary ships the table.
        self.queue = queue if queue is not None else JobQueue(
            repo.db, create=not read_only, max_queued=max_queued_jobs,
        )
        self.job_handlers = default_handlers(repo)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.request_log = (
            request_log if request_log is not None else RequestLog()
        )
        self.tracer = tracer if tracer is not None else get_tracer()
        self._search = repo.search_engine()
        # Index-size gauges, rebuild counters, the search latency
        # histogram, per-span duration histograms and the request-log
        # drop gauge all land in the same registry /api/v2/metrics
        # exports.
        self._search.metrics = self.metrics
        self.tracer.registry = self.metrics
        self.request_log.metrics = self.metrics
        # SLO burn rates derive from the same http_* series the metrics
        # middleware feeds; the monitor snapshots them on read.
        self.slo = SloMonitor(self.metrics)
        self._started = time.monotonic()
        from .v2 import register_v2
        register_v2(self)
        self._register_ops()
        # In-process worker pool draining the queue beside the server
        # (``carcs serve --workers N``); 0 = external workers only.
        self.workers: WorkerPool | None = None
        if workers > 0 and not read_only:
            self.workers = WorkerPool(
                self.queue, self.job_handlers,
                size=workers, metrics=self.metrics, tracer=self.tracer,
                name="api",
            ).start()
        # Admission sits below Error (sheds get request ids, metrics,
        # logs and trace spans) but above ReadOnly/Snapshot: a shed
        # request must never queue on the database write lock.
        self.admission = AdmissionMiddleware(
            self.metrics,
            rate_limit=rate_limit,
            rate_burst=rate_burst,
            max_inflight=max_inflight,
        )
        self.middlewares = [
            RequestIdMiddleware(),
            TracingMiddleware(self.tracer),
            MetricsMiddleware(self.metrics),
            LoggingMiddleware(self.request_log),
            ErrorMiddleware(self.metrics, self.request_log),
            self.admission,
            *([ReadOnlyMiddleware(primary_url)] if read_only else []),
            SnapshotMiddleware(repo.db),
            VersionHeaderMiddleware(repo.db),
            ConditionalGetMiddleware(self._etag, UNCONDITIONAL_PATHS),
        ]
        self._pipeline = compose(self.middlewares, self.router.dispatch)

    def _etag(self) -> str:
        return f'"carcs-v{self.repo.version}"'

    def close(self) -> None:
        """Stop the in-process worker pool (if one was started)."""
        if self.workers is not None:
            self.workers.stop()
            self.workers = None

    def _replication_status(self) -> dict[str, Any]:
        if self.replication is None:
            return {"role": "standalone", "version": self.repo.version}
        return self.replication.status()

    def __call__(self, request: Request) -> Response:
        return self._pipeline(request)

    # -------------------------------------------------------- ops routes

    def _register_ops(self) -> None:
        router = self.router

        @router.route("GET", f"{API_V2_PREFIX}/healthz")
        def healthz(request: Request) -> Response:
            return json_response({
                "status": "ok",
                "version": self.repo.version,
                "uptime_seconds": round(time.monotonic() - self._started, 3),
            })

        @router.route("GET", f"{API_V2_PREFIX}/metrics")
        def metrics(request: Request) -> Response:
            # Mirror the repository/cache counters into gauges at scrape
            # time so one export carries the whole picture: per-route
            # request counts, latency histograms, db versions, cache
            # hits/misses, tracer retention counters.
            for key, value in self.repo.stats().items():
                self.metrics.gauge(f"carcs_{key}").set(value)
            self.metrics.gauge("carcs_uptime_seconds").set(
                round(time.monotonic() - self._started, 3)
            )
            self.metrics.gauge("carcs_request_log_dropped").set(
                self.request_log.dropped
            )
            for key, value in self.tracer.stats().items():
                self.metrics.gauge(f"carcs_traces_{key}").set(value)
            # Admission-control counters: in-flight level, tracked
            # client buckets, and shed totals by cause.
            for key, value in self.admission.stats().items():
                self.metrics.gauge(f"carcs_admission_{key}").set(value)
            # Replication lag/offset gauges (numbers only; booleans such
            # as `connected` export as 0/1, strings stay JSON-only).
            for key, value in self._replication_status().items():
                if isinstance(value, bool):
                    value = int(value)
                if isinstance(value, (int, float)):
                    self.metrics.gauge(f"carcs_replication_{key}").set(value)
            # Queue depth by job state (empty on a replica until the
            # primary ships the _jobs table).
            for state, value in self.queue.counts().items():
                self.metrics.gauge("carcs_jobs", state=state).set(value)
            # Process runtime gauges (build info, uptime, RSS, fds,
            # threads) and the carcs_slo_* target/ratio/burn gauges.
            collect_runtime_metrics(self.metrics)
            self.slo.export()
            if request.query_one("format") == "prometheus":
                return text_response(
                    render_prometheus(self.metrics),
                    content_type="text/plain; version=0.0.4; charset=utf-8",
                )
            return json_response({
                "metrics": self.metrics.export(),
                # span name -> trace id of a recent retained trace
                # containing it: the histogram↔trace cross-reference.
                "exemplars": self.tracer.exemplars(),
            })

        @router.route("GET", f"{API_V2_PREFIX}/replication")
        def replication_status(request: Request) -> Response:
            return json_response(self._replication_status())

        @router.route("GET", f"{API_V2_PREFIX}/slo")
        def slo(request: Request) -> Response:
            # One fetch carries everything `carcs top` renders per
            # member: burn rates plus queue depth and replication lag.
            payload = self.slo.report()
            payload["jobs"] = self.queue.counts()
            payload["replication"] = self._replication_status()
            payload["uptime_seconds"] = round(
                time.monotonic() - self._started, 3
            )
            return json_response(payload)

        @router.route("GET", f"{API_V2_PREFIX}/traces")
        def list_traces(request: Request) -> Response:
            summaries = self.tracer.store.summaries()
            status = request.query_one("status")
            if status:
                summaries = [s for s in summaries if s["status"] == status]
            payload = paginated(summaries, request, default_limit=20)
            payload["tracer"] = self.tracer.stats()
            return json_response(payload)

        @router.route("GET", f"{API_V2_PREFIX}/traces/<trace_id>")
        def get_trace(request: Request) -> Response:
            trace_id = request.params["trace_id"]
            record = self.tracer.store.get(trace_id)
            if record is None:
                raise HttpError(
                    404,
                    f"no retained trace {trace_id!r} (sampled out, evicted, "
                    "or never started)",
                )
            payload = record.as_dict()
            # All local segments sharing this trace id (a request and
            # the job it enqueued can both live in this process) — the
            # fleet stitcher consumes these.
            payload["segments"] = [
                seg.root.as_dict()
                for seg in self.tracer.store.segments(trace_id)
            ]
            return json_response(payload)
