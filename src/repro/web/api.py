"""The CAR-CS RESTful API surface.

Mirrors the resources the paper's prototype exposes at
``cs-materials.herokuapp.com``: assignment CRUD + classification editing
(Figure 1), ontology browsing with phrase search (Figure 1b), the
coverage resource behind Figure 2, and the similarity resource behind
Figure 3 — plus gap analysis and classification recommendation.

The surface is versioned: every resource lives under ``/api/v1/...``,
with the historical unprefixed paths kept as deprecated aliases (they
dispatch identically but answer with a ``Deprecation: true`` header).
``GET /api/v1`` lists the route table; ``GET /api/v1/metrics`` and
``GET /api/v1/healthz`` expose the observability layer.  All requests
flow through the middleware chain in :mod:`repro.web.middleware` —
request ids, metrics, structured logging, the 500 boundary, the MVCC
snapshot pin (reads) / write lock (mutations), and conditional GET.
"""

from __future__ import annotations

import time
from typing import Any

from repro.core.classification import ClassificationSet
from repro.core.gaps import find_gaps
from repro.core.material import CourseLevel, Material, MaterialKind
from repro.core.ontology import BloomLevel
from repro.core.repository import Repository
from repro.core.search import SearchFilters
from repro.db import query as db_query
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

#: The deprecated v1 prefix — served as a compatibility shim.
API_PREFIX = "/api/v1"

#: The current, resource-oriented surface (see :mod:`repro.web.v2`).
API_V2_PREFIX = "/api/v2"

#: RFC 8594 ``Sunset`` date stamped on every v1 response: the v1 shim
#: is scheduled to disappear; ``/api/v2`` is the successor.
V1_SUNSET = "Wed, 30 Jun 2027 00:00:00 GMT"

#: Paths whose payload changes without a repository mutation — they are
#: exempt from the version-derived ETag and never 304.  Entries cover
#: nested paths too (``/traces`` exempts ``/traces/<id>``).
UNCONDITIONAL_PATHS = tuple(
    f"{prefix}{suffix}"
    for prefix in (API_PREFIX, API_V2_PREFIX)
    for suffix in ("/metrics", "/healthz", "/traces", "/replication", "/slo")
)


def _material_payload(repo: Repository, material: Material) -> dict[str, Any]:
    assert material.id is not None
    cs = repo.classification_of(material.id)
    return {
        "id": material.id,
        "title": material.title,
        "description": material.description,
        "kind": material.kind.value,
        "authors": list(material.authors),
        "url": material.url,
        "course_level": material.course_level.value if material.course_level else None,
        "languages": list(material.languages),
        "datasets": list(material.datasets),
        "tags": list(material.tags),
        "collection": material.collection,
        "year": material.year,
        "classifications": [
            {"ontology": item.ontology, "key": item.key,
             "bloom": item.bloom.value if item.bloom else None}
            for item in cs.items()
        ],
    }


class CarCsApi:
    """Application object: a middleware pipeline around a routed repository.

    Every successful GET carries an ``ETag`` derived from the repository's
    mutation version; a GET with a matching ``If-None-Match`` validator
    short-circuits to an empty ``304 Not Modified`` *before* dispatch, so
    HTTP clients polling ``/api/v1/coverage`` or ``/api/v1/similarity``
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
        # None on a standalone node.  Surfaces at /api/v1/replication
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
        # drop gauge all land in the same registry /api/v1/metrics
        # exports.
        self._search.metrics = self.metrics
        self.tracer.registry = self.metrics
        self.request_log.metrics = self.metrics
        # SLO burn rates derive from the same http_* series the metrics
        # middleware feeds; the monitor snapshots them on read.
        self.slo = SloMonitor(self.metrics)
        self._started = time.monotonic()
        self._register()
        from .v2 import register_v2
        register_v2(self)
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

    # ------------------------------------------------------------ helpers

    def _material_or_404(self, request: Request) -> Material:
        mid = request.params["id"]
        try:
            return self.repo.get_material(mid)
        except Exception:
            raise HttpError(404, f"no material with id {mid}")

    def _parse_classification(self, raw: list[dict]) -> ClassificationSet:
        cs = ClassificationSet()
        for entry in raw:
            try:
                ontology = entry["ontology"]
                key = entry["key"]
            except (TypeError, KeyError):
                raise HttpError(400, "classification entries need 'ontology' and 'key'")
            bloom = None
            if entry.get("bloom"):
                try:
                    bloom = BloomLevel(entry["bloom"])
                except ValueError:
                    raise HttpError(400, f"unknown bloom level {entry['bloom']!r}")
            cs.add(ontology, key, bloom)
        return cs

    def _require_collection(self, collection: str) -> None:
        """404 unless some material is in ``collection`` — an indexed
        probe for one row, never a copy of the collection."""
        if not db_query(self.repo.db, "materials").filter(
            collection=collection
        ).exists():
            raise HttpError(404, f"no materials in collection {collection!r}")

    def _collection_ids(self, collection: str) -> list[int]:
        ids = db_query(self.repo.db, "materials").filter(
            collection=collection
        ).values("id")
        if not ids:
            raise HttpError(404, f"no materials in collection {collection!r}")
        return sorted(ids)

    def _parse_search_request(self, request: Request):
        """Shared by ``/search`` and ``/assignments``: the ``q`` facet
        query language plus the ``collection``/``under`` shorthand
        parameters, folded into one (text, filters) pair."""
        from dataclasses import replace

        from ..core.query_language import QuerySyntaxError, parse_query

        try:
            parsed = parse_query(request.query_one("q", "") or "")
        except QuerySyntaxError as exc:
            raise HttpError(400, str(exc))
        filters = parsed.filters
        collection = request.query_one("collection")
        if collection:
            filters = replace(
                filters, collections=filters.collections + (collection,)
            )
        under = request.query_one("under")
        if under:
            filters = replace(filters, under=filters.under + (under,))
        return parsed.text, filters

    # ------------------------------------------------------------ routes

    def _register(self) -> None:
        router = self.router

        def route(method: str, path: str):
            """Mount under ``/api/v1`` (the compatibility shim: answers
            byte-identically but carries the ``Sunset`` header pointing
            clients at ``/api/v2``) + keep the unprefixed path as a
            deprecated alias that still dispatches."""

            def register(handler):
                router.add(method, API_PREFIX + path, handler,
                           sunset=V1_SUNSET)
                router.add(method, path, handler, deprecated=True,
                           sunset=V1_SUNSET)
                return handler

            return register

        @router.route("GET", API_PREFIX, sunset=V1_SUNSET)
        def api_index(request: Request) -> Response:
            return json_response({
                "service": "carcs",
                "api_version": "v1",
                "successor": API_V2_PREFIX,
                "sunset": V1_SUNSET,
                "routes": [
                    {"method": r.method, "path": r.pattern}
                    for r in router.routes()
                    if not r.deprecated
                    and r.pattern.startswith(API_PREFIX)
                ],
            })

        @router.route("GET", f"{API_PREFIX}/healthz", sunset=V1_SUNSET)
        def healthz(request: Request) -> Response:
            return json_response({
                "status": "ok",
                "version": self.repo.version,
                "uptime_seconds": round(time.monotonic() - self._started, 3),
            })

        @router.route("GET", f"{API_PREFIX}/metrics", sunset=V1_SUNSET)
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

        @router.route("GET", f"{API_PREFIX}/replication", sunset=V1_SUNSET)
        def replication_status(request: Request) -> Response:
            return json_response(self._replication_status())

        @router.route("GET", f"{API_PREFIX}/slo", sunset=V1_SUNSET)
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

        @router.route("GET", f"{API_PREFIX}/traces", sunset=V1_SUNSET)
        def list_traces(request: Request) -> Response:
            summaries = self.tracer.store.summaries()
            status = request.query_one("status")
            if status:
                summaries = [s for s in summaries if s["status"] == status]
            payload = paginated(summaries, request, default_limit=20)
            payload["tracer"] = self.tracer.stats()
            return json_response(payload)

        @router.route("GET", f"{API_PREFIX}/traces/<trace_id>", sunset=V1_SUNSET)
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

        @route("GET", "/assignments")
        def list_assignments(request: Request) -> Response:
            # `q` accepts the facet query language, e.g.
            # "language:python under:PDC12/PROG monte carlo".
            text, filters = self._parse_search_request(request)
            # Rank everything, then window: `total` must count the full
            # result set, not just the requested page.
            hits = self._search.search(
                text, filters, limit=max(self.repo.material_count(), 1),
            )
            return json_response(paginated([
                {"id": h.material.id, "title": h.material.title,
                 "collection": h.material.collection, "score": h.score}
                for h in hits
            ], request, default_limit=100))

        @route("GET", "/search")
        def search(request: Request) -> Response:
            text, filters = self._parse_search_request(request)
            hits = self._search.search(
                text, filters, limit=max(self.repo.material_count(), 1),
            )
            payload = paginated([
                {"id": h.material.id, "title": h.material.title,
                 "kind": h.material.kind.value,
                 "collection": h.material.collection, "score": h.score}
                for h in hits
            ], request, default_limit=20)
            payload["mode"] = self._search.mode
            return json_response(payload)

        @route("GET", "/assignments/<int:id>/similar")
        def similar_assignments(request: Request) -> Response:
            material = self._material_or_404(request)
            assert material.id is not None
            try:
                hits = self._search.similar_to(
                    material.id, limit=request.query_int("limit", 10) or 10,
                )
            except KeyError as exc:
                raise HttpError(404, str(exc))
            return json_response({
                "material": material.title,
                "similar": [
                    {"id": h.material.id, "title": h.material.title,
                     "collection": h.material.collection, "score": h.score}
                    for h in hits
                ],
            })

        @route("POST", "/assignments")
        def create_assignment(request: Request) -> Response:
            body = request.json()
            if "title" not in body:
                raise HttpError(400, "'title' is required")
            try:
                material = Material(
                    title=body["title"],
                    description=body.get("description", ""),
                    kind=MaterialKind(body.get("kind", "assignment")),
                    authors=tuple(body.get("authors", ())),
                    url=body.get("url", ""),
                    course_level=(
                        CourseLevel(body["course_level"])
                        if body.get("course_level") else None
                    ),
                    languages=tuple(body.get("languages", ())),
                    datasets=tuple(body.get("datasets", ())),
                    tags=tuple(body.get("tags", ())),
                    collection=body.get("collection", ""),
                    year=body.get("year"),
                )
            except ValueError as exc:
                raise HttpError(400, str(exc))
            cs = self._parse_classification(body.get("classifications", []))
            try:
                stored = self.repo.add_material(material, cs)
            except (ValueError, KeyError) as exc:
                raise HttpError(400, str(exc))
            return json_response(_material_payload(self.repo, stored), status=201)

        @route("GET", "/assignments/<int:id>")
        def get_assignment(request: Request) -> Response:
            material = self._material_or_404(request)
            return json_response(_material_payload(self.repo, material))

        @route("PATCH", "/assignments/<int:id>")
        def update_assignment(request: Request) -> Response:
            material = self._material_or_404(request)
            body = request.json()
            allowed = {"title", "description", "url", "collection", "year"}
            changes = {k: v for k, v in body.items() if k in allowed}
            if not changes:
                raise HttpError(400, f"nothing to update; allowed: {sorted(allowed)}")
            assert material.id is not None
            updated = self.repo.update_material(material.id, **changes)
            return json_response(_material_payload(self.repo, updated))

        @route("DELETE", "/assignments/<int:id>")
        def delete_assignment(request: Request) -> Response:
            material = self._material_or_404(request)
            assert material.id is not None
            self.repo.delete_material(material.id)
            return json_response({"deleted": material.id})

        @route("POST", "/assignments/<int:id>/classifications")
        def add_classification(request: Request) -> Response:
            material = self._material_or_404(request)
            body = request.json()
            cs = self._parse_classification([body])
            assert material.id is not None
            for item in cs.items():
                try:
                    self.repo.classify(
                        material.id, item.ontology, item.key, bloom=item.bloom
                    )
                except KeyError as exc:
                    raise HttpError(400, str(exc))
            return json_response(
                _material_payload(self.repo, self.repo.get_material(material.id)),
                status=201,
            )

        @route("DELETE", "/assignments/<int:id>/classifications")
        def remove_classification(request: Request) -> Response:
            material = self._material_or_404(request)
            key = request.query_one("key")
            if not key:
                raise HttpError(400, "query parameter 'key' is required")
            assert material.id is not None
            removed = self.repo.declassify(material.id, key)
            if not removed:
                raise HttpError(404, f"material not classified under {key!r}")
            return json_response({"removed": key})

        @route("GET", "/ontologies")
        def list_ontologies(request: Request) -> Response:
            return json_response({
                "ontologies": [
                    {"name": name, "entries": len(onto),
                     "areas": [a.label for a in onto.areas()]}
                    for name, onto in sorted(self.repo.ontologies.items())
                ]
            })

        @route("GET", "/ontologies/<name>/entries")
        def search_entries(request: Request) -> Response:
            name = request.params["name"]
            try:
                onto = self.repo.ontology(name)
            except KeyError as exc:
                raise HttpError(404, str(exc))
            phrase = request.query_one("search", "") or ""
            if phrase:
                nodes = onto.search(phrase, limit=len(onto))
            else:
                nodes = onto.nodes()
            return json_response(paginated([
                {"key": n.key, "label": n.label, "kind": n.kind.value,
                 "path": onto.path_string(n.key)}
                for n in nodes
            ], request, default_limit=50))

        @route("GET", "/coverage")
        def coverage(request: Request) -> Response:
            collection = request.query_one("collection")
            ontology = request.query_one("ontology")
            if not collection or not ontology:
                raise HttpError(400, "'collection' and 'ontology' are required")
            try:
                onto = self.repo.ontology(ontology)
            except KeyError as exc:
                raise HttpError(404, str(exc))
            self._require_collection(collection)
            report = self.repo.coverage(ontology, collection=collection)
            return json_response({
                "collection": collection,
                "ontology": ontology,
                "n_materials": report.n_materials,
                "areas": [
                    {"code": area.code, "label": area.label, "count": count}
                    for area, count in report.area_ranking(onto)
                ],
                "entries_touched": len(report.rollup_counts),
            })

        @route("GET", "/similarity")
        def similarity(request: Request) -> Response:
            left = request.query_one("left")
            right = request.query_one("right")
            if not left or not right:
                raise HttpError(400, "'left' and 'right' collections are required")
            threshold = request.query_int("threshold", 2) or 2
            graph = self.repo.similarity(
                self._collection_ids(left),
                self._collection_ids(right),
                threshold=threshold,
                left_group=left,
                right_group=right,
            )
            return json_response({
                "threshold": threshold,
                "nodes": [
                    {"id": n, "group": d["group"], "title": d["title"],
                     "degree": graph.degree(n)}
                    for n, d in graph.nodes(data=True)
                ],
                "edges": [
                    {"left": u, "right": v, "shared": d["shared"],
                     "shared_keys": list(d["shared_keys"])}
                    for u, v, d in graph.edges(data=True)
                ],
            })

        @route("GET", "/gaps")
        def gaps(request: Request) -> Response:
            reference = request.query_one("reference")
            candidate = request.query_one("candidate")
            ontology = request.query_one("ontology", "CS13") or "CS13"
            if not reference or not candidate:
                raise HttpError(400, "'reference' and 'candidate' are required")
            try:
                onto = self.repo.ontology(ontology)
            except KeyError as exc:
                raise HttpError(404, str(exc))
            self._require_collection(reference)
            self._require_collection(candidate)
            ref = self.repo.coverage(ontology, collection=reference)
            cand = self.repo.coverage(ontology, collection=candidate)
            report = find_gaps(
                onto, ref, cand,
                reference_name=reference, candidate_name=candidate,
            )
            return json_response({
                "ontology": ontology,
                "alignment": report.alignment,
                "missing_in_candidate": [
                    {"key": e.key, "path": e.path,
                     "reference_count": e.reference_count}
                    for e in report.top_development_targets(20)
                ],
                "unique_to_candidate": [
                    {"key": e.key, "path": e.path,
                     "candidate_count": e.candidate_count}
                    for e in report.unique_to_candidate[:20]
                ],
            })

        @route("POST", "/recommend")
        def recommend(request: Request) -> Response:
            body = request.json()
            text = body.get("text", "")
            selected = body.get("selected", [])
            if not text and not selected:
                raise HttpError(400, "'text' or 'selected' is required")
            # The fitted recommender is memoized in the repository cache
            # until the classification tables mutate.
            recs = self.repo.recommend(text, selected, top=body.get("top", 10))
            return json_response({
                "suggestions": [
                    {"key": r.key, "score": r.score, "source": r.source}
                    for r in recs
                ]
            })

        @route("GET", "/assignments/<int:id>/variants")
        def variants(request: Request) -> Response:
            from repro.analysis.variants import find_variants

            material = self._material_or_404(request)
            assert material.id is not None
            hits = find_variants(
                self.repo, material.id,
                min_overlap=request.query_int("min_overlap", 2) or 2,
                limit=request.query_int("limit", 10) or 10,
            )
            return json_response({
                "material": material.title,
                "variants": [
                    {
                        "id": h.material.id,
                        "title": h.material.title,
                        "overlap": h.overlap,
                        "jaccard": h.jaccard,
                        "differing_facets": list(h.differing_facets),
                    }
                    for h in hits
                ],
            })

        @route("GET", "/assignments/<int:id>/lint")
        def lint(request: Request) -> Response:
            from repro.analysis.consistency import lint_material

            material = self._material_or_404(request)
            assert material.id is not None
            findings = lint_material(self.repo, material.id)
            return json_response({
                "material": material.title,
                "findings": [
                    {"rule": f.rule, "detail": f.detail} for f in findings
                ],
            })

        @route("GET", "/plan")
        def plan(request: Request) -> Response:
            from repro.analysis.planner import core_targets, plan_course
            from repro.core.ontology import Tier

            ontology = request.query_one("ontology", "PDC12") or "PDC12"
            try:
                onto = self.repo.ontology(ontology)
            except KeyError as exc:
                raise HttpError(404, str(exc))
            tiers = (Tier.CORE, Tier.CORE1)
            max_materials = request.query_int("max_materials")
            course = plan_course(
                self.repo, ontology, core_targets(onto, tiers),
                max_materials=max_materials,
            )
            return json_response({
                "ontology": ontology,
                "coverage_ratio": course.coverage_ratio,
                "picks": [
                    {"id": p.material_id, "title": p.title,
                     "newly_covered": list(p.newly_covered)}
                    for p in course.picks
                ],
                "uncovered": sorted(course.uncovered),
            })

        @route("GET", "/stats")
        def stats(request: Request) -> Response:
            return json_response(self.repo.stats())

        # The observability endpoints serve identically on the current
        # surface — same handler objects, no Sunset header.  Resource
        # routes get genuinely redesigned shapes in repro.web.v2; these
        # are operational plumbing, not resources.
        router.add("GET", f"{API_V2_PREFIX}/healthz", healthz)
        router.add("GET", f"{API_V2_PREFIX}/metrics", metrics)
        router.add("GET", f"{API_V2_PREFIX}/replication", replication_status)
        router.add("GET", f"{API_V2_PREFIX}/slo", slo)
        router.add("GET", f"{API_V2_PREFIX}/traces", list_traces)
        router.add("GET", f"{API_V2_PREFIX}/traces/<trace_id>", get_trace)
