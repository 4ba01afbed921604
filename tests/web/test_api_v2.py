"""The ``/api/v2`` surface: resources, cursors, async jobs."""

from __future__ import annotations

import pytest

from repro.core.classification import ClassificationSet
from repro.core.material import Material, MaterialKind
from repro.core.repository import Repository
from repro.corpus import keys as K
from repro.corpus.seed import seed_all, seed_ontologies
from repro.jobs import run_pending
from repro.web import CarCsApi, Client
from repro.web.api import API_V2_PREFIX


@pytest.fixture(scope="module")
def api():
    return CarCsApi(seed_all())


@pytest.fixture(scope="module")
def client(api):
    return Client(api, root=API_V2_PREFIX)


@pytest.fixture()
def empty_api():
    repo = Repository()
    seed_ontologies(repo)
    return CarCsApi(repo)


@pytest.fixture()
def empty_client(empty_api):
    return Client(empty_api, root=API_V2_PREFIX)


def _add_unclassified(repo, *, collection="inbox"):
    keys = repo.classification_keys()
    template = repo.get_material(
        next(mid for mid in sorted(keys) if keys[mid])
    )
    clone = Material(
        title=f"Incoming copy of {template.title}",
        description=template.description,
        kind=MaterialKind.ASSIGNMENT,
        languages=template.languages,
        tags=template.tags,
        collection=collection,
    )
    return repo.add_material(clone, ClassificationSet())


class TestIndexAndShim:
    def test_v2_index_lists_only_v2_routes(self, client):
        body = client.get("/").json()
        assert body["api_version"] == "v2"
        assert all(
            r["path"].startswith(API_V2_PREFIX) for r in body["routes"]
        )
        assert {"method": "POST", "path": f"{API_V2_PREFIX}/jobs/classify"} \
            in body["routes"]

    def test_v2_routes_carry_no_sunset_or_deprecation(self, client):
        response = client.get("/ontologies")
        assert response.ok
        assert "sunset" not in response.headers
        assert "deprecation" not in response.headers

    def test_ops_endpoints_serve_on_v2(self, client):
        assert client.get("/healthz").json()["status"] == "ok"
        metrics = client.get("/metrics").json()["metrics"]
        gauges = metrics["gauges"]
        assert any(k.startswith("carcs_jobs{") for k in gauges)


class TestRetiredSurface:
    @pytest.mark.parametrize(
        "path", ["/api/v1", "/api/v1/stats", "/stats", "/assignments/1"],
    )
    def test_retired_paths_answer_404(self, api, path):
        response = Client(api).get(path)
        assert response.status == 404
        assert response.error["code"] == 404
        assert response.error["request_id"]
        assert "sunset" not in response.headers
        assert "deprecation" not in response.headers

    def test_index_lists_every_route(self, api, client):
        listed = [
            (r["method"], r["path"]) for r in client.get("/").json()["routes"]
        ]
        assert listed == [(r.method, r.pattern) for r in api.router.routes()]


class TestCursorPagination:
    def test_walks_all_pages_without_overlap(self, client):
        total = client.get("/materials?limit=0").json()["total"]
        assert total > 4
        seen, cursor, pages = [], None, 0
        while True:
            url = "/materials?limit=4" + (
                f"&cursor={cursor}" if cursor else ""
            )
            page = client.get(url).json()
            assert page["limit"] == 4
            assert page["total"] == total
            seen.extend(item["id"] for item in page["items"])
            pages += 1
            cursor = page["next_cursor"]
            if cursor is None:
                break
        assert len(seen) == total
        assert len(set(seen)) == total            # no overlap between pages
        assert pages == -(-total // 4)

    def test_invalid_cursor_is_400(self, client):
        response = client.get("/materials?cursor=not-a-cursor")
        assert response.status == 400
        assert "cursor" in response.error["message"]

    def test_negative_limit_is_400(self, client):
        assert client.get("/materials?limit=-1").status == 400

    def test_entries_listing_uses_cursor_envelope(self, client):
        page = client.get("/ontologies/PDC12/entries?limit=5").json()
        assert set(page) == {"items", "total", "limit", "next_cursor"}
        assert len(page["items"]) == 5
        assert page["next_cursor"]


class TestMaterialsResource:
    def test_create_sets_location_and_nested_classifications(
        self, empty_client
    ):
        created = empty_client.post("/materials", body={
            "title": "Prefix sums",
            "collection": "demo",
            "classifications": [{"ontology": "PDC12", "key": K.A_SCAN}],
        })
        assert created.status == 201
        mid = created.json()["id"]
        assert created.headers["location"] == \
            f"{API_V2_PREFIX}/materials/{mid}"

        nested = empty_client.get(f"/materials/{mid}/classifications").json()
        assert [i["key"] for i in nested["items"]] == [K.A_SCAN]

        added = empty_client.post(
            f"/materials/{mid}/classifications",
            body={"ontology": "CS13", "key": K.PD_PATTERNS},
        )
        assert added.status == 201
        removed = empty_client.delete(
            f"/materials/{mid}/classifications?key={K.A_SCAN}"
        )
        assert removed.ok
        left = empty_client.get(f"/materials/{mid}/classifications").json()
        assert [i["key"] for i in left["items"]] == [K.PD_PATTERNS]

    def test_unknown_material_404s(self, client):
        assert client.get("/materials/999999").status == 404


class TestJobsAndSuggestions:
    """The tentpole end to end: enqueue -> drain -> review -> analytics."""

    def test_classify_flow_updates_coverage(self, empty_api, empty_client):
        repo = empty_api.repo
        # A tiny training corpus: two classified materials.
        for title, key in (
            ("MPI ring benchmark", K.A_SCAN),
            ("MPI halo exchange", K.A_SCAN),
        ):
            cs = ClassificationSet()
            cs.add("PDC12", key)
            repo.add_material(
                Material(title=title,
                         description="message passing over ranks",
                         kind=MaterialKind.ASSIGNMENT,
                         collection="train"),
                cs,
            )
        stored = repo.add_material(
            Material(title="MPI ring benchmark again",
                     description="message passing over ranks",
                     kind=MaterialKind.ASSIGNMENT,
                     collection="inbox"),
            ClassificationSet(),
        )

        accepted = empty_client.post("/jobs/classify", body={
            "collection": "inbox", "idempotency_key": "sweep",
        })
        assert accepted.status == 202
        job_id = accepted.json()["job"]["id"]
        assert accepted.headers["location"] == \
            f"{API_V2_PREFIX}/jobs/{job_id}"
        assert accepted.headers["retry-after"] == "1"
        # Re-posting with the same idempotency key files no second job.
        again = empty_client.post("/jobs/classify", body={
            "collection": "inbox", "idempotency_key": "sweep",
        })
        assert again.json()["job"]["id"] == job_id

        polled = empty_client.get(f"/jobs/{job_id}")
        assert polled.json()["status"] == "queued"
        assert polled.headers["retry-after"] == "1"

        assert run_pending(empty_api.queue, empty_api.job_handlers) == 1
        done = empty_client.get(f"/jobs/{job_id}")
        assert done.json()["status"] == "done"
        assert "retry-after" not in done.headers
        assert done.json()["result"]["suggested"] >= 1

        pending = empty_client.get(
            f"/suggestions?status=pending&material_id={stored.id}"
        ).json()
        assert pending["items"]
        best = pending["items"][0]
        assert best["origin"] == "machine"
        assert best["confidence"] is not None

        before = empty_client.get(
            "/coverage?collection=inbox&ontology=PDC12"
        ).json()
        assert before["entries_touched"] == 0
        review = empty_client.post(f"/suggestions/{best['id']}/accept")
        assert review.json()["status"] == "approved"
        after = empty_client.get(
            "/coverage?collection=inbox&ontology=PDC12"
        ).json()
        assert after["entries_touched"] > 0

        # A second accept of the same suggestion conflicts.
        assert empty_client.post(
            f"/suggestions/{best['id']}/accept"
        ).status == 409

    def test_jobs_listing_filters_by_status(self, empty_api, empty_client):
        empty_client.post("/jobs/classify", body={})
        listing = empty_client.get("/jobs?status=queued").json()
        assert listing["items"]
        assert all(j["status"] == "queued" for j in listing["items"])
        assert empty_client.get("/jobs?status=done").json()["items"] == []

    def test_unknown_job_404s(self, empty_client):
        assert empty_client.get("/jobs/12345").status == 404

    def test_queue_saturation_answers_429(self):
        repo = Repository()
        seed_ontologies(repo)
        api = CarCsApi(repo, max_queued_jobs=1)
        client = Client(api, root=API_V2_PREFIX)
        assert client.post("/jobs/classify", body={}).status == 202
        shed = client.post("/jobs/classify", body={})
        assert shed.status == 429
        assert shed.headers["retry-after"] == "1"
        assert shed.error["code"] == 429
        counters = api.metrics.export()["counters"]
        assert counters[
            'carcs_shed_total{reason="queue-full",status="429"}'
        ]["value"] == 1

    def test_suggestion_batch_review(self, empty_api, empty_client):
        repo = empty_api.repo
        cs = ClassificationSet()
        cs.add("PDC12", K.A_SCAN)
        repo.add_material(
            Material(title="scan lab", description="prefix sums",
                     kind=MaterialKind.ASSIGNMENT, collection="train"),
            cs,
        )
        target = repo.add_material(
            Material(title="scan lab copy", description="prefix sums",
                     kind=MaterialKind.ASSIGNMENT, collection="inbox"),
            ClassificationSet(),
        )
        empty_client.post("/jobs/classify", body={
            "material_ids": [target.id],
        })
        run_pending(empty_api.queue, empty_api.job_handlers)
        ids = [
            s["id"] for s in empty_client.get(
                f"/suggestions?material_id={target.id}"
            ).json()["items"]
        ]
        assert ids
        body = {"ids": ids + [99999]}
        result = empty_client.post("/suggestions/reject", body=body).json()
        assert result["rejected"] == ids
        assert result["failed"] == [
            {"id": 99999, "error": "no suggestion with id 99999"}
        ]
        # Everything already reviewed: batch accept reports conflicts.
        redo = empty_client.post(
            "/suggestions/accept", body={"ids": ids}
        ).json()
        assert redo["accepted"] == []
        assert len(redo["failed"]) == len(ids)

    def test_batch_review_requires_int_ids(self, empty_client):
        assert empty_client.post(
            "/suggestions/accept", body={"ids": "1,2"}
        ).status == 400
