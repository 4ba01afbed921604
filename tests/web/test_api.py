"""The CAR-CS REST API end to end (Figure 1 flows + figure resources)."""

import base64

import pytest

from repro.core.repository import Repository
from repro.corpus import keys as K
from repro.corpus.seed import seed_all, seed_ontologies
from repro.web import CarCsApi, Client


@pytest.fixture(scope="module")
def client():
    """A seeded, module-scoped API client on the /api/v2 surface.

    Mutating tests create their own materials and clean up via DELETE.
    """
    return Client(CarCsApi(seed_all()), root="/api/v2")


@pytest.fixture()
def empty_client():
    repo = Repository()
    seed_ontologies(repo)
    return Client(CarCsApi(repo), root="/api/v2")


class TestAssignmentCrud:
    def test_create_read_update_delete(self, empty_client):
        created = empty_client.post("/materials", body={
            "title": "Prefix sums",
            "description": "Implement an inclusive scan",
            "collection": "demo",
            "languages": ["C"],
            "classifications": [
                {"ontology": "PDC12", "key": K.A_SCAN},
                {"ontology": "CS13", "key": K.PD_PATTERNS, "bloom": "usage"},
            ],
        })
        assert created.status == 201
        mid = created.json()["id"]
        assert len(created.json()["classifications"]) == 2

        fetched = empty_client.get(f"/materials/{mid}")
        assert fetched.json()["title"] == "Prefix sums"
        blooms = {
            c["key"]: c["bloom"] for c in fetched.json()["classifications"]
        }
        assert blooms[K.PD_PATTERNS] == "usage"

        updated = empty_client.patch(
            f"/materials/{mid}", body={"title": "Scan lab"}
        )
        assert updated.json()["title"] == "Scan lab"

        deleted = empty_client.delete(f"/materials/{mid}")
        assert deleted.ok
        assert empty_client.get(f"/materials/{mid}").status == 404

    def test_create_requires_title(self, empty_client):
        assert empty_client.post("/materials", body={}).status == 400

    def test_create_rejects_bad_classification(self, empty_client):
        r = empty_client.post("/materials", body={
            "title": "X",
            "classifications": [{"ontology": "CS13", "key": "CS13/NOPE"}],
        })
        assert r.status == 400

    def test_create_rejects_bad_bloom(self, empty_client):
        r = empty_client.post("/materials", body={
            "title": "X",
            "classifications": [
                {"ontology": "CS13", "key": K.SDF_ARRAYS, "bloom": "wizard"}
            ],
        })
        assert r.status == 400

    def test_patch_rejects_unknown_fields(self, empty_client):
        created = empty_client.post("/materials", body={"title": "Y"})
        mid = created.json()["id"]
        r = empty_client.patch(f"/materials/{mid}", body={"kind": "exam"})
        assert r.status == 400

    def test_get_missing_material(self, empty_client):
        assert empty_client.get("/materials/999").status == 404


class TestClassificationEditing:
    def test_add_and_remove_classification(self, empty_client):
        mid = empty_client.post(
            "/materials", body={"title": "Z"}
        ).json()["id"]
        added = empty_client.post(
            f"/materials/{mid}/classifications",
            body={"ontology": "CS13", "key": K.SDF_ARRAYS},
        )
        assert added.status == 201
        assert added.json()["classifications"][0]["key"] == K.SDF_ARRAYS

        removed = empty_client.delete(
            f"/materials/{mid}/classifications?key={K.SDF_ARRAYS}"
        )
        assert removed.ok
        again = empty_client.delete(
            f"/materials/{mid}/classifications?key={K.SDF_ARRAYS}"
        )
        assert again.status == 404

    def test_add_unknown_key_rejected(self, empty_client):
        mid = empty_client.post(
            "/materials", body={"title": "W"}
        ).json()["id"]
        r = empty_client.post(
            f"/materials/{mid}/classifications",
            body={"ontology": "CS13", "key": "CS13/FAKE"},
        )
        assert r.status == 400


class TestListingAndSearch:
    def test_list_by_collection(self, client):
        r = client.get("/materials?collection=peachy")
        assert r.json()["total"] == 11
        assert len(r.json()["items"]) == 11

    def test_text_search_ranks(self, client):
        r = client.get("/materials?q=hurricane+storm+track")
        titles = [x["title"] for x in r.json()["items"]]
        assert "Hurricane Tracker" in titles[:3]

    def test_filter_under_subtree(self, client):
        r = client.get("/materials?under=PDC12/PROG&collection=nifty")
        assert r.json()["total"] == 0
        r = client.get("/materials?under=PDC12/PROG&collection=peachy")
        assert r.json()["total"] == 11

    def test_facet_query_language_in_q(self, client):
        r = client.get("/materials?q=collection:peachy+fire")
        titles = [x["title"] for x in r.json()["items"]]
        assert titles and all("Fire" in t for t in titles[:1])

    def test_bad_facet_yields_400(self, client):
        r = client.get("/materials?q=nonsense:value")
        assert r.status == 400
        assert "unknown facet" in r.json()["error"]["message"]

    def test_year_facet(self, client):
        r = client.get("/materials?q=year:2003..2004+collection:nifty")
        assert 0 < r.json()["total"] <= 5

    def test_pagination_windows_and_counts(self, client):
        full = client.get("/materials?collection=nifty").json()
        assert full["total"] == 65
        first = client.get("/materials?collection=nifty&limit=20").json()
        page = client.get(
            f"/materials?collection=nifty&limit=10"
            f"&cursor={first['next_cursor']}"
        ).json()
        assert page["total"] == 65
        assert page["limit"] == 10 and page["next_cursor"] is not None
        assert page["items"] == full["items"][20:30]

    def test_pagination_rejects_negative_params(self, client):
        assert client.get("/materials?limit=-1").status == 400
        negative = base64.urlsafe_b64encode(b'{"o": -5}').decode("ascii")
        assert client.get(f"/materials?cursor={negative}").status == 400


class TestOntologyResources:
    def test_list_ontologies(self, client):
        r = client.get("/ontologies")
        names = {o["name"] for o in r.json()["items"]}
        assert names == {"CS13", "PDC12"}
        cs13 = next(o for o in r.json()["items"] if o["name"] == "CS13")
        assert cs13["entries"] > 2700

    def test_entry_search_highlights_phrase(self, client):
        r = client.get("/ontologies/CS13/entries?search=critical+path")
        labels = [e["label"] for e in r.json()["items"]]
        assert any("Critical path" in l for l in labels)

    def test_entry_browse_paginates(self, client):
        first = client.get("/ontologies/PDC12/entries?limit=5").json()
        assert first["limit"] == 5 and len(first["items"]) == 5
        second = client.get(
            f"/ontologies/PDC12/entries?limit=5&cursor={first['next_cursor']}"
        ).json()
        assert second["items"] != first["items"]
        assert second["total"] == first["total"] > 10

    def test_entry_search_unknown_ontology(self, client):
        assert client.get("/ontologies/NOPE/entries").status == 404


class TestFigureResources:
    def test_coverage_resource_matches_figure2(self, client):
        r = client.get("/coverage?collection=itcs3145&ontology=PDC12")
        body = r.json()
        assert body["n_materials"] == 21
        assert body["areas"][0]["label"] == "Programming"

    def test_coverage_requires_params(self, client):
        assert client.get("/coverage?collection=nifty").status == 400

    def test_coverage_unknown_collection(self, client):
        r = client.get("/coverage?collection=ghost&ontology=CS13")
        assert r.status == 404

    def test_similarity_resource_matches_figure3(self, client):
        r = client.get("/similarity?left=nifty&right=peachy&threshold=2")
        body = r.json()
        assert len(body["edges"]) == 24
        assert len(body["nodes"]) == 76
        connected = [n for n in body["nodes"] if n["degree"] > 0]
        assert len(connected) == 10

    def test_gaps_resource(self, client):
        r = client.get("/gaps?reference=nifty&candidate=peachy&ontology=CS13")
        body = r.json()
        assert 0.0 <= body["alignment"] <= 1.0
        assert body["missing_in_candidate"]

    def test_recommend_resource(self, client):
        r = client.post("/recommendations", body={
            "text": "parallelize a monte carlo simulation with OpenMP",
            "selected": [K.SDF_ARRAYS],
        })
        assert r.ok
        assert r.json()["suggestions"]

    def test_recommend_requires_input(self, client):
        assert client.post("/recommendations", body={}).status == 400

    def test_stats(self, client):
        r = client.get("/stats")
        assert r.json()["materials"] >= 97

    def test_variants_resource(self, client):
        # material 1 is Hurricane Tracker (cluster member)
        r = client.get("/materials/1/variants?min_overlap=2")
        body = r.json()
        assert body["material"] == "Hurricane Tracker"
        assert body["variants"]
        assert all(v["overlap"] >= 2 for v in body["variants"])

    def test_lint_resource(self, client):
        # the sequential integrator is the corpus's one lint finding
        integrator = client.get(
            "/materials?q=rectangle+method+collection:itcs3145"
        ).json()["items"][0]
        r = client.get(f"/materials/{integrator['id']}/lint")
        assert r.json()["findings"][0]["rule"] == "cross-ontology"

    def test_plan_resource(self, client):
        r = client.get("/plan?ontology=PDC12&max_materials=4")
        body = r.json()
        assert len(body["picks"]) == 4
        assert 0.0 < body["coverage_ratio"] < 1.0

    def test_plan_unknown_ontology(self, client):
        assert client.get("/plan?ontology=NOPE").status == 404
