"""FIG1 — the REST surface behind the Figure 1 interactions.

Times the request/response round trips the prototype's web UI performs:
creating a material with classifications (Figure 1a), phrase-searching
the classification tree (Figure 1b), and fetching the coverage and
similarity resources that back Figures 2 and 3.
"""

from __future__ import annotations

import itertools

import pytest

from repro.corpus import keys as K
from repro.web import CarCsApi, Client


@pytest.fixture(scope="module")
def client(repo):
    return Client(CarCsApi(repo), root="/api/v2")


_counter = itertools.count()


def test_create_material_roundtrip(benchmark, client):
    def create():
        n = next(_counter)
        response = client.post("/materials", body={
            "title": f"Bench material {n}",
            "description": "parallel loops with OpenMP over arrays",
            "collection": "bench",
            "classifications": [
                {"ontology": "CS13", "key": K.SDF_ARRAYS},
                {"ontology": "PDC12", "key": K.P_OPENMP, "bloom": "apply"},
            ],
        })
        assert response.status == 201
        return response

    response = benchmark(create)
    assert len(response.json()["classifications"]) == 2


def test_tree_phrase_search(benchmark, client):
    response = benchmark(
        client.get, "/ontologies/CS13/entries?search=parallel&limit=25"
    )
    assert response.ok
    assert response.json()["total"] > 0


def test_coverage_resource(benchmark, client):
    response = benchmark(
        client.get, "/coverage?collection=itcs3145&ontology=PDC12"
    )
    assert response.json()["areas"][0]["label"] == "Programming"


def test_similarity_resource(benchmark, client):
    response = benchmark(
        client.get, "/similarity?left=nifty&right=peachy&threshold=2"
    )
    assert len(response.json()["edges"]) == 24


def test_text_search_endpoint(benchmark, client):
    response = benchmark(client.get, "/materials?q=fractal+zoom&limit=5")
    assert response.ok
    titles = [r["title"] for r in response.json()["items"]]
    assert any("Fractal" in t for t in titles)
