#!/usr/bin/env python3
"""Use case IV-A: entering and classifying a new pedagogical material.

Walks the Figure 1 workflow against the REST API: create the material
with its basic metadata (Figure 1a), search the classification tree for
relevant entries (the Figure 1b phrase search), attach classifications,
and read the finished record back — then shows the recommender proposing
the remaining entries, the paper's envisioned time-saver.

Run:  python examples/enter_material.py
"""

from repro import seeded_repository
from repro.web import CarCsApi, Client


def main() -> None:
    repo = seeded_repository()
    client = Client(CarCsApi(repo), root="/api/v2")

    print("Step 1 — create the material (Figure 1a metadata form)")
    created = client.post("/materials", body={
        "title": "Parallel Wave Equation",
        "description": (
            "Propagate a 1D wave with a finite-difference stencil, then "
            "parallelize the time-step loop with OpenMP and study speedup."
        ),
        "kind": "assignment",
        "course_level": "intermediate",
        "languages": ["C", "OpenMP"],
        "collection": "new",
        "year": 2019,
    })
    material = created.json()
    print(f"  created material id={material['id']}: {material['title']}")

    print("\nStep 2 — search the ontology trees (Figure 1b phrase search)")
    for phrase in ("stencil", "parallel loops", "speedup"):
        for onto in ("CS13", "PDC12"):
            hits = client.get(
                f"/ontologies/{onto}/entries?search={phrase}&limit=2"
            ).json()["items"]
            for hit in hits:
                print(f"  [{phrase!r:17s} in {onto}] {hit['path']}")

    print("\nStep 3 — attach the chosen classifications")
    from repro.ontologies.cs2013 import topic_key
    from repro.ontologies.pdc12 import key_of

    chosen = [
        ("CS13", topic_key(
            "PD", "Parallel Algorithms, Analysis, and Programming",
            "Parallel loops and iteration spaces")),
        ("PDC12", key_of(
            "ALGO", "Algorithmic Paradigms", "Stencil-based iteration")),
        ("PDC12", key_of(
            "PROG", "Parallel programming paradigms and notations",
            "Programming notations: compiler directives and pragmas "
            "(e.g., OpenMP)")),
    ]
    for onto, key in chosen:
        response = client.post(
            f"/materials/{material['id']}/classifications",
            body={"ontology": onto, "key": key, "bloom": "apply" if onto == "PDC12" else None},
        )
        assert response.ok, response.text()
        print(f"  + {key}")

    print("\nStep 4 — let the system suggest what else commonly co-occurs")
    suggestions = client.post("/recommendations", body={
        "text": material["description"],
        "selected": [key for _, key in chosen],
        "top": 6,
    }).json()["suggestions"]
    for s in suggestions:
        print(f"  suggested ({s['score']:.2f}): {s['key']}")

    print("\nStep 5 — the finished record")
    final = client.get(f"/materials/{material['id']}").json()
    print(f"  {final['title']} — {len(final['classifications'])} classifications")
    for c in final["classifications"]:
        print(f"    {c['ontology']:6s} {c['key']}"
              + (f"  @{c['bloom']}" if c["bloom"] else ""))


if __name__ == "__main__":
    main()
