"""Concurrent smoke test: mixed readers and writers over real HTTP.

The acceptance bar for the threaded pipeline: hammer a live
:class:`ThreadingHTTPServer` with interleaved mutations and analytics
reads, then prove every analytics payload served under contention is
byte-equal to a single-threaded recomputation on the final state.
"""

import json
import threading
import urllib.request

from repro.core.material import Material
from repro.corpus.seed import seed_all
from repro.web import CarCsApi, Client
from repro.web.server import ApiServer

WORKERS = 6
ROUNDS = 8

COVERAGE = "/api/v2/coverage?collection=itcs3145&ontology=PDC12"
SIMILARITY = "/api/v2/similarity?left=nifty&right=peachy"


def fetch(url: str) -> tuple[int, bytes]:
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.read()


def post(url: str, payload: dict) -> tuple[int, bytes]:
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), method="POST",
        headers={"content-type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, response.read()


def delete(url: str) -> int:
    request = urllib.request.Request(url, method="DELETE")
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status


class TestConcurrentSmoke:
    def test_mixed_readers_and_writers(self):
        repo = seed_all()
        api = CarCsApi(repo)
        failures = []
        coverage_bodies = []
        similarity_bodies = []
        sink_lock = threading.Lock()

        with ApiServer(api, port=0, threaded=True) as srv:
            def writer(worker: int):
                # Mutations confined to a scratch collection so the
                # analytics queries above never see them.
                for i in range(ROUNDS):
                    status, body = post(f"{srv.url}/api/v2/materials", {
                        "title": f"smoke {worker}-{i}",
                        "collection": "smoke",
                    })
                    if status != 201:
                        failures.append(("post", status))
                        return
                    mid = json.loads(body)["id"]
                    if delete(f"{srv.url}/api/v2/materials/{mid}") != 200:
                        failures.append(("delete", mid))

            def reader(worker: int):
                for i in range(ROUNDS):
                    path = COVERAGE if (worker + i) % 2 else SIMILARITY
                    status, body = fetch(srv.url + path)
                    if status != 200:
                        failures.append((path, status))
                        return
                    with sink_lock:
                        (coverage_bodies if path == COVERAGE
                         else similarity_bodies).append(body)

            threads = (
                [threading.Thread(target=writer, args=(w,))
                 for w in range(WORKERS // 2)]
                + [threading.Thread(target=reader, args=(w,))
                   for w in range(WORKERS)]
            )
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not any(t.is_alive() for t in threads), "worker hung"
            assert failures == []
            assert coverage_bodies and similarity_bodies

            # Every payload served under contention must be byte-equal
            # to a fresh single-threaded recomputation on the settled
            # repository (same server, now quiescent, cold cache).
            repo.cache.clear()
            _, expected_coverage = fetch(srv.url + COVERAGE)
            repo.cache.clear()
            _, expected_similarity = fetch(srv.url + SIMILARITY)
            assert set(coverage_bodies) == {expected_coverage}
            assert set(similarity_bodies) == {expected_similarity}

        # The scratch mutations all round-tripped: no smoke residue.
        quiet = Client(api, root="/api/v2")
        leftovers = quiet.get("/materials?collection=smoke").json()
        assert leftovers["total"] == 0

    def test_get_path_never_acquires_the_read_lock(self, seeded_repo):
        """The MVCC contract: GETs pin a snapshot and take **no lock**.
        Any ``RWLock.acquire_read`` on the read path is a regression."""
        api = CarCsApi(seeded_repo)
        client = Client(api, root="/api/v2")
        lock = seeded_repo.db.lock
        acquires = []
        original = lock.acquire_read

        def counting_acquire():
            acquires.append(1)
            original()

        lock.acquire_read = counting_acquire
        try:
            for path in (
                "/healthz",
                "/stats",
                "/metrics",
                "/materials",
                "/materials/1",
                "/search?q=monte+carlo",
                "/coverage?collection=itcs3145&ontology=PDC12",
                "/similarity?left=nifty&right=peachy",
                "/ontologies",
                "/recommendations-not-a-route",   # 404 path included
            ):
                response = client.get(path)
                assert response.status in (200, 404)
        finally:
            del lock.acquire_read
        assert acquires == [], "GET dispatch acquired the read lock"

    def test_reads_see_one_snapshot_while_bulk_commit_lands(self, bare_repo):
        """Readers racing a bulk-seed transaction must serve a payload
        byte-equal to the state before the commit or after it — never a
        partially applied mix."""
        repo = bare_repo
        api = CarCsApi(repo)
        client = Client(api, root="/api/v2")
        listing = "/materials?collection=bulk&limit=500"

        first = client.get(listing)
        before = first.text()
        assert first.json()["total"] == 0

        start = threading.Event()
        bodies: list[str] = []
        statuses: list[int] = []
        sink = threading.Lock()

        def reader(worker: int):
            start.wait(10)
            for _ in range(40):
                response = client.get(listing)
                with sink:
                    statuses.append(response.status)
                    bodies.append(response.text())

        def bulk_writer():
            start.wait(10)
            # One transaction, many rows: commits as a single frame, so
            # its snapshot publish is a single atomic pointer swap.
            with repo.db.transaction():
                for i in range(150):
                    repo.add_material(Material(
                        title=f"bulk {i:03d}",
                        description="seeded mid-read",
                        collection="bulk",
                    ))

        threads = [threading.Thread(target=reader, args=(w,))
                   for w in range(4)] + [threading.Thread(target=bulk_writer)]
        for t in threads:
            t.start()
        start.set()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads), "worker hung"
        assert set(statuses) == {200}

        final = client.get(listing)
        after = final.text()
        assert final.json()["total"] == 150
        stray = [b for b in bodies if b not in (before, after)]
        assert stray == [], (
            f"{len(stray)} response(s) mixed pre- and post-commit state"
        )

    def test_concurrent_in_process_mutations_keep_invariants(self):
        """Belt-and-braces at the Repository layer (no HTTP): concurrent
        add/delete cycles in one collection leave counts intact."""
        repo = seed_all()
        before = repo.material_count()
        errors = []

        def churn(worker: int):
            try:
                for i in range(ROUNDS):
                    m = repo.add_material(Material(
                        title=f"churn {worker}-{i}",
                        description="scratch",
                        collection="churn",
                    ))
                    repo.delete_material(m.id)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=churn, args=(w,)) for w in range(WORKERS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert errors == []
        assert repo.material_count() == before
