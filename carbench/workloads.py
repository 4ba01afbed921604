"""The four CAR-CS workloads: schedules, set-up, operations and checks.

Every workload drives one ``CarCsApi`` object in-process through
``api(Request.build(...))`` on ``/api/v2`` from a single closed-loop
client: the next request is sent only after the previous one returned.
Schedules are built from the seed before anything is timed, as shuffled
blocks of :data:`BLOCK` operations that each hold the workload's exact
mix, so every prefix of a schedule (and every seed) sees the same class
shares and every class sees the same host conditions.

Corpora are fixtures built with the generator's fixed default seed, so
every run serves the same data; ``--seed`` drives only the requests.

A response counts as a failure of its operation class when its status is
not 2xx or its payload does not match what the schedule expects; failures
never raise out of the loop and never give a latency sample.

Importing this module imports ``repro``: callers scrub ``CARCS_*`` from
the environment first (see ``run.py``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import shutil
import tempfile
import time
from collections import Counter, defaultdict, deque
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator
from urllib.parse import urlencode

import repro.jobs
from repro.core.repository import Repository
from repro.corpus.generator import (
    GeneratorConfig,
    generate_specs,
    seed_synthetic,
    synthesize_database,
)
from repro.corpus.seed import seed_all
from repro.db import Database
from repro.db.pager import env_cache_bytes
from repro.db.wal import env_sync_mode
from repro.jobs import JobQueue
from repro.ontologies import load as load_ontology
from repro.web import CarCsApi, Request

import hostspeed

API = "/api/v2"

#: Operations per shuffled schedule block; every block holds the exact mix.
BLOCK = 100

#: The block-cache budget the shipped default gives a 10^5-material
#: catalog (64 MiB); a smaller catalog gets the same budget per material.
DEFAULT_CACHE_BYTES = 64 * 1024 * 1024
REFERENCE_CATALOG = 100_000

_SEARCH_WORDS = (
    "parallel", "graph", "sort", "hash", "tree", "queue", "matrix",
    "network", "scheduler", "kernel", "pipeline", "vector", "merge",
    "monte carlo", "image", "game", "simulation", "recursion", "thread",
    "search", "cipher", "buffer", "partition", "balance",
)
#: Search texts: every word alone and in one fixed pair.
SEARCH_TEXTS = _SEARCH_WORDS + tuple(
    f"{a} {b}" for a, b in zip(_SEARCH_WORDS,
                               _SEARCH_WORDS[5:] + _SEARCH_WORDS[:5]))


def rotation(rng: random.Random, items: list) -> Iterator:
    """Cycle through ``items`` from a seeded start.

    Requests whose cost depends on their arguments (an analytics view can
    cost 100x another; a CS13 tree search 10x a PDC12 one) take them from
    a fixed rotation, so every run does the same mix of cheap and dear
    work and the seed only moves where in the cycle it starts.
    """
    start = rng.randrange(len(items))
    return itertools.cycle(items[start:] + items[:start])


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile of ``values`` (``share`` in 0..1)."""
    ordered = sorted(values)
    rank = math.ceil(share * len(ordered) - 1e-9)
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def spec_body(material, classification=None) -> dict[str, Any]:
    """The ``POST /materials`` JSON body for one generated spec."""
    body: dict[str, Any] = {
        "title": material.title,
        "description": material.description,
        "kind": material.kind.value,
        "course_level": material.course_level.value,
        "collection": material.collection,
        "year": material.year,
    }
    if classification is not None:
        body["classifications"] = [
            {"ontology": item.ontology, "key": item.key}
            for item in classification.items()
        ]
    return body


def db_state(db: Database) -> dict[int, tuple[str, frozenset[str]]]:
    """Material id -> (title, classification keys), read from the rows."""
    keys_of = {r["id"]: r["key"] for r in db.table("ontology_entries")}
    links: dict[int, set[str]] = defaultdict(set)
    for link in db.table("material_classifications"):
        links[link["materials_id"]].add(keys_of[link["ontology_entries_id"]])
    return {
        r["id"]: (r["title"], frozenset(links.get(r["id"], ())))
        for r in db.table("materials")
    }


def state_mismatches(expected: dict, actual: dict) -> int:
    """Material ids whose (title, keys) differ between two states."""
    return sum(
        1 for mid in expected.keys() | actual.keys()
        if expected.get(mid) != actual.get(mid)
    )


def whole_seconds() -> float:
    return float(int(time.time()))


class Client:
    """Times and checks every request one workload sends."""

    def __init__(self, api: CarCsApi | None) -> None:
        self.api = api
        #: (start, seconds) of each successful op, per class; the seconds
        #: leave out the host-speed sampler's handlers.
        self.samples: dict[str, list[tuple[float, float]]] = defaultdict(list)
        #: (start, seconds) of successful API requests, in the order sent.
        self.requests: list[tuple[float, float]] = []
        self.attempts: Counter[str] = Counter()
        self.failures: Counter[str] = Counter()
        #: Work units per class where one op covers several (materials
        #: per classify job).
        self.units: Counter[str] = Counter()
        self.user_bytes = 0

    def call(self, cls: str, method: str, url: str, body: Any = None,
             check: Callable[[Any], bool] | None = None) -> Any:
        """Send one request; returns its payload, or ``None`` on failure."""
        raw = None
        if body is not None:
            raw = json.dumps(body).encode("utf-8")
            self.user_bytes += len(raw)
        request = Request.build(method, API + url, raw)
        start = time.perf_counter()
        sampled = hostspeed.spent
        response = self.api(request)
        elapsed = time.perf_counter() - start - (hostspeed.spent - sampled)
        self.attempts[cls] += 1
        try:
            ok = response.ok and (check is None or bool(check(response.payload)))
        except (KeyError, TypeError, ValueError, IndexError):
            ok = False
        if not ok:
            self.failures[cls] += 1
            return None
        self.samples[cls].append((start, elapsed))
        self.requests.append((start, elapsed))
        return response.payload

    def fail(self, cls: str) -> None:
        """Count a failure found outside a single response."""
        self.attempts[cls] += 1
        self.failures[cls] += 1

    def time(self, cls: str, start: float, elapsed: float,
             units: int = 1) -> None:
        """Record an op timed outside a single request."""
        self.attempts[cls] += 1
        self.samples[cls].append((start, elapsed))
        self.units[cls] += units


def merge_clients(clients: list[Client]) -> Client:
    """One client's worth of records from several timed parts."""
    merged = Client(None)
    for client in clients:
        for cls, values in client.samples.items():
            merged.samples[cls].extend(values)
        merged.requests.extend(client.requests)
        merged.attempts.update(client.attempts)
        merged.failures.update(client.failures)
        merged.units.update(client.units)
    return merged


class Workload:
    """One traffic mix over one corpus.

    Subclasses set ``name`` and ``mix`` (class -> count per block) and
    implement ``prepare``, ``build``, ``make_op`` and ``execute``.  ``tiny`` shrinks corpora and op counts for tests.
    """

    name = ""
    mix: dict[str, int] = {}
    #: Fixed operation count of the traced run (and its untraced twin).
    trace_ops = 0
    schedule_len = 0
    #: Schedule entries per timed part; each part runs on its own fresh
    #: set-up, so every part does the same amount of work on the same
    #: starting state however fast the host runs.
    part_len = 0

    def __init__(self, seed: int, *, tiny: bool = False,
                 scratch: Path) -> None:
        self.seed = seed
        self.tiny = tiny
        self.scratch = scratch
        self.rng = random.Random(f"{self.name}:{seed}")
        self.setup_times: dict[str, float] = defaultdict(float)
        self.api: CarCsApi | None = None
        self.repo: Repository | None = None
        self.db: Database | None = None
        self.directory: Path | None = None
        self.client: Client | None = None
        self.prepare()
        self.schedule = self.build_schedule()

    # -- hooks -------------------------------------------------------------

    def prepare(self) -> None:
        """One-time inputs shared by every set-up (not timed)."""

    def build(self) -> None:
        """Create ``self.repo``/``self.db`` (inside ``phase`` blocks)."""
        raise NotImplementedError

    def make_op(self, cls: str) -> tuple:
        raise NotImplementedError

    def execute(self, op: tuple) -> int:
        """Run one scheduled op; returns how many ops it counts as."""
        raise NotImplementedError

    def provenance(self) -> dict[str, Any]:
        return {}

    # -- schedule ----------------------------------------------------------

    def build_schedule(self) -> list[tuple]:
        classes = [c for c, n in sorted(self.mix.items()) for _ in range(n)]
        assert len(classes) == BLOCK, (self.name, len(classes))
        schedule: list[tuple] = []
        while len(schedule) < self.schedule_len:
            block = list(classes)
            self.rng.shuffle(block)
            schedule.extend(self.make_op(c) for c in block)
        return schedule

    def digest(self) -> str:
        return hashlib.sha256(repr(self.schedule).encode()).hexdigest()[:16]

    # -- set-up ------------------------------------------------------------

    @contextmanager
    def phase(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.setup_times[name] += time.perf_counter() - start

    def temp_dir(self) -> Path:
        self.scratch.mkdir(parents=True, exist_ok=True)
        return Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.scratch))

    def setup(self) -> float:
        """Build a fresh system and warm it; returns the seconds taken and
        keeps the (start, end) spans they cover in ``setup_spans``."""
        self.setup_times.clear()
        self.stage()
        start = time.perf_counter()
        self.build()
        with self.phase("open"):
            self.api = CarCsApi(self.repo, **self.api_options())
        built = time.perf_counter()
        self.client = Client(self.api)
        self.after_build()
        warming = time.perf_counter()
        with self.phase("warm"):
            self.warm()
        self.setup_spans = [(start, built), (warming, time.perf_counter())]
        # Warm-up requests are not timed samples.
        self.client = Client(self.api)
        return sum(end - begin for begin, end in self.setup_spans)

    def stage(self) -> None:
        """Put one set-up's input files in place (untimed)."""

    def api_options(self) -> dict[str, Any]:
        return {}

    def after_build(self) -> None:
        """Record what checks need from the fresh system (untimed)."""

    def warm(self) -> None:
        """Run a fixed, seed-independent list of read-only ops, so lazy
        indexes and caches exist before timing and every seed's set-up
        does the same work."""
        for op in self.warm_ops():
            self.execute(op)

    def warm_ops(self) -> list[tuple]:
        return []

    def teardown(self) -> None:
        if self.db is not None:
            self.db.close()
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
        self.api = self.repo = self.db = self.directory = None
        self.client = None

    def close(self) -> None:
        """Remove what ``prepare`` left on disk."""

    # -- durability --------------------------------------------------------

    def expected_state(self) -> dict | None:
        """What the acknowledged writes say the rows are (durable only)."""
        return None

    def check_durability(self) -> int:
        """Close, reopen and compare rows to the acknowledged writes.

        Returns the number of mismatching materials (0 when consistent);
        a live/reopened disagreement counts each differing material.
        """
        expected = self.expected_state()
        if expected is None:
            return 0
        assert self.db is not None and self.directory is not None
        mismatches = state_mismatches(expected, db_state(self.db))
        self.db.close()
        reopened = Database.open(self.directory)
        try:
            mismatches += state_mismatches(expected, db_state(reopened))
        finally:
            reopened.close()
            self.db = None
        return mismatches


# ---------------------------------------------------------------- browse


class Browse(Workload):
    """Read-mostly load on a resident in-memory corpus."""

    name = "browse"
    mix = {"read": 70, "search": 15, "tree": 10, "analytics": 4, "update": 1}

    def prepare(self) -> None:
        self.n_synthetic = 200 if self.tiny else 3_000
        self.trace_ops = 400 if self.tiny else 6_000
        self.part_len = 200 if self.tiny else 3_000
        self.schedule_len = 2_000 if self.tiny else 60_000
        self.ontologies = {"PDC12": load_ontology("PDC12"),
                           "CS13": load_ontology("CS13")}
        phrases = {
            name: sorted({
                word.lower() for node in onto.nodes()
                for word in node.label.split()
                if len(word) >= 5 and word.isalpha()
            })
            for name, onto in self.ontologies.items()
        }
        pdc, cs = phrases["PDC12"], phrases["CS13"]
        self.first_phrase = {"PDC12": pdc[0], "CS13": cs[0]}
        self.trees = rotation(self.rng, [
            op for i in range(max(len(pdc), len(cs)))
            for op in (("tree", "PDC12", pdc[i % len(pdc)]),
                       ("tree", "CS13", cs[i % len(cs)]))
        ])
        facets = ("", "", "nifty", "peachy", "itcs3145")
        self.searches = rotation(self.rng, [
            ("search", text, facets[i % len(facets)])
            for i, text in enumerate(SEARCH_TEXTS)
        ])
        self.collections = ["itcs3145", "nifty", "peachy", "cs13-synthetic"]
        onto_names = ("PDC12", "CS13")
        coverage = [("coverage", c, o) for o in onto_names
                    for c in self.collections]
        gaps = [("gaps", r, c, o) for o in onto_names
                for r in self.collections for c in self.collections if r != c]
        self.analytics = rotation(self.rng, [
            op for i, gap in enumerate(gaps)
            for op in (coverage[i % len(coverage)], gap)
        ])

    def build(self) -> None:
        with self.phase("corpus"):
            self.repo = seed_all()
            seed_synthetic(self.repo, "CS13", GeneratorConfig(
                n_materials=self.n_synthetic, collection="cs13-synthetic",
            ))
        self.db = self.repo.db

    def after_build(self) -> None:
        assert self.repo is not None
        self.ids = sorted(r["id"] for r in self.db.table("materials"))
        self.sizes = {c: self.repo.material_count(c) for c in self.collections}

    def make_op(self, cls: str) -> tuple:
        rng = self.rng
        if cls == "read":
            return ("read", rng.randrange(1 << 30))
        if cls == "search":
            return next(self.searches)
        if cls == "tree":
            return next(self.trees)
        if cls == "analytics":
            return next(self.analytics)
        return ("update", rng.randrange(1 << 30), rng.randrange(1 << 20))

    def warm_ops(self) -> list[tuple]:
        return [
            *(("read", i) for i in range(10)),
            *(("search", text, "") for text in SEARCH_TEXTS[:3]),
            ("search", SEARCH_TEXTS[0], "nifty"),
            ("tree", "PDC12", self.first_phrase["PDC12"]),
            ("tree", "CS13", self.first_phrase["CS13"]),
            ("coverage", "itcs3145", "PDC12"),
            ("gaps", "itcs3145", "nifty", "PDC12"),
        ]

    def execute(self, op: tuple) -> int:
        client = self.client
        kind = op[0]
        if kind == "read":
            mid = self.ids[op[1] % len(self.ids)]
            client.call("read", "GET", f"/materials/{mid}",
                        check=lambda p: p["id"] == mid)
        elif kind == "search":
            search_request(client, op[1], op[2])
        elif kind == "tree":
            query = urlencode({"search": op[2], "limit": 50})
            client.call("tree", "GET", f"/ontologies/{op[1]}/entries?{query}",
                        check=lambda p: 1 <= p["total"] and len(p["items"]) <= 50)
        elif kind == "coverage":
            coverage_request(client, op[1], op[2], self.sizes[op[1]])
        elif kind == "gaps":
            query = urlencode({"reference": op[1], "candidate": op[2],
                               "ontology": op[3]})
            client.call("analytics", "GET", f"/gaps?{query}",
                        check=lambda p: 0.0 <= p["alignment"] <= 1.0)
        else:
            mid = self.ids[op[1] % len(self.ids)]
            title = f"Revised material {op[2]}"
            client.call("update", "PATCH", f"/materials/{mid}", {"title": title},
                        check=lambda p: p["id"] == mid and p["title"] == title)
        return 1

    def provenance(self) -> dict[str, Any]:
        return {"corpus": {"paper": 97, "cs13-synthetic": self.n_synthetic},
                "storage": "in-memory"}


def search_request(client: Client, words: str, facet: str) -> None:
    params = {"q": words, "limit": 20}
    if facet:
        params["collection"] = facet
    client.call("search", "GET", f"/search?{urlencode(params)}",
                check=lambda p: (len(p["items"]) <= 20
                                 and p["total"] >= len(p["items"])))


def coverage_request(client: Client, collection: str, ontology: str,
                     size: int) -> None:
    query = urlencode({"collection": collection, "ontology": ontology})
    client.call("analytics", "GET", f"/coverage?{query}",
                check=lambda p: p["n_materials"] == size)


# ---------------------------------------------------------------- catalog


class Catalog(Workload):
    """Read-only load on a paged corpus larger than the block cache."""

    name = "catalog"
    mix = {"hot": 64, "uniform": 16, "search": 15, "analytics": 5}

    def prepare(self) -> None:
        self.n_materials = 1_500 if self.tiny else 8_000
        self.trace_ops = 300 if self.tiny else 1_500
        self.part_len = 200 if self.tiny else 2_000
        self.schedule_len = 1_000 if self.tiny else 20_000
        self.cache_bytes = (
            DEFAULT_CACHE_BYTES * self.n_materials // REFERENCE_CATALOG
        )
        # A deployment memory budget, proportional to the corpus: the
        # rows outgrow the cache as a 10^5 catalog outgrows 64 MiB.
        os.environ["CARCS_CACHE_BYTES"] = str(self.cache_bytes)
        self.fixture = self.temp_dir()
        start = time.perf_counter()
        summary = synthesize_database(self.fixture, GeneratorConfig(
            n_materials=self.n_materials,
        ))
        self.corpus_s = time.perf_counter() - start
        self.rows_bytes = sum(
            p.stat().st_size for p in self.fixture.glob("rows-*.dat")
        )
        assert summary["materials"] == self.n_materials
        self.hot = max(1, self.n_materials // 50)
        self.searches = rotation(self.rng, [
            ("search", text, "") for text in SEARCH_TEXTS])

    def stage(self) -> None:
        # Each set-up opens its own copy cold: no earlier set-up's WAL
        # frames or cache contents leak into the next.  Copying is the
        # benchmark's work, not the program's, so it is not timed.
        self.directory = self.temp_dir()
        shutil.copytree(self.fixture, self.directory, dirs_exist_ok=True)

    def build(self) -> None:
        self.setup_times["corpus"] = self.corpus_s
        with self.phase("open"):
            self.db = Database.open(self.directory)
            self.repo = Repository(self.db)

    def make_op(self, cls: str) -> tuple:
        rng = self.rng
        if cls in ("hot", "uniform"):
            return (cls, rng.randrange(1 << 30))
        if cls == "search":
            return next(self.searches)
        return ("coverage",)

    def warm_ops(self) -> list[tuple]:
        return [
            *(("hot", i) for i in range(5)),
            *(("uniform", i * 997) for i in range(5)),
            *(("search", text, "") for text in SEARCH_TEXTS[:3]),
            ("coverage",),
        ]

    def execute(self, op: tuple) -> int:
        kind = op[0]
        if kind in ("hot", "uniform"):
            n = self.n_materials
            mid = n - op[1] % self.hot if kind == "hot" else 1 + op[1] % n
            self.client.call("read", "GET", f"/materials/{mid}",
                             check=lambda p: p["id"] == mid)
        elif kind == "search":
            search_request(self.client, op[1], op[2])
        else:
            coverage_request(self.client, "synthetic", "CS13",
                             self.n_materials)
        return 1

    def close(self) -> None:
        shutil.rmtree(self.fixture, ignore_errors=True)
        os.environ.pop("CARCS_CACHE_BYTES", None)

    def provenance(self) -> dict[str, Any]:
        return {"corpus": {"synthetic": self.n_materials},
                "rows_bytes": self.rows_bytes,
                "storage": "paged format-2 checkpoint, opened cold"}


# ---------------------------------------------------------------- ingest


class Ingest(Workload):
    """Write-heavy load on a durable database."""

    name = "ingest"
    mix = {"post": 60, "update": 15, "recent": 13, "uniform": 12}

    def prepare(self) -> None:
        self.trace_ops = 500 if self.tiny else 9_600
        self.part_len = 200 if self.tiny else 3_000
        self.schedule_len = 1_000 if self.tiny else 30_000
        # Tiny runs shrink the compaction threshold with the op count so
        # checkpoints still happen; full runs use the shipped default.
        self.compact_bytes = 128 * 1024 if self.tiny else None
        n_specs = 300 if self.tiny else 6_000
        self.specs = generate_specs(load_ontology("CS13"), GeneratorConfig(
            n_materials=n_specs, collection="ingest",
        ))

    def build(self) -> None:
        self.directory = self.temp_dir()
        with self.phase("open"):
            self.db = Database.open(self.directory,
                                    compact_bytes=self.compact_bytes)
            self.repo = Repository(self.db)
        with self.phase("corpus"):
            seed_all(self.repo)

    def after_build(self) -> None:
        self.model = db_state(self.db)
        self.ids = sorted(self.model)
        self.recent: deque[tuple[int, int]] = deque()
        self.op_no = 0

    def warm(self) -> None:
        for mid in self.ids[:BLOCK]:
            self.client.call("read", "GET", f"/materials/{mid}")

    def make_op(self, cls: str) -> tuple:
        rng = self.rng
        if cls == "post":
            return ("post", rng.randrange(len(self.specs)))
        if cls == "update":
            return ("update", rng.randrange(1 << 30), rng.randrange(1 << 20))
        return (cls, rng.randrange(1 << 30))

    def _remember(self, mid: int) -> None:
        self.recent.append((self.op_no, mid))

    def execute(self, op: tuple) -> int:
        self.op_no += 1
        while self.recent and self.recent[0][0] <= self.op_no - 50:
            self.recent.popleft()
        kind = op[0]
        client = self.client
        if kind == "post":
            material, cs = self.specs[op[1]]
            keys = frozenset(item.key for item in cs.items())
            payload = client.call(
                "ingest", "POST", "/materials", spec_body(material, cs),
                check=lambda p: (p["title"] == material.title and keys == {
                    c["key"] for c in p["classifications"]}),
            )
            if payload is not None:
                self.model[payload["id"]] = (material.title, keys)
                self.ids.append(payload["id"])
                self._remember(payload["id"])
        elif kind == "update":
            mid = self.ids[op[1] % len(self.ids)]
            title = f"Revised material {op[2]}"
            payload = client.call(
                "update", "PATCH", f"/materials/{mid}", {"title": title},
                check=lambda p: p["id"] == mid and p["title"] == title,
            )
            if payload is not None:
                self.model[mid] = (title, self.model[mid][1])
                self._remember(mid)
        else:
            if kind == "recent" and self.recent:
                mid = self.recent[op[1] % len(self.recent)][1]
            else:
                mid = self.ids[op[1] % len(self.ids)]
            title, keys = self.model[mid]
            client.call("read", "GET", f"/materials/{mid}",
                        check=lambda p: p["id"] == mid and p["title"] == title
                        and keys == {c["key"] for c in p["classifications"]})
        return 1

    def expected_state(self) -> dict:
        return self.model

    def provenance(self) -> dict[str, Any]:
        return {"corpus": {"paper": 97, "ingest_specs": len(self.specs)},
                "compact_bytes": self.compact_bytes or "default",
                "storage": "durable WAL + inline checkpoint"}


# ---------------------------------------------------------------- curate


#: The submitted materials' fixed generator seed: not the training
#: corpus's default seed, so every submission is new to the model.
INBOX_SEED = 1


class Curate(Workload):
    """The paper's curation loop: submit, classify, review, read back."""

    name = "curate"
    mix = {"round": BLOCK}
    batch = 10

    def prepare(self) -> None:
        self.n_train = 60 if self.tiny else 400
        self.trace_ops = 2 if self.tiny else 8
        self.part_len = 2 if self.tiny else 5
        n_specs = self.batch * (20 if self.tiny else 100)
        self.specs = generate_specs(load_ontology("CS13"), GeneratorConfig(
            n_materials=n_specs, collection="inbox", seed=INBOX_SEED,
        ))

    def build(self) -> None:
        self.directory = self.temp_dir()
        with self.phase("open"):
            self.db = Database.open(self.directory)
            self.repo = Repository(self.db)
        with self.phase("corpus"):
            seed_all(self.repo)
            seed_synthetic(self.repo, "CS13", GeneratorConfig(
                n_materials=self.n_train, collection="train",
            ))

    def api_options(self) -> dict[str, Any]:
        # Job rows store clock readings; a whole-second clock keeps their
        # encoded width, and so the WAL byte count, equal between runs.
        # Leases (30 s) and backoff (0.5 s and up) are unaffected at this
        # resolution because every job finishes within its round.
        return {"queue": JobQueue(self.db, clock=whole_seconds,
                                  max_queued=1_000)}

    def after_build(self) -> None:
        self.model = db_state(self.db)

    def warm(self) -> None:
        self.execute(("round", 0))

    def build_schedule(self) -> list[tuple]:
        # Batches differ in how many suggestions, and so review requests,
        # they bring.  Each timed part takes the next ``part_len``
        # batches in a seeded order, so part k reviews the same batches
        # under every seed, as other workloads' blocks hold the exact mix.
        n_batches = len(self.specs) // self.batch
        schedule: list[tuple] = []
        for first in range(0, n_batches, self.part_len):
            block = list(range(first, min(first + self.part_len, n_batches)))
            self.rng.shuffle(block)
            schedule.extend(("round", batch) for batch in block)
        return schedule

    def execute(self, op: tuple) -> int:
        client = self.client
        start = op[1] * self.batch
        ops = 0
        # 1. Submit unclassified materials.
        ids = []
        for material, _ in self.specs[start:start + self.batch]:
            payload = client.call(
                "submit", "POST", "/materials", spec_body(material),
                check=lambda p: p["title"] == material.title
                and not p["classifications"],
            )
            ops += 1
            if payload is not None:
                ids.append(payload["id"])
                self.model[payload["id"]] = (material.title, frozenset())
        # 2. Classify them: enqueue, drain inline, check the result.
        t0 = time.perf_counter()
        sampled = hostspeed.spent
        job = client.call("enqueue", "POST", "/jobs/classify",
                          {"material_ids": ids},
                          check=lambda p: p["targets"] == len(ids))
        ran = repro.jobs.run_pending(self.api.queue, self.api.job_handlers)
        elapsed = time.perf_counter() - t0 - (hostspeed.spent - sampled)
        ops += 1
        if job is None or ran != 1:
            client.fail("job")
        else:
            done = client.call(
                "job_status", "GET", f"/jobs/{job['job']['id']}",
                check=lambda p: p["status"] == "done"
                and p["result"]["materials"] == len(ids),
            )
            if done is None:
                client.fail("job")
            else:
                client.time("job", t0, elapsed, units=len(ids))
        # 3. Review: accept each material's top suggestion, reject the rest.
        accepted: dict[int, str] = {}
        for mid in ids:
            query = urlencode({"material_id": mid, "status": "pending"})
            page = client.call("suggestions", "GET", f"/suggestions?{query}",
                               check=lambda p: all(
                                   s["material_id"] == mid for s in p["items"]))
            ops += 1
            if page is None:
                continue
            for rank, suggestion in enumerate(page["items"]):
                sid = suggestion["id"]
                verb = "accept" if rank == 0 else "reject"
                status = "approved" if rank == 0 else "rejected"
                result = client.call(
                    "review", "POST", f"/suggestions/{sid}/{verb}", {},
                    check=lambda p: p["id"] == sid and p["status"] == status,
                )
                ops += 1
                if result is not None and rank == 0:
                    accepted[mid] = suggestion["key"]
                    title, keys = self.model[mid]
                    self.model[mid] = (title, keys | {suggestion["key"]})
        # 4. Read the classifications back.
        for mid in ids:
            want = self.model[mid][1]
            client.call("classifications", "GET",
                        f"/materials/{mid}/classifications",
                        check=lambda p: {c["key"] for c in p["items"]} == want)
            ops += 1
        return ops

    def expected_state(self) -> dict:
        return self.model

    def provenance(self) -> dict[str, Any]:
        return {"corpus": {"paper": 97, "train": self.n_train,
                           "inbox_specs": len(self.specs)},
                "materials_per_round": self.batch,
                "jobs_clock": "whole seconds",
                "storage": "durable WAL + inline checkpoint"}


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Browse, Catalog, Ingest, Curate)
}


def storage_provenance() -> dict[str, Any]:
    """Flush policy and cache budget as the program resolves them."""
    return {"wal_sync": env_sync_mode(), "block_cache_bytes": env_cache_bytes()}
