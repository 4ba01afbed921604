"""Per-layer spans for the traced run.

For the traced run only, :func:`install` replaces each public call named
in :data:`BOUNDARIES` with a timing wrapper and :func:`uninstall` puts the
originals back.  Wrappers record one span per call (layer, start, end,
parent) into flat arrays kept in memory; a layer's self time is its span's
duration minus the durations of its direct child spans.

The request root is ``CarCsApi.__call__`` (layer ``web.request``, whose
self time is the middleware chain) and the job root is ``run_pending`` as
the benchmark calls it (``jobs.run``).  Every nested layer has a
name, so the only time no named layer claims is the job root's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from pathlib import Path
from typing import Any, Callable

#: (layer, module, owner class or ``None`` for a module function, attribute).
#: ``Router.dispatch`` is captured by the middleware pipeline when the API
#: object is built, so wrappers must be installed before the set-up that
#: builds it.  ``json_response`` is imported by name into the handler
#: modules, so each importing module is patched.
BOUNDARIES: tuple[tuple[str, str, str | None, str], ...] = (
    ("web.request", "repro.web.api", "CarCsApi", "__call__"),
    ("web.dispatch", "repro.web.router", "Router", "dispatch"),
    ("web.encode", "repro.web.http", None, "json_response"),
    ("web.encode", "repro.web.api", None, "json_response"),
    ("web.encode", "repro.web.v2", None, "json_response"),
    ("core.get_material", "repro.core.repository", "Repository", "get_material"),
    ("core.classification_of", "repro.core.repository", "Repository",
     "classification_of"),
    ("core.search", "repro.core.search", "SearchEngine", "search"),
    ("core.search_refresh", "repro.core.search", "SearchEngine", "refresh"),
    ("core.tree_search", "repro.core.ontology", "Ontology", "search"),
    ("core.coverage", "repro.core.repository", "Repository", "coverage"),
    ("core.add_material", "repro.core.repository", "Repository", "add_material"),
    ("core.update_material", "repro.core.repository", "Repository",
     "update_material"),
    ("core.review", "repro.core.repository", "Repository", "accept_suggestion"),
    ("core.review", "repro.core.repository", "Repository", "reject_suggestion"),
    ("db.find", "repro.db.snapshot", "TableSnapshot", "find"),
    ("db.find", "repro.db.table", "Table", "find"),
    ("db.query", "repro.db.query", "Query", "all"),
    ("db.query", "repro.db.query", "Query", "count"),
    ("db.read_block", "repro.db.pager", "BlockStore", "read_block"),
    ("db.wal_append", "repro.db.wal", "WalWriter", "append"),
    ("db.checkpoint", "repro.db.engine", "Database", "checkpoint"),
    ("jobs.fit", "repro.text.vectorize", "TfidfVectorizer", "fit_transform"),
    ("jobs.fit", "repro.text.naive_bayes", "NaiveBayesClassifier", "fit"),
    ("jobs.fit", "repro.text.knn", "KnnClassifier", "fit"),
    ("jobs.suggest", "repro.jobs.classify", "ClassificationService",
     "suggest_for"),
    ("jobs.queue", "repro.jobs.queue", "JobQueue", "enqueue"),
    ("jobs.queue", "repro.jobs.queue", "JobQueue", "lease"),
    ("jobs.queue", "repro.jobs.queue", "JobQueue", "complete"),
    ("jobs.machine_suggest", "repro.core.repository", "Repository",
     "machine_suggest"),
    ("jobs.run", "repro.jobs", None, "run_pending"),
)

JOB_ROOT = "jobs.run"

#: Per-layer metrics: (name, unit, better).  ``_us``/``_ms`` values are
#: mean self time per call; ``_calls`` are exact call counts.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("web.middleware_self_us", "us", "lower"),
    ("web.dispatch_self_us", "us", "lower"),
    ("web.encode_us", "us", "lower"),
    ("web.encode_calls", "count", "lower"),
    ("core.get_material_us", "us", "lower"),
    ("core.get_material_calls", "count", "lower"),
    ("core.classification_of_us", "us", "lower"),
    ("core.classification_of_calls", "count", "lower"),
    ("core.search_us", "us", "lower"),
    ("core.search_calls", "count", "lower"),
    ("core.search_refresh_us", "us", "lower"),
    ("core.search_refresh_calls", "count", "lower"),
    ("core.tree_search_us", "us", "lower"),
    ("core.coverage_us", "us", "lower"),
    ("core.coverage_calls", "count", "lower"),
    ("core.cache_hits", "count", "higher"),
    ("core.cache_misses", "count", "lower"),
    ("core.cache_hit_ratio", "ratio", "higher"),
    ("core.add_material_us", "us", "lower"),
    ("core.update_material_us", "us", "lower"),
    ("core.review_us", "us", "lower"),
    ("db.find_us", "us", "lower"),
    ("db.find_calls", "count", "lower"),
    ("db.find_calls_per_req", "count/req", "lower"),
    ("db.query_us", "us", "lower"),
    ("db.query_calls", "count", "lower"),
    ("db.read_block_us", "us", "lower"),
    ("db.read_block_calls", "count", "lower"),
    ("db.page_ins", "count", "lower"),
    ("db.block_cache_hit_ratio", "ratio", "higher"),
    ("db.block_cache_evictions", "count", "lower"),
    ("db.wal_append_us", "us", "lower"),
    ("db.wal_append_calls", "count", "lower"),
    ("db.fsyncs", "count", "lower"),
    ("db.wal_bytes_per_user_byte", "ratio", "lower"),
    ("db.checkpoints", "count", "lower"),
    ("db.checkpoint_ms", "ms", "lower"),
    ("jobs.model_fits", "count", "lower"),
    ("jobs.fit_ms", "ms", "lower"),
    ("jobs.suggest_ms", "ms", "lower"),
    ("jobs.suggest_calls", "count", "lower"),
    ("jobs.queue_us", "us", "lower"),
    ("jobs.queue_calls", "count", "lower"),
    ("jobs.machine_suggest_us", "us", "lower"),
    ("jobs.machine_suggest_calls", "count", "lower"),
    ("process.peak_rss_mb", "MB", "lower"),
    ("setup.corpus_s", "s", "lower"),
    ("setup.open_s", "s", "lower"),
    ("setup.warm_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
    ("trace.unclaimed_share", "ratio", "lower"),
)


class SpanRecorder:
    """Spans in flat arrays: layer index, start, end, parent, child time."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._index: dict[str, int] = {}
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.child = array("d")
        self._stack: list[int] = []
        self.active = False

    def _layer_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.layers)
            self.layers.append(name)
        return self._index[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        layer_id = self._layer_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.layer)
            self.layer.append(layer_id)
            self.parent.append(stack[-1] if stack else -1)
            self.child.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            start = time.perf_counter()
            self.start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.end[idx] = end
                parent = self.parent[idx]
                if parent >= 0:
                    self.child[parent] += end - start

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, summed self seconds, distinct parent spans.

        The ``""`` entry sums the duration of root spans (no parent)."""
        out: dict[str, dict[str, Any]] = {
            name: {"calls": 0, "self_s": 0.0, "parents": set()}
            for name in [*self.layers, ""]
        }
        names = self.layers
        for i in range(len(self.layer)):
            row = out[names[self.layer[i]]]
            duration = self.end[i] - self.start[i]
            row["calls"] += 1
            row["self_s"] += duration - self.child[i]
            row["parents"].add(self.parent[i])
            if self.parent[i] < 0:
                out[""]["self_s"] += duration
        return out

    def write(self, path: Path, meta: dict[str, Any]) -> None:
        """One JSON header line, then one ``[layer, start, end, parent]``
        line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"layers": self.layers, **meta}) + "\n")
            for i in range(len(self.layer)):
                fh.write(
                    f"[{self.layer[i]},{self.start[i]:.7f},"
                    f"{self.end[i]:.7f},{self.parent[i]}]\n"
                )


def layer_metrics(totals: dict[str, dict[str, Any]],
                  counts: dict[str, int], setup: dict[str, float],
                  overhead: float,
                  peak_rss_mb: float) -> dict[str, tuple[float, str]]:
    """The :data:`PER_LAYER` values of one traced run.

    ``counts`` are counter deltas over the traced ops (see ``run.py``);
    ``setup`` the seconds of each set-up phase; ``peak_rss_mb`` the
    process's peak RSS after the untraced twin run.
    """
    empty = {"calls": 0, "self_s": 0.0, "parents": set()}

    def calls(layer: str) -> int:
        return totals.get(layer, empty)["calls"]

    def mean(layer: str, scale: float) -> float:
        row = totals.get(layer, empty)
        return row["self_s"] * scale / row["calls"] if row["calls"] else 0.0

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    requests = calls("web.request")
    fits = len(totals.get("jobs.fit", empty)["parents"])
    values: dict[str, float] = {
        "web.middleware_self_us": mean("web.request", 1e6),
        "web.dispatch_self_us": mean("web.dispatch", 1e6),
        "db.find_calls_per_req": share(calls("db.find"), requests),
        "db.page_ins": counts["page_ins"],
        "db.block_cache_hit_ratio": share(
            counts["block_hits"], counts["block_hits"] + counts["page_ins"]),
        "db.block_cache_evictions": counts["evictions"],
        "db.fsyncs": counts["fsyncs"],
        "db.wal_bytes_per_user_byte": share(
            counts["wal_bytes"], counts["user_bytes"]),
        "db.checkpoints": counts["checkpoints"],
        "db.checkpoint_ms": mean("db.checkpoint", 1e3),
        "core.cache_hits": counts["cache_hits"],
        "core.cache_misses": counts["cache_misses"],
        "core.cache_hit_ratio": share(
            counts["cache_hits"],
            counts["cache_hits"] + counts["cache_misses"]),
        "jobs.model_fits": fits,
        "jobs.fit_ms": share(
            totals.get("jobs.fit", empty)["self_s"] * 1e3, fits),
        "jobs.suggest_ms": mean("jobs.suggest", 1e3),
        "process.peak_rss_mb": peak_rss_mb,
        "setup.corpus_s": setup.get("corpus", 0.0),
        "setup.open_s": setup.get("open", 0.0),
        "setup.warm_s": setup.get("warm", 0.0),
        "trace.overhead_ratio": overhead,
        "trace.unclaimed_share": share(
            totals.get(JOB_ROOT, empty)["self_s"], totals[""]["self_s"]),
    }
    out = {}
    for name, unit, _ in PER_LAYER:
        if name not in values:
            layer, _, suffix = name.rpartition("_")
            if suffix == "calls":
                values[name] = calls(layer)
            else:
                values[name] = mean(layer, 1e6 if suffix == "us" else 1e3)
        out[name] = (values[name], unit)
    return out


def install(recorder: SpanRecorder) -> list[tuple[Any, str, Any]]:
    """Patch every boundary; returns what :func:`uninstall` restores."""
    saved = []
    for layer, module_name, owner_name, attr in BOUNDARIES:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, recorder.wrap(layer, original))
    return saved


def uninstall(saved: list[tuple[Any, str, Any]]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
