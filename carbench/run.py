"""CAR-CS benchmark: four in-process workloads and a per-layer ledger.

Run from the repository root::

    python3 carbench/run.py --workload browse --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it carry the
run's provenance and a per-class breakdown.  ``--trace 0`` reports the
end-to-end metrics of a timed run, ``--trace 1`` the per-layer metrics of
a traced run.  Scratch databases and span files go to ``.carbench/`` and
temporary databases are removed after each run.

End-to-end times are reported at a fixed reference speed of the host
(see ``hostspeed.py``): the run samples the host's speed with a small
calibration kernel every 20 ms and divides each stretch of program time
by how much slower than the reference the host ran then.  The detail
line carries the same numbers in plain wall-clock time next to them.

What is measured
----------------
CAR-CS exists so instructors can enter, classify, find and analyse PDC
materials: the paper's material form, the classification-tree search of
Figure 1b, and the coverage and gap views of Figure 2.  Each workload is
one process, one thread and one closed-loop client calling
``CarCsApi.__call__(Request.build(...))`` on ``/api/v2`` -- the
application object ``carcs serve`` wraps -- with classify jobs drained
inline by ``jobs.worker.run_pending`` and no ``WorkerPool``.  Every
``CARCS_*`` variable is removed from the environment before ``repro`` is
imported, so the program runs at its shipped defaults: tracing
``sampled``, WAL sync ``batch``, 4 MB compaction, 64 MB block cache.

Workloads, and the layers each loads or leaves idle:

* ``browse`` -- read-mostly traffic on a resident corpus: the paper seed
  plus 3,000 synthetic CS13 materials in memory; 70% ``GET
  /materials/<id>``, 15% search, 10% tree search, 4% coverage or gaps,
  1% ``PATCH``.  The small update share bumps the version so the
  analytics cache, ETags and the BM25 delta path turn over.  Loads the web
  middleware, router and encoding, ``core.search``, ``core.ontology`` and
  cache hits; the pager, WAL and jobs stay idle.
* ``catalog`` -- read-only traffic on a corpus larger than the block
  cache: a synthesized format-2 checkpoint opened cold.  At 10^5
  materials a cold open's first search spends about 36 s building BM25,
  too long for one run, so the corpus is 8,000 materials with the block
  cache scaled to the same budget per material (64 MiB x 8,000 / 10^5);
  the rows stay larger than the cache.  80% reads (four in five on the
  newest 2% of ids, which stay cached; the rest uniform, so most page
  in), 15% search, 5% coverage.  Loads ``db.pager``, ``db.query``,
  ``db.plan`` and ``core.coverage`` at scale: the coverage handler's
  collection check scans every row.
* ``ingest`` -- write-heavy traffic on a durable database seeded with the
  paper corpus: 60% classified ``POST /materials``, 15% ``PATCH``, 25%
  reads, half of them on ids written in the last 50 ops.  Without it WAL
  checkpoints and the snapshot path under sustained writes would go
  unmeasured: reads after writes pay ``TableSnapshot.find`` under
  ``Repository.classification_of``.  The traced run is sized so the WAL
  passes the 4 MB compaction threshold twice; a timed part (3,000
  entries, about 2.3 MB of WAL) stays below it, so the timed numbers
  describe one storage layout rather than a blend of resident and
  paged tables.  Loads ``db.engine``, ``db.wal``, snapshot publish and
  find, and BM25 delta upkeep.
* ``curate`` -- the paper's curation loop on a durable database seeded
  with the paper corpus and 400 classified synthetic materials: submit
  10 unclassified materials, ``POST /jobs/classify`` and ``run_pending``,
  accept each material's top pending suggestion and reject the rest, read
  the classifications back.  Each round's writes invalidate the memoized
  model, so every job refits it, and jobs take over 90% of the time.
  Batches differ in how many suggestions they bring, so each timed part
  takes the same five batches under every seed, in a seeded order.  It
  alone loads ``jobs.queue``, ``jobs.classify`` and ``text``.

Rules against noise, on a 2-CPU share of a host whose speed swings by
up to 2x within seconds:

* One schedule per workload, generated from ``--seed`` before timing, as
  shuffled blocks of 100 ops that each hold the exact mix, so classes are
  interleaved through the whole timed phase and see the same host.
  Arguments whose cost varies widely (analytics view, tree-search
  ontology, search text) come from fixed rotations with a seeded start,
  so every seed does the same mix of cheap and dear work.
* One thread, native code included: the BLAS thread count is set to 1
  before ``numpy`` loads, so classify jobs do not swing with whatever
  else uses the second CPU.
* Corpora are fixtures with one fixed seed and the warm-up is a fixed
  list of requests, so only the timed requests vary with ``--seed``.
* The timed seconds are spent in parts of a fixed number of schedule
  entries, each on its own fresh set-up, until ``--seconds`` have
  passed; the parts continue one schedule and are pooled.  A part does
  the same work on the same starting state however fast the host runs,
  so state that grows with writes (ingest, curate) does not move with
  host speed; only how many parts fit does.
* Set-up (corpus build or open, plus warm-up) runs once per part, and
  more often when it is quick (about 3 s of set-ups in all, at least
  three); ``setup_s`` is the median.  Copying catalog's fixture and
  recording what the checks need are the benchmark's work and untimed.  ``gc.collect()`` runs before each
  set-up and before timing.
* Host speed is sampled while the program runs and every time is
  corrected to the reference speed: over one-second windows, a fixed
  slice of ``browse`` varied by 20% in wall time and by 5% corrected.
* Peak RSS is reported by the traced run (``process.peak_rss_mb``,
  taken after its untraced twin) and is not gated: on ``catalog`` it
  settles at one of a few levels (138, 144, 152 or 156 MB) between
  identical runs of one seed, a heap-layout effect that longer runs do
  not steady.
* Tails are reported at p90, not p95 or p99: p99 of point reads moved by
  18.6% between identical runs and p90 by 6.6%, and p90 is the highest
  percentile with enough samples beyond it in every workload.
* Every workload reports every end-to-end metric, so the metrics are the
  ones every mix feeds with hundreds of samples per run: requests of all
  classes pooled.  Per-class numbers are printed in the breakdown line.
* Counts (calls, page-ins, fsyncs, checkpoints, model fits) come from a
  traced run of a fixed op count and repeat exactly for one seed.

The traced run (``--trace 1``) first runs the same fixed prefix of the
schedule untraced on a fresh set-up, then patches each layer's public
calls with timing wrappers (see ``layers.py``) and runs it again, so
the ratio of the two ``ops_per_s`` values is the tracing overhead.  Its
end-to-end numbers are never reported as metrics.

Left out: the HTTP socket layer (``web.server``) and ``replication``.
Both need server, shipper and applier threads and sockets beyond a
2-core host; a single in-process client isolates the application.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".carbench"

#: Set-ups per run: one per timed part, and at least ``SETUPS``, more
#: when the first took less than ``SETUP_SECONDS / SETUPS`` (cheap
#: set-ups are noisy), at most ``MAX_SETUPS`` unless there are more
#: parts.  ``setup_s`` is their median.
SETUPS = 3
SETUP_SECONDS = 3.0
MAX_SETUPS = 15

#: Native math libraries stay on the client's one thread too: a second
#: BLAS thread would compete with whatever else shares the two CPUs and
#: make classify-job times swing with it.
ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def scrub_environment() -> list[str]:
    """Remove every ``CARCS_*`` variable; returns the names removed."""
    names = sorted(k for k in os.environ if k.startswith("CARCS_"))
    for name in names:
        del os.environ[name]
    return names


def import_program() -> None:
    """Put the checkout's ``src`` first on the import path."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"carbench: no program to measure at {src}/repro")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def drive(workload, n_ops: int, start: int = 0) -> tuple[int, float, int]:
    """Run ``n_ops`` schedule entries (cyclically) from entry ``start``;
    returns (ops completed, wall seconds, next entry)."""
    schedule = workload.schedule
    ops = 0
    begin = time.perf_counter()
    for done in range(start, start + n_ops):
        ops += workload.execute(schedule[done % len(schedule)])
    return ops, time.perf_counter() - begin, start + n_ops


def class_breakdown(client, seconds=lambda start, s: s) -> dict[str, Any]:
    """Per-class attempts, failures and latencies; ``seconds`` maps each
    (start, seconds) sample to the seconds reported."""
    from workloads import percentile

    out = {}
    for cls in sorted(client.attempts):
        samples = [seconds(t, s) for t, s in client.samples.get(cls, [])]
        row = {"attempted": client.attempts[cls],
               "failed": client.failures[cls],
               "failed_share": client.failures[cls] / client.attempts[cls]}
        if samples:
            row["p50_ms"] = round(percentile(samples, 0.5) * 1e3, 4)
            row["p90_ms"] = round(percentile(samples, 0.9) * 1e3, 4)
        if client.units[cls]:
            row["units_per_s"] = round(client.units[cls] / sum(samples), 3)
        out[cls] = row
    return out


def counters(workload) -> dict[str, int]:
    cache = workload.repo.cache.stats
    wal = workload.db.wal_stats()
    storage = workload.db.storage_stats()
    return {
        "cache_hits": cache.hits,
        "cache_misses": cache.misses + cache.invalidations,
        "fsyncs": wal.get("fsyncs", 0),
        "wal_bytes": wal.get("bytes_written", 0),
        "checkpoints": wal.get("checkpoints", 0),
        "block_hits": storage.get("block_cache_hits", 0),
        "page_ins": storage.get("block_cache_misses", 0),
        "evictions": storage.get("block_cache_evictions", 0),
        "user_bytes": workload.client.user_bytes,
    }


def timed_run(workload, seconds: float) -> tuple[dict, dict]:
    """Set up afresh for each timed part of ``workload.part_len`` schedule
    entries, continuing the schedule, until the parts have run for
    ``seconds``; then set up more times if cheap set-ups need more
    samples.  Every timing is taken at the reference host speed (see
    ``hostspeed.py``)."""
    from workloads import merge_clients, percentile

    sampler = hostspeed.Sampler()
    # (start, end) spans of every set-up and timed part, corrected for
    # the host's speed once the sampler has stopped.
    setups: list[list[tuple[float, float]]] = []
    parts: list[tuple[float, float]] = []
    n_setups = SETUPS
    clients = []
    counts: dict[str, int] = {}
    ops = mismatches = next_op = 0
    wall = 0.0
    with sampler:
        while wall < seconds or len(setups) < n_setups:
            # Free the previous set-up before timing the next, so neither
            # the time nor the peak RSS depends on when the collector runs.
            gc.collect()
            first = workload.setup()
            setups.append(workload.setup_spans)
            if len(setups) == 1:
                n_setups = min(MAX_SETUPS, max(
                    SETUPS, math.ceil(SETUP_SECONDS / first)))
            if wall < seconds:
                gc.collect()
                before = counters(workload)
                begin = time.perf_counter()
                part_ops, part_s, next_op = drive(
                    workload, workload.part_len, start=next_op)
                parts.append((begin, time.perf_counter()))
                after = counters(workload)
                for name in after:
                    counts[name] = counts.get(name, 0) + after[name] - before[name]
                ops += part_ops
                wall += part_s
                # Keep the part's records, not the system it measured.
                workload.client.api = None
                clients.append(workload.client)
                mismatches += workload.check_durability()
            workload.teardown()

    def at_reference(start: float, elapsed: float) -> float:
        return elapsed / sampler.factor_at(start)

    setup_s = [sum(sampler.reference_seconds(*span) for span in spans)
               for spans in setups]
    reference = sum(sampler.reference_seconds(*span) for span in parts)
    client = merge_clients(clients)
    samples = [at_reference(t, s) for t, s in client.requests]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (ops / reference, "1/s"),
        "request_p50_ms": (percentile(samples, 0.5) * 1e3, "ms"),
        "request_p90_ms": (percentile(samples, 0.9) * 1e3, "ms"),
    }
    wall_samples = [s for _, s in client.requests]
    detail = {
        "ops": ops, "parts": len(clients), "requests": len(samples),
        "peak_rss_mb": round(peak_rss_mb(), 3),
        "wall_s": round(wall, 4), "reference_s": round(reference, 4),
        "wall_ops_per_s": round(ops / wall, 3),
        "wall_request_p50_ms": round(percentile(wall_samples, 0.5) * 1e3, 4),
        "wall_request_p90_ms": round(percentile(wall_samples, 0.9) * 1e3, 4),
        "host": sampler.summary(),
        "setups_s": [round(s, 4) for s in setup_s],
        "counts": counts,
        "durability_mismatches": mismatches,
        "classes": class_breakdown(client, at_reference),
    }
    attempted = sum(client.attempts.values())
    failed = sum(client.failures.values()) + mismatches
    return _result(attempted, failed, metrics), detail


def traced_run(workload, spans_path: Path) -> tuple[dict, dict]:
    import layers

    n_ops = workload.trace_ops
    # Untraced twin: the same fixed prefix on a fresh set-up.
    workload.setup()
    gc.collect()
    ops_plain, elapsed_plain, _ = drive(workload, n_ops)
    # Peak RSS before any span is kept: prepare, one set-up and the ops.
    rss_mb = peak_rss_mb()
    attempted = sum(workload.client.attempts.values())
    failed = sum(workload.client.failures.values())
    failed += workload.check_durability()
    workload.teardown()
    gc.collect()

    recorder = layers.SpanRecorder()
    saved = layers.install(recorder)
    try:
        workload.setup()
        setup_times = dict(workload.setup_times)
        before = counters(workload)
        gc.collect()
        recorder.active = True
        ops, elapsed, _ = drive(workload, n_ops)
        recorder.active = False
        after = counters(workload)
    finally:
        recorder.active = False
        layers.uninstall(saved)
    client = workload.client
    attempted += sum(client.attempts.values())
    failed += sum(client.failures.values())
    failed += workload.check_durability()

    delta = {k: after[k] - before[k] for k in after}
    overhead = (ops / elapsed) / (ops_plain / elapsed_plain)
    metrics = layers.layer_metrics(recorder.totals(), delta, setup_times,
                                   overhead, rss_mb)
    recorder.write(spans_path, {"workload": workload.name,
                                "seed": workload.seed, "ops": ops})
    detail = {
        "ops": ops, "traced_ops_per_s": round(ops / elapsed, 3),
        "untraced_ops_per_s": round(ops_plain / elapsed_plain, 3),
        "spans": len(recorder.layer), "spans_file": str(
            spans_path.relative_to(ROOT)),
        "counters": delta, "classes": class_breakdown(client),
    }
    return _result(attempted, failed, metrics), detail


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _result(attempted: int, failed: int,
            metrics: dict[str, tuple[float, str]]) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def measure(name: str, seed: int, seconds: float, trace: bool, *,
            tiny: bool = False) -> tuple[dict, dict, dict]:
    """Run one workload; returns (result, provenance, detail)."""
    scrubbed = scrub_environment()
    for variable in ONE_THREAD:
        os.environ[variable] = "1"
    import_program()
    from workloads import WORKLOADS, storage_provenance

    workload = WORKLOADS[name](seed, tiny=tiny, scratch=OUT / "tmp")
    try:
        provenance = {
            "workload": name, "seed": seed, "trace": int(trace),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "scrubbed_env": scrubbed,
            "native_threads": 1,
            "host_speed": {"interval_s": hostspeed.INTERVAL,
                           "reference_kernel_s": hostspeed.REFERENCE_S},
            "schedule_digest": workload.digest(),
            **storage_provenance(), **workload.provenance(),
        }
        if trace:
            spans = OUT / f"spans-{name}.jsonl"
            result, detail = traced_run(workload, spans)
        else:
            result, detail = timed_run(workload, seconds)
    finally:
        workload.teardown()
        workload.close()
    return result, provenance, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("browse", "catalog", "ingest", "curate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, provenance, detail = measure(
        args.workload, args.seed, args.seconds, bool(args.trace),
    )
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
