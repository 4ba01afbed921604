"""Determinism of the benchmark: same seed, same schedule and counts.

Run from the repository root with ``python -m pytest carbench``.  Each
workload runs its traced pass at a tiny size twice with one seed; the
schedule digest and every count-type per-layer metric must repeat
exactly, and another seed must give another schedule.
"""

from __future__ import annotations

import pytest

import run

COUNTS = (
    "db.fsyncs", "db.wal_bytes_per_user_byte", "db.checkpoints",
    "db.page_ins", "db.block_cache_evictions", "core.cache_hits",
    "core.cache_misses", "jobs.model_fits",
)

WORKLOADS = ("browse", "catalog", "ingest", "curate")


def traced(name: str, seed: int) -> tuple[dict, dict]:
    result, provenance, _ = run.measure(name, seed, 1, True, tiny=True)
    assert result["correct"], result
    assert result["failed"] == 0
    return result["metrics"], provenance


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_repeats_schedule_and_counts(name):
    first, first_prov = traced(name, 3)
    second, second_prov = traced(name, 3)
    assert first_prov["schedule_digest"] == second_prov["schedule_digest"]
    counted = [m for m in first if m in COUNTS or m.endswith("_calls")]
    assert len(counted) >= len(COUNTS)
    assert {m: first[m]["value"] for m in counted} == {
        m: second[m]["value"] for m in counted}


@pytest.mark.parametrize("name", WORKLOADS)
def test_other_seed_changes_schedule(name):
    run.scrub_environment()
    run.import_program()
    from workloads import WORKLOADS as classes

    digests = set()
    for seed in (3, 4):
        workload = classes[name](seed, tiny=True, scratch=run.OUT / "tmp")
        try:
            digests.add(workload.digest())
        finally:
            workload.close()
    assert len(digests) == 2


def test_loaded_layers_are_counted():
    """Each workload moves the counts of the layers it exists to load."""
    expect = {
        "browse": ("core.tree_search_us", "core.search_calls"),
        "catalog": ("db.page_ins", "db.read_block_calls"),
        "ingest": ("db.checkpoints", "db.wal_append_calls"),
        "curate": ("jobs.model_fits", "core.review_us"),
    }
    for name, loaded in expect.items():
        metrics, _ = traced(name, 5)
        for metric in loaded:
            assert metrics[metric]["value"] > 0, (name, metric)


def test_reference_seconds_divides_by_host_factor():
    import hostspeed

    sampler = hostspeed.Sampler()
    # A tick every 0.1 s; the kernel ran at twice its reference time and
    # each handler took 0.01 s.
    for i in range(20):
        sampler.ticks.append(i * 0.1)
        sampler.kernel_s.append(2 * hostspeed.REFERENCE_S)
        sampler.handler_s.append(0.01)
    assert sampler.factor_at(0.52) == pytest.approx(2.0)
    # One wall-clock second holding ten handlers.
    assert sampler.reference_seconds(0.05, 1.05) == pytest.approx(0.9 / 2)
