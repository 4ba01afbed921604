"""STORAGE — MVCC read-path speedup and WAL write overhead.

Two gates for the durable storage core (docs/architecture.md
§Concurrency, §Storage & durability), numbers recorded in
EXPERIMENTS.md §STORAGE:

**Gate A — lock-free reads under a durable writer.**  8 reader
threads run point-lookup requests for a fixed wall-clock window while
one writer applies a sustained stream of fsynced single-row commits
(``wal_sync="always"`` — a durable ingest burst).  The baseline runs
every request under ``RWLock.acquire_read`` — exactly the discipline
of the deleted ``LockMiddleware`` read path — against the *same*
writer.  Because the lock prefers writers and the writer re-acquires
back-to-back, locked readers spend the window parked; MVCC readers
pin a snapshot and never wait.  The gate: pinned aggregate read
throughput must be **>= 2x** the locked baseline.  (Measured margin
is orders of magnitude; 2x is the floor, not the estimate.  Both
reader and writer rates are reported — under the GIL the RWLock mode
trades read availability for writer speed, MVCC the reverse.)

**Gate B — WAL batch-mode write overhead.**  Single-threaded bulk
ingest in transaction frames (the shape of corpus seeding: one WAL
record per multi-row transaction), durable ``wal_sync="batch"``
versus a pure in-memory database.  The gate: **<= 30%** overhead per
row.  Worst-case single-op frames (one record per row: JSON encode +
buffered write per commit, ~2x) are reported for context but not
gated — per-row durability at per-row granularity is what
``always``/``batch`` pacing is for.

Gate A uses a **best-of-rounds** discipline: interference on a shared
host only ever slows a sample, so the max throughput per mode
converges on the interference-free figure.  Its rounds scale with
``CARCS_BENCH_STORAGE_ROUNDS`` (default 3).  Gate B compares two costs
that a host speed swing moves together, so it runs **paired rounds**:
each round interleaves the two modes transaction by transaction
(alternating which goes first), and the verdict is the median of the
per-round durable/memory ratios.  Costs are process CPU time with the
cyclic GC paused, which a descheduled process does not accrue (an
fsync's wait is excluded too: batch mode exists to amortise it), over
10^4 rows per mode per round, far above timer resolution.
"""

from __future__ import annotations

import gc
import os
import statistics
import threading
import time

import pytest

from _results import record
from repro.db import Column, Database, TableSchema

ROUNDS = max(1, int(os.environ.get("CARCS_BENCH_STORAGE_ROUNDS", "3")))

READERS = 8
READ_WINDOW = 1.2          # seconds per measured round
ROWS = 2_000               # seeded point-lookup targets
LOOKUPS_PER_REQUEST = 10

READ_SPEEDUP_FLOOR = 2.0
WRITE_OVERHEAD_BUDGET = 0.30

TX_COUNT = 100             # gate-B ingest: transactions per round
TX_ROWS = 100              # rows per transaction frame
SINGLE_CHUNK = 20          # context figure: single-op frames per step
SINGLE_STEPS = 100         # ... and steps per round (2,000 ops)
WAL_PAIRS = 7              # gate-B paired rounds (odd: a true median)

JOIN_TIMEOUT = 60.0


def _schema() -> TableSchema:
    return TableSchema(
        "items",
        columns=(
            Column("id", int),
            Column("name", str),
            Column("group", str, default=""),
        ),
    )


def _seeded_store(tmp_path, tag: str) -> Database:
    db = Database.open(tmp_path / tag, wal_sync="always")
    db.create_table(_schema())
    with db.transaction():
        for i in range(ROWS):
            db.insert("items", name=f"seed-{i}", group=f"g{i % 20}")
    db.checkpoint()  # reads race the WAL tail, not the seed replay
    return db


def _read_round(db: Database, mode: str) -> tuple[float, float]:
    """One fixed-window round; returns (reads/s, durable commits/s)."""
    go = threading.Event()
    stop = threading.Event()
    served = [0] * READERS

    def writer():
        go.wait(JOIN_TIMEOUT)
        i = 0
        while not stop.is_set():
            db.update("items", (i % ROWS) + 1, name=f"w{i}")
            i += 1
        served.append(i)  # slot READERS: commit count

    def reader(slot: int):
        go.wait(JOIN_TIMEOUT)
        n = 0
        while not stop.is_set():
            if mode == "lock":
                # The pre-MVCC discipline: read lock per request.
                db.lock.acquire_read()
                try:
                    t = db.table("items")
                    for k in range(LOOKUPS_PER_REQUEST):
                        t.get_or_none((n * 7 + k) % ROWS + 1)
                finally:
                    db.lock.release_read()
            else:
                with db.pinned():
                    t = db.table("items")
                    for k in range(LOOKUPS_PER_REQUEST):
                        t.get_or_none((n * 7 + k) % ROWS + 1)
            n += 1
        served[slot] = n

    threads = [threading.Thread(target=reader, args=(s,))
               for s in range(READERS)]
    w = threading.Thread(target=writer)
    for t in threads:
        t.start()
    w.start()
    go.set()
    time.sleep(READ_WINDOW)
    stop.set()
    w.join(JOIN_TIMEOUT)
    for t in threads:
        t.join(JOIN_TIMEOUT)
    assert not w.is_alive() and not any(t.is_alive() for t in threads)
    return (sum(served[:READERS]) / READ_WINDOW,
            served[READERS] / READ_WINDOW)


def _best_read_rate(tmp_path, mode: str) -> tuple[float, float]:
    best = (0.0, 0.0)
    for round_no in range(ROUNDS):
        db = _seeded_store(tmp_path, f"{mode}-{round_no}")
        try:
            rate = _read_round(db, mode)
        finally:
            db.close()
        if rate[0] > best[0]:
            best = rate
    return best


def _tx_frame(db: Database, n: int) -> int:
    """One transaction of TX_ROWS inserts; returns the rows written."""
    with db.transaction():
        for i in range(TX_ROWS):
            db.insert("items", name=f"t{n}-{i}", group=f"g{i % 20}")
    return TX_ROWS


def _single_frames(db: Database, n: int) -> int:
    """SINGLE_CHUNK inserts, each committing as its own frame."""
    for i in range(SINGLE_CHUNK):
        db.insert("items", name=f"s{n}-{i}", group=f"g{i % 20}")
    return SINGLE_CHUNK


def _paired_costs(tmp_path, tag: str, step, steps: int):
    """Median in-memory and durable CPU cost per row, plus the
    per-round durable/memory ratios.

    Each round holds one database of each mode and alternates ``step``
    calls between them (swapping which goes first), so both modes see
    the same host conditions at millisecond granularity."""
    memory, durable, ratios = [], [], []
    for round_no in range(WAL_PAIRS):
        dbs = {
            "memory": Database("bench"),
            "durable": Database.open(tmp_path / f"{tag}-{round_no}",
                                     wal_sync="batch"),
        }
        spent = dict.fromkeys(dbs, 0.0)
        rows = 0
        try:
            for db in dbs.values():
                db.create_table(_schema())
            gc.collect()
            gc.disable()
            for n in range(steps):
                order = ("memory", "durable") if n % 2 else (
                    "durable", "memory")
                for mode in order:
                    start = time.process_time()
                    written = step(dbs[mode], n)
                    spent[mode] += time.process_time() - start
                rows += written
        finally:
            gc.enable()
            for db in dbs.values():
                db.close()
        memory.append(spent["memory"] / rows)
        durable.append(spent["durable"] / rows)
        ratios.append(spent["durable"] / spent["memory"])
    return statistics.median(memory), statistics.median(durable), ratios


def test_pinned_reads_beat_locked_reads_under_durable_writer(tmp_path):
    lock_rate, lock_commits = _best_read_rate(tmp_path, "lock")
    pin_rate, pin_commits = _best_read_rate(tmp_path, "pin")
    ratio = pin_rate / max(lock_rate, 1e-9)

    print(f"\n{READERS} reader threads x {READ_WINDOW:.1f}s window, "
          f"sustained fsynced writer (best of {ROUNDS} rounds)")
    print(f"  rwlock read path  {lock_rate:12,.0f} reads/s   "
          f"(writer {lock_commits:8,.0f} commits/s)")
    print(f"  pinned snapshots  {pin_rate:12,.0f} reads/s   "
          f"(writer {pin_commits:8,.0f} commits/s)")
    print(f"  speedup {ratio:10.1f}x   (gate: >= {READ_SPEEDUP_FLOOR:.0f}x)")

    record("storage.pinned_read_speedup", ratio, READ_SPEEDUP_FLOOR,
           unit="x")
    assert pin_rate > 0 and lock_rate >= 0
    assert ratio >= READ_SPEEDUP_FLOOR, (
        f"pinned reads only {ratio:.2f}x the RWLock baseline "
        f"({pin_rate:,.0f} vs {lock_rate:,.0f} reads/s); "
        f"gate is {READ_SPEEDUP_FLOOR:.0f}x"
    )


def test_wal_batch_write_overhead_within_budget(tmp_path):
    memory, durable, ratios = _paired_costs(
        tmp_path, "tx", _tx_frame, TX_COUNT)
    overhead = statistics.median(ratios) - 1.0
    memory_single, durable_single, single_ratios = _paired_costs(
        tmp_path, "single", _single_frames, SINGLE_STEPS)

    print(f"\nbulk ingest, {TX_COUNT} transactions x {TX_ROWS} rows, "
          f"CPU time (median of {WAL_PAIRS} paired rounds)")
    print(f"  in-memory      {memory * 1e6:7.2f} us/row")
    print(f"  batch WAL      {durable * 1e6:7.2f} us/row   "
          f"overhead {overhead:+7.1%}   "
          f"(gate: <= {WRITE_OVERHEAD_BUDGET:.0%})")
    print("  per-round overhead: "
          + " ".join(f"{r - 1.0:+.1%}" for r in ratios))
    print(f"  single-op frames (context, ungated): "
          f"{memory_single * 1e6:.2f} -> {durable_single * 1e6:.2f} us/op "
          f"({statistics.median(single_ratios) - 1.0:+.1%})")

    record("storage.batch_wal_overhead", overhead, WRITE_OVERHEAD_BUDGET,
           comparator="<=", unit="fraction")
    assert overhead <= WRITE_OVERHEAD_BUDGET, (
        f"batch-mode WAL costs {overhead:.1%} over in-memory on the "
        f"transaction-frame workload; budget is "
        f"{WRITE_OVERHEAD_BUDGET:.0%}"
    )


def test_durable_rounds_actually_hit_the_disk(tmp_path):
    # Guard against "fast because durability silently no-ops": the
    # gate-A store must fsync per commit and the gate-B store must
    # batch-fsync, with every row recoverable from disk.
    db = _seeded_store(tmp_path, "guard")
    db.update("items", 1, name="durably-renamed")
    stats = db.wal_stats()
    assert stats["appends"] >= 1
    assert stats["fsyncs"] >= stats["appends"]  # always-mode: one per commit
    db.close()
    again = Database.open(tmp_path / "guard")
    assert again.table("items").get(1)["name"] == "durably-renamed"
    assert len(again.table("items")) == ROWS
    again.close()
