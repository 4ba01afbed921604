"""MVCC snapshots: lock-free pinned reads over immutable versions."""

import threading

import pytest

from repro.db import (
    Column,
    Database,
    TableSchema,
    current_pin,
    database_to_dict,
    restore_database,
)
from repro.db.errors import RowNotFound
from repro.db.snapshot import TableSnapshot

WAIT = 10.0


def make_db() -> Database:
    db = Database("snaptest")
    db.create_table(TableSchema(
        "items",
        columns=(
            Column("id", int),
            Column("name", str),
            Column("group", str, default=""),
        ),
        unique=(("name",),),
    ))
    return db


class TestPinning:
    def test_pin_freezes_reads_across_commits(self):
        db = make_db()
        db.insert("items", name="a")
        with db.pinned() as snap:
            assert snap is not None
            db.insert("items", name="b")  # commits while we are pinned
            # The pinned scope keeps serving the version it captured...
            assert db.table("items").count() == 1
            assert db.version == snap.version
        # ...and leaving the scope reveals the newer committed version.
        assert db.table("items").count() == 2

    def test_pin_is_per_context_not_global(self):
        db = make_db()
        db.insert("items", name="a")
        inside = threading.Event()
        release = threading.Event()
        observed = {}

        def pinned_reader():
            with db.pinned():
                inside.set()
                assert release.wait(WAIT)
                observed["pinned"] = db.table("items").count()

        t = threading.Thread(target=pinned_reader)
        t.start()
        assert inside.wait(WAIT)
        db.insert("items", name="b")
        # An unpinned thread sees live state immediately.
        assert db.table("items").count() == 2
        release.set()
        t.join(WAIT)
        assert observed["pinned"] == 1

    def test_nested_pin_reuses_the_outer_pin(self):
        db = make_db()
        db.insert("items", name="a")
        with db.pinned() as outer:
            db.insert("items", name="b")
            with db.pinned() as inner:
                assert inner is outer
                assert db.table("items").count() == 1

    def test_writers_read_their_own_uncommitted_state(self):
        # Under the write lock a pin is a no-op: read-your-writes must
        # hold inside transactions.
        db = make_db()
        db.insert("items", name="a")
        with db.transaction():
            db.insert("items", name="b")
            with db.pinned() as snap:
                assert snap is None
                assert db.table("items").count() == 2

    def test_pin_does_not_touch_the_lock(self):
        db = make_db()
        db.insert("items", name="a")
        acquires = []
        original = db.lock.acquire_read

        def counting_acquire():
            acquires.append(1)
            original()

        db.lock.acquire_read = counting_acquire
        try:
            with db.pinned():
                db.table("items").get(1)
                db.table("items").find(name="a")
                assert db.version >= 1
        finally:
            del db.lock.acquire_read
        assert acquires == []

    def test_current_pin_resets_on_exit(self):
        db = make_db()
        assert current_pin() is None
        with db.pinned():
            assert current_pin() is not None
        assert current_pin() is None


class TestSnapshotReads:
    def test_read_api_matches_live_table(self):
        db = make_db()
        db.insert("items", name="a", group="g1")
        db.insert("items", name="b", group="g1")
        db.insert("items", name="c", group="g2")
        db.table("items").create_index("group")
        db.delete("items", 2)
        with db.pinned():
            t = db.table("items")
            assert len(t) == 2
            assert t.count(group="g1") == 1
            assert t.get(1)["name"] == "a"
            assert t.get_or_none(2) is None
            with pytest.raises(RowNotFound):
                t.get(2)
            assert t.find_one(name="c")["group"] == "g2"
            assert sorted(t.pks()) == [1, 3]
            assert sorted(t.column_values("name")) == ["a", "c"]
            assert 1 in t and 2 not in t
            assert {row["name"] for row in t} == {"a", "c"}

    def test_snapshot_rows_are_private_copies(self):
        db = make_db()
        db.insert("items", name="a")
        with db.pinned():
            row = db.table("items").get(1)
            row["name"] = "mutated"
            assert db.table("items").get(1)["name"] == "a"

    def test_dropped_table_still_readable_through_pin(self):
        db = make_db()
        db.insert("items", name="a")
        with db.pinned():
            db.drop_table("items")
            assert db.table("items").count() == 1
        assert "items" not in db


class TestDeltaConsolidation:
    def test_many_small_commits_consolidate(self):
        db = make_db()
        for i in range(300):
            db.insert("items", name=f"n{i}")
        snap = db.snapshot().table("items")
        assert isinstance(snap, TableSnapshot)
        # The overlay must stay bounded relative to the base — unbounded
        # delta chains would make every read O(history).
        assert len(snap._delta) <= max(64, len(snap._base) // 4)
        assert len(snap) == 300

    def test_interleaved_updates_and_deletes_stay_consistent(self):
        db = make_db()
        for i in range(50):
            db.insert("items", name=f"n{i}")
        for i in range(1, 51, 2):
            db.update("items", i, group="odd")
        for i in range(2, 51, 10):
            db.delete("items", i)
        live = {r["name"]: r["group"] for r in db._tables["items"]}
        snap = {r["name"]: r["group"] for r in db.snapshot().table("items")}
        assert snap == live


class TestSerialization:
    def test_database_roundtrip_is_exact(self):
        db = make_db()
        db.insert("items", name="a", group="g1")
        db.insert("items", name="b", group="g2")
        db.table("items").create_index("group")
        db.delete("items", 1)
        restored = restore_database(database_to_dict(db))
        assert restored.version == db.version
        assert restored.table_versions() == db.table_versions()
        assert restored.table("items").find(group="g2") == \
            db.table("items").find(group="g2")
        assert restored.table("items").has_index("group")
        # The id sequence survives: the next insert does not collide.
        row = restored.insert("items", name="c")
        assert row["id"] == 3

    def test_unsupported_format_rejected(self):
        with pytest.raises(ValueError):
            restore_database({"format": 99, "tables": []})


class _ScanCounter(dict):
    """A snapshot base that counts every full iteration over it."""

    scans = 0

    def items(self):
        _ScanCounter.scans += 1
        return super().items()

    def keys(self):
        _ScanCounter.scans += 1
        return super().keys()

    def values(self):
        _ScanCounter.scans += 1
        return super().values()

    def __iter__(self):
        _ScanCounter.scans += 1
        return super().__iter__()


class TestIndexSurvivesCommits:
    def test_probe_after_each_commit_never_rescans_the_base(self, monkeypatch):
        from repro.db.snapshot import _BaseIndex

        db = Database("guard")
        db.create_table(TableSchema("links", columns=(
            Column("id", int), Column("mat", int),
        )))
        db.table("links").create_index("mat")
        with db.transaction():
            for i in range(10_000):
                db.insert("links", mat=i % 500)
        # Re-base the published version on a counting copy of its rows.
        snap = db.snapshot().table("links")
        base = _ScanCounter(snap._base)
        snap._base, snap._index = base, _BaseIndex(base)
        item_scans = []
        original = TableSnapshot._items
        monkeypatch.setattr(
            TableSnapshot, "_items",
            lambda self: item_scans.append(1) or original(self))

        assert len(snap.eq_pks("mat", 7)) == 20  # warms the base index
        assert _ScanCounter.scans == 1
        for i in range(200):
            if i % 4 == 3:
                db.update("links", i + 1, mat=(i + 3) % 500)  # value moves
            elif i % 4 == 2:
                db.delete("links", 10_000 - i)
            else:
                db.insert("links", mat=i % 500)
            fresh = db.snapshot().table("links")
            assert fresh._base is base  # 200 commits stay below consolidation
            value = i % 500
            live = db._tables["links"].eq_pks("mat", value)
            assert sorted(fresh.eq_pks("mat", value)) == sorted(live)
            assert fresh.count(mat=value) == len(live)
        assert _ScanCounter.scans == 1
        assert item_scans == []

    def test_concurrent_readers_share_base_indexes_with_a_writer(self):
        # Readers build and probe the shared base index while the writer
        # commits, consolidates and derives new bases from it.
        import sys

        db = Database("stress")
        db.create_table(TableSchema("links", columns=(
            Column("id", int), Column("mat", int),
        )))
        db.table("links").create_index("mat")
        for i in range(200):
            db.insert("links", mat=i % 7)
        stop = threading.Event()
        errors: list[BaseException] = []

        def reader() -> None:
            try:
                while not stop.is_set():
                    snap = db.snapshot().table("links")
                    for value in range(7):
                        want = [pk for pk, row in snap._items()
                                if row["mat"] == value]
                        assert list(snap.eq_pks("mat", value)) == want
                        assert snap.count(mat=value) == len(want)
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)
                stop.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=reader) for _ in range(4)]
        try:
            for t in threads:
                t.start()
            for i in range(600):
                if errors:
                    break
                if i % 3 == 0:
                    db.delete("links", db.table("links").pks()[0])
                elif i % 3 == 1:
                    db.update("links", db.table("links").pks()[-1],
                              mat=i % 7)
                else:
                    db.insert("links", mat=i % 7)
        finally:
            stop.set()
            for t in threads:
                t.join(WAIT)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
