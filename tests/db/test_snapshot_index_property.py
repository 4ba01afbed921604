"""Property test: snapshot hash indexes ≡ a rebuild from the snapshot's rows.

Snapshot hash indexes persist across commits: a base's index is shared
by every version on that base, each version's delta carries per-bucket
shifts, and consolidation derives the next base's index without a
rescan.  For random histories of inserts, updates (including value
changes on indexed columns), deletes, re-inserts of deleted pks,
multi-op frames, index creation, bursts that cross the consolidation
boundary, and checkpoint + reopen past the inline threshold (a paged
base), every probe on every pinned snapshot must equal a from-scratch
index rebuilt over that snapshot's rows — as an ordered list, because
``find`` hands rows out in bucket order.
"""

from __future__ import annotations

import os
import tempfile
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.db import Column, Database, PagedRows, TableSchema

MATS = [0, 1, 2, 3]
TAGS = [None, "a", "b"]
VALUES = {"mat": MATS + [99], "tag": TAGS + ["zz"]}
MAX_PINS = 4

ANY = st.integers(0, 10**6)  # picks an existing / deleted pk by index

steps = st.lists(st.one_of(
    st.tuples(st.just("insert"), st.sampled_from(MATS), st.sampled_from(TAGS)),
    st.tuples(st.just("update"), ANY, st.sampled_from(MATS),
              st.sampled_from(TAGS)),
    st.tuples(st.just("touch"), ANY),
    st.tuples(st.just("delete"), ANY),
    st.tuples(st.just("reinsert"), ANY, st.sampled_from(MATS)),
    st.tuples(st.just("frame"), ANY, st.sampled_from(MATS)),
    st.tuples(st.just("burst"), st.integers(40, 140), ANY),
    st.tuples(st.just("index"),),
    st.tuples(st.just("reopen"),),
    st.tuples(st.just("pin"),),
    st.tuples(st.just("unpin"), ANY),
), min_size=1, max_size=14)


def rebuilt(table, column: str) -> dict:
    """The reference: one scan of the snapshot, exactly as a rebuilt
    per-version index would list each bucket."""
    index: dict = {}
    for pk, row in table._items():
        index.setdefault(row[column], []).append(pk)
    return index


def check(snap, expected: dict) -> None:
    table = snap.table("links")
    assert dict(table._items()) == expected
    assert len(table) == len(expected)
    for column in ("mat", "tag"):
        if not table.has_index(column):
            continue
        oracle = rebuilt(table, column)
        for value in VALUES[column]:
            want = oracle.get(value, [])
            assert list(table.eq_pks(column, value)) == want, (column, value)
            assert table.eq_count(column, value) == len(want)
            assert table.find(**{column: value}) == [
                dict(expected[pk]) for pk in want
            ]
            assert table.count(**{column: value}) == len(want)


class History:
    """One database plus the pins a reader holds across its commits."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.db = Database.open(directory)
        self.db.create_table(TableSchema("links", columns=(
            Column("id", int),
            Column("mat", int),
            Column("tag", str, nullable=True, default=None),
            Column("note", str, default=""),
        )))
        self.db.table("links").create_index("mat")
        self.deleted: list[int] = []
        self.pins: list[tuple] = []
        for i in range(20):
            self.db.insert("links", mat=i % 4, tag=TAGS[i % 3])

    def live(self) -> dict:
        return {pk: dict(row)
                for pk, row in self.db._tables["links"]._rows.items()}

    def pick(self, n: int) -> int | None:
        pks = list(self.db._tables["links"]._rows.keys())
        return pks[n % len(pks)] if pks else None

    def pin(self) -> None:
        self.pins.append((self.db.snapshot(), self.live()))
        del self.pins[:-MAX_PINS]

    def apply(self, step: tuple) -> None:
        db, kind = self.db, step[0]
        if kind == "insert":
            db.insert("links", mat=step[1], tag=step[2])
        elif kind == "update":
            pk = self.pick(step[1])
            if pk is not None:
                db.update("links", pk, mat=step[2], tag=step[3])
        elif kind == "touch":  # same indexed values: in-place substitution
            pk = self.pick(step[1])
            if pk is not None:
                db.update("links", pk, note=f"v{db.version}")
        elif kind == "delete":
            pk = self.pick(step[1])
            if pk is not None:
                db.delete("links", pk)
                self.deleted.append(pk)
        elif kind == "reinsert" and self.deleted:
            pk = self.deleted.pop(step[1] % len(self.deleted))
            db.insert("links", id=pk, mat=step[2])
        elif kind == "frame":
            # Several ops on one new pk and one old pk in a single commit.
            old = self.pick(step[1])
            with db.transaction():
                pk = db.insert("links", mat=step[2], tag="a")["id"]
                db.update("links", pk, mat=(step[2] + 1) % 4)
                if old is not None:
                    db.update("links", old, mat=step[2], tag=None)
                    db.update("links", old, tag="b")
                if step[2] % 2:
                    db.delete("links", pk)
        elif kind == "burst":
            # Enough single-row commits to cross the consolidation
            # boundary, with a pin taken part-way through.
            n, seed = step[1], step[2]
            for i in range(n):
                j = seed + i
                if j % 5 == 0:
                    pk = self.pick(j)
                    if pk is not None:
                        db.delete("links", pk)
                        self.deleted.append(pk)
                elif j % 5 == 1:
                    pk = self.pick(j * 7)
                    if pk is not None:
                        db.update("links", pk, mat=j % 4)
                else:
                    db.insert("links", mat=j % 4, tag=TAGS[j % 3])
                if i == n // 2:
                    self.pin()
        elif kind == "index":
            db.table("links").create_index("tag")
        elif kind == "reopen":
            # Past the (patched) inline threshold the checkpoint is
            # blocked, so the reopened snapshot's base is paged.  Pins
            # on the closed database's tier cannot outlive it.
            db.checkpoint()
            db.close()
            self.db = Database.open(self.directory)
            self.pins.clear()
        elif kind == "pin":
            self.pin()
        elif kind == "unpin" and self.pins:
            del self.pins[step[1] % len(self.pins)]


PAGED_ENV = {"CARCS_SNAPSHOT_INLINE_ROWS": "1", "CARCS_BLOCK_ROWS": "8"}


def run(history_steps: list[tuple]) -> None:
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, PAGED_ENV):
        history = History(os.path.join(tmp, "db"))
        try:
            for step in history_steps:
                history.apply(step)
                check(history.db.snapshot(), history.live())
                for snap, expected in history.pins:
                    check(snap, expected)
        finally:
            history.db.close()


@settings(max_examples=60, deadline=None)
@given(steps)
def test_snapshot_index_probes_match_a_rebuild(history_steps):
    run(history_steps)


def test_consolidation_is_crossed_on_eager_and_paged_bases():
    # Random histories may or may not reach both consolidation paths;
    # this fixed one does, and checks the index really was derived.
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, PAGED_ENV):
        history = History(os.path.join(tmp, "db"))
        try:
            for paged in (False, True):
                if paged:
                    history.apply(("reopen",))
                history.apply(("pin",))
                history.apply(("index",))
                first = history.db.snapshot().table("links")
                assert isinstance(first._base, PagedRows) is paged
                first.eq_pks("mat", 1)  # build the base index
                mark = len(history.deleted)
                history.apply(("burst", 90, 3))
                history.apply(("update", 5, 2, "a"))
                last = history.db.snapshot().table("links")
                assert last._base is not first._base  # consolidated
                assert isinstance(last._base, PagedRows) is paged
                assert "mat" in last._index.columns  # derived, not rebuilt
                if paged:
                    # Tier rows deleted by that consolidation and
                    # re-inserted before the next one sit after the base
                    # in the delta, but back at their pk in the tier.
                    back = history.deleted[mark:mark + 3]
                    del history.deleted[mark:mark + 3]
                    assert set(back) <= last._base._tombstones
                    for pk in back:
                        history.db.insert("links", id=pk, mat=1)
                    history.apply(("pin",))
                    for _ in range(90):
                        history.apply(("insert", 2, None))
                    snap = history.db.snapshot().table("links")
                    assert not set(back) & snap._base._tombstones
                    assert set(back) <= set(snap.eq_pks("mat", 1))
                check(history.db.snapshot(), history.live())
                for snap, expected in history.pins:
                    check(snap, expected)
        finally:
            history.db.close()
