"""Immutable published snapshots — the MVCC read side of the engine.

Every committed write frame builds a new :class:`Snapshot` by
*path-copying*: only the tables touched by the frame get a new
:class:`TableSnapshot`, and a touched table copies only its bounded
**delta** (pk → row, with tombstones for deletes) over a shared base
mapping.  Hash indexes split the same way: one index per base, shared
by every version on it, plus a per-bucket record of what each delta
changes (:class:`_BaseIndex`, :class:`_Shift`), so indexed reads after
a write never rebuild anything.  The database then publishes the
snapshot with a single attribute store — atomic under the interpreter —
so readers pin the current snapshot with **no lock at all** and keep
reading a consistent version while writers commit behind them.

The pin itself is a module-level :data:`~contextvars.ContextVar`
(:func:`current_pin`): ``Database.pinned()`` sets it for a scope, and
every pin-aware accessor (``Database.table`` / ``version`` /
``table_versions`` / ``stats``) consults it.  Threads holding the write
lock bypass the pin so writers and transactions always read their own
uncommitted state.

This module also owns the durable wire format shared by WAL checkpoint
files and :mod:`repro.core.persist` version-2 dumps:
:func:`database_to_dict` / :func:`restore_database` round-trip the full
engine state (schemas, rows, id sequences, version counters, secondary
indexes) through plain JSON-serializable dicts.
"""

from __future__ import annotations

from bisect import insort
from contextvars import ContextVar
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.obs.trace import no_deadline

from .errors import SchemaError
from .pager import PagedRows
from .schema import _NO_DEFAULT, Column, ForeignKey, TableSchema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Database
    from .table import Table

#: Marks a pk deleted in a snapshot delta without copying the base map.
_TOMBSTONE = object()

#: Once a delta outgrows ``max(_CONSOLIDATE_MIN, len(base) // 4)`` the
#: snapshot consolidates into a fresh base — keeping reads O(1) and the
#: publish cost amortized O(1) per mutation even under bulk seeding.
_CONSOLIDATE_MIN = 64

#: The ambient pinned snapshot (None = read live state).
_PIN: ContextVar["Snapshot | None"] = ContextVar(
    "carcs_pinned_snapshot", default=None
)

_EMPTY: tuple = ()


def current_pin() -> "Snapshot | None":
    """The snapshot pinned in this context, if any."""
    return _PIN.get()


class _BaseIndex:
    """Hash indexes over one immutable snapshot base, shared by every
    :class:`TableSnapshot` whose base is that object.

    A column's ``{value: [pk, ...]}`` map is built at most once, by one
    scan on its first probe, with each bucket in base iteration order.
    Commits that keep the base pass the index forward as is; a
    consolidation derives the next base's index from this one
    (:meth:`consolidate`) instead of rescanning.
    """

    __slots__ = ("base", "columns", "_position", "_key")

    def __init__(self, base: Any, position: dict | None = None) -> None:
        self.base = base
        self.columns: dict[str, dict[Any, list]] = {}
        # Eager (dict) bases only: pk -> rank in iteration order, taken
        # by the first column scan.  A paged base orders structurally.
        self._position = position
        self._key: Callable[[Any], Any] | None = None

    def column(self, column: str) -> dict[Any, list]:
        # Benign build race: concurrent readers may build the same map;
        # the last assignment wins and both are correct (the base is
        # immutable).  Positions are stored before the column, so anyone
        # who sees a built column also sees them.
        index = self.columns.get(column)
        if index is None:
            index = {}
            if self._position is None and not isinstance(self.base, PagedRows):
                position: dict[Any, int] = {}
                for pk, row in self.base.items():
                    position[pk] = len(position)
                    index.setdefault(row[column], []).append(pk)
                self._position = position
            else:
                for pk, row in self.base.items():
                    index.setdefault(row[column], []).append(pk)
            self.columns[column] = index
        return index

    def order_key(self) -> Callable[[Any], Any]:
        """Sort key placing base pks in base iteration order (needs a
        built column on an eager base)."""
        key = self._key
        if key is None:
            if isinstance(self.base, PagedRows):
                key = self.base.order_key()
            else:
                key = self._position.__getitem__  # type: ignore[union-attr]
            self._key = key
        return key

    def consolidate(self, base: Any, delta: dict[Any, Any]) -> "_BaseIndex":
        """The index of ``base``, which is this index's base with
        ``delta`` folded in: a shallow copy of each built column map
        with only the buckets the delta touches rewritten."""
        built = list(self.columns.items())
        if not built:
            return _BaseIndex(base)
        names = [name for name, _ in built]
        shifts = _DeltaIndex({}, delta)
        old = self.base
        for pk, row in delta.items():
            shifts.shift(names, pk, old.get(pk), _NO_DEFAULT, row)
        position = self._position
        if position is not None:
            # Same order as the merged dict: kept keys stay put, new
            # keys follow in delta order.
            position = dict(position)
            top = next(reversed(position.values()), -1) + 1
            for pk, row in delta.items():
                if row is _TOMBSTONE:
                    position.pop(pk, None)
                elif pk not in position:
                    position[pk] = top
                    top += 1
        new = _BaseIndex(base, position)
        # A paged tier puts a re-inserted tier row back at its pk, not
        # after the base as the delta did: re-sort touched buckets.
        resort = new.order_key() if isinstance(base, PagedRows) else None
        for name, index in built:
            index = dict(index)
            for value, shift in shifts.columns.get(name, {}).items():
                bucket = shift.apply(index.get(value, _EMPTY), self)
                if resort is not None:
                    bucket.sort(key=resort)
                if bucket:
                    index[value] = bucket
                else:
                    index.pop(value, None)
            new.columns[name] = index
        return new


class _Shift:
    """What a snapshot's delta does to one base bucket ``column == value``.

    ``drop`` holds the bucket's base pks the delta deletes or moves to
    another value, ``moved`` the base pks it moves in from another
    value, and ``fresh`` the pks absent from the base, in delta order.
    ``drop`` and ``moved`` stay None until used: most shifts only add
    new rows, and every commit copies the shifts it touches.
    """

    __slots__ = ("drop", "moved", "fresh")

    def __init__(self, drop: set | None = None, moved: set | None = None,
                 fresh: Iterable = ()) -> None:
        self.drop = drop
        self.moved = moved
        self.fresh = list(fresh)

    def copy(self) -> "_Shift":
        return _Shift(set(self.drop) if self.drop else None,
                      set(self.moved) if self.moved else None, self.fresh)

    def size(self, bucket_size: int) -> int:
        return (bucket_size - len(self.drop or ()) + len(self.moved or ())
                + len(self.fresh))

    def apply(self, bucket: Iterable, index: _BaseIndex) -> list:
        """The bucket in snapshot scan order: base order with the
        delta's rows substituted in place, then new pks in delta order."""
        drop = self.drop
        out = [pk for pk in bucket if pk not in drop] if drop else list(bucket)
        if self.moved:
            key = index.order_key()
            for pk in self.moved:
                insort(out, pk, key=key)
        out.extend(self.fresh)
        return out


class _DeltaIndex:
    """Per-column ``{value: _Shift}`` maps over a snapshot's delta,
    updated copy-on-write: one advance copies the column maps and shifts
    it touches and shares everything else with the previous snapshot."""

    __slots__ = ("columns", "_delta", "_owned", "_rank")

    def __init__(self, columns: dict[str, dict[Any, _Shift]],
                 delta: dict[Any, Any]) -> None:
        self.columns = dict(columns)
        self._delta = delta
        self._owned: set[Any] = set()  # columns and (column, value) keys
        self._rank: Callable[[Any], int] | None = None

    def _edit(self, column: str, value: Any) -> _Shift:
        shifts = self.columns.get(column)
        if shifts is None or column not in self._owned:
            shifts = self.columns[column] = dict(shifts or ())
            self._owned.add(column)
        key = (column, value)
        shift = shifts.get(value)
        if shift is None:
            shift = shifts[value] = _Shift()
            self._owned.add(key)
        elif key not in self._owned:
            shift = shifts[value] = shift.copy()
            self._owned.add(key)
        return shift

    def shift(self, columns: Iterable[str], pk: Any, base_row: Any,
              old: Any, new: Any) -> None:
        """Record ``pk`` going from delta state ``old`` to ``new`` (a
        row, :data:`_TOMBSTONE`, or ``_NO_DEFAULT`` for "not in the
        delta") in each column; ``base_row`` is its base row or None."""
        for column in columns:
            after = _TOMBSTONE if new is _TOMBSTONE else new[column]
            if base_row is None:
                before = (_TOMBSTONE if old is _NO_DEFAULT or old is _TOMBSTONE
                          else old[column])
                if before == after:
                    continue
                if before is not _TOMBSTONE:
                    self._edit(column, before).fresh.remove(pk)
                if after is not _TOMBSTONE:
                    fresh = self._edit(column, after).fresh
                    if old is _NO_DEFAULT:  # newest delta entry: goes last
                        fresh.append(pk)
                    else:
                        if self._rank is None:
                            self._rank = {
                                p: i for i, p in enumerate(self._delta)
                            }.__getitem__
                        insort(fresh, pk, key=self._rank)
            else:
                home = base_row[column]
                before = (home if old is _NO_DEFAULT else
                          _TOMBSTONE if old is _TOMBSTONE else old[column])
                if before == after:
                    continue
                # Only pks a shift already records are ever discarded,
                # so a discard never meets an unallocated (None) set.
                if before == home:
                    shift = self._edit(column, home)
                    if shift.drop is None:
                        shift.drop = set()
                    shift.drop.add(pk)
                elif before is not _TOMBSTONE:
                    self._edit(column, before).moved.discard(pk)
                if after == home:
                    self._edit(column, home).drop.discard(pk)
                elif after is not _TOMBSTONE:
                    shift = self._edit(column, after)
                    if shift.moved is None:
                        shift.moved = set()
                    shift.moved.add(pk)

    def finish(self) -> dict[str, dict[Any, _Shift]]:
        """The column maps, minus shifts (and columns) left empty."""
        columns = self.columns
        for key in self._owned:
            if isinstance(key, tuple):
                column, value = key
                shifts = columns.get(column)
                shift = shifts.get(value) if shifts else None
                if shift is not None and not (
                        shift.drop or shift.moved or shift.fresh):
                    del shifts[value]  # type: ignore[union-attr]
            elif not columns.get(key, True):
                del columns[key]
        return columns


def _present(state: Any, base_row: Any) -> int:
    """1 if a pk with this delta state and base row is in the snapshot."""
    if state is _NO_DEFAULT:
        return base_row is not None
    return state is not _TOMBSTONE


class TableSnapshot:
    """A frozen, lock-free view of one table at one version.

    Mirrors the read API of :class:`repro.db.table.Table` (``get``,
    ``find``, ``count``, iteration, …) so repository analytics work
    unchanged against either.  Row dicts are shared with the live table
    (rows are never mutated in place — updates store a fresh dict), and
    every accessor hands out copies, preserving the caller-may-mutate
    contract of the live read API.

    Hash indexes survive commits: the base's index is shared by every
    version on that base, and each version's delta carries its own
    per-bucket :class:`_Shift` maps, so an indexed probe costs
    O(bucket + delta bucket) however many commits came before it.
    """

    __slots__ = ("schema", "version", "_base", "_delta", "_size",
                 "_indexed", "_sorted_cols", "_index", "_shifts",
                 "_lazy_sorted")

    def __init__(self, schema: TableSchema, version: int,
                 base: Any, delta: dict[Any, Any], size: int,
                 indexed: frozenset[str], sorted_cols: frozenset[str],
                 index: _BaseIndex,
                 shifts: dict[str, dict[Any, _Shift]]) -> None:
        self.schema = schema
        self.version = version
        self._base = base
        self._delta = delta
        self._size = size
        self._indexed = indexed
        self._sorted_cols = sorted_cols
        self._index = index
        self._shifts = shifts
        # column -> SortedIndex, built lazily per version on first
        # ordered access.
        self._lazy_sorted: dict[str, Any] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def capture(cls, table: "Table") -> "TableSnapshot":
        """Full snapshot of a live table (open/DDL path).

        A paged table freezes in O(overlay) — the immutable block tier
        is shared, not copied — so capturing a 10^6-row cold table costs
        nothing."""
        rows = table._rows
        if isinstance(rows, PagedRows):
            base: Any = rows.freeze()
        else:
            base = dict(rows)
        return cls(table.schema, table.version, base, {}, len(base),
                   frozenset(table._indexes) | frozenset(table._lazy_hash),
                   frozenset(table._sorted) | frozenset(table._lazy_sorted),
                   _BaseIndex(base), {})

    def advance(self, table: "Table",
                ops: Iterable[dict[str, Any]]) -> "TableSnapshot":
        """The next version: this snapshot plus one committed frame's ops.

        Runs in the writer's critical section.  Costs one delta copy plus
        one base lookup and the touched index shifts per written pk."""
        delta = dict(self._delta)
        touched: dict[Any, None] = {}  # written pks, in first-write order
        for op in ops:
            kind = op["o"]
            if kind == "insert" or kind == "update":
                row = op["r"]
            elif kind == "delete":
                row = _TOMBSTONE
            else:
                continue
            pk = op["pk"]
            touched[pk] = None
            delta[pk] = row
        indexed = frozenset(table._indexes) | frozenset(table._lazy_hash)
        sorted_cols = frozenset(table._sorted) | frozenset(table._lazy_sorted)
        base = self._base
        # Base lookups may page in; a client deadline must not abort a
        # publish halfway (the frame is already applied and logged).
        with no_deadline():
            if len(delta) > max(_CONSOLIDATE_MIN, len(base) // 4):
                if isinstance(base, PagedRows):
                    # Fold the delta into a fresh overlay copy — the
                    # block tier is shared, never materialized.
                    merged: Any = base.with_delta(delta, _TOMBSTONE)
                else:
                    merged = dict(base)
                    for pk, row in delta.items():
                        if row is _TOMBSTONE:
                            merged.pop(pk, None)
                        else:
                            merged[pk] = row
                return TableSnapshot(
                    self.schema, table.version, merged, {}, len(merged),
                    indexed, sorted_cols,
                    self._index.consolidate(merged, delta), {})
            shifts = _DeltaIndex(self._shifts, delta)
            carried = [c for c in indexed if c in self._indexed]
            size = self._size
            for pk in touched:
                old, new = self._delta.get(pk, _NO_DEFAULT), delta[pk]
                base_row = base.get(pk)
                size += _present(new, base_row) - _present(old, base_row)
                shifts.shift(carried, pk, base_row, old, new)
            added = [c for c in indexed if c not in self._indexed]
            if added:  # create_index: shift the whole delta once
                for pk, row in delta.items():
                    shifts.shift(added, pk, base.get(pk), _NO_DEFAULT, row)
        return TableSnapshot(self.schema, table.version, base, delta, size,
                             indexed, sorted_cols, self._index,
                             shifts.finish())

    # -- introspection -----------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return self._size

    def __contains__(self, pk: Any) -> bool:
        return self._lookup(pk) is not None

    def has_index(self, column: str) -> bool:
        return column in self._indexed

    def has_sorted_index(self, column: str) -> bool:
        return column in self._sorted_cols

    def sorted_index(self, column: str):
        """Lazily-built :class:`repro.db.table.SortedIndex` over this
        version's rows (same benign build race as the hash index)."""
        sindex = self._lazy_sorted.get(column)
        if sindex is None:
            from .table import SortedIndex

            sindex = SortedIndex()
            for pk, row in self._items():
                sindex.add(row[column], pk)
            self._lazy_sorted[column] = sindex
        return sindex

    def indexes(self) -> dict[str, str]:
        """Declared secondary indexes: column -> "hash" | "sorted" |
        "hash+sorted" (introspection for EXPLAIN and the docs)."""
        out = {c: "hash" for c in self._indexed}
        for c in self._sorted_cols:
            out[c] = "hash+sorted" if c in out else "sorted"
        return out

    def pks(self) -> list[Any]:
        return [pk for pk, _ in self._items()]

    # -- reads -------------------------------------------------------------

    def _lookup(self, pk: Any) -> dict[str, Any] | None:
        row = self._delta.get(pk, _NO_DEFAULT)
        if row is not _NO_DEFAULT:
            return None if row is _TOMBSTONE else row
        return self._base.get(pk)

    def _items(self) -> Iterator[tuple[Any, dict[str, Any]]]:
        base, delta = self._base, self._delta
        for pk, row in base.items():
            if pk in delta:
                row = delta[pk]
                if row is _TOMBSTONE:
                    continue
            yield pk, row
        for pk, row in delta.items():
            if pk not in base and row is not _TOMBSTONE:
                yield pk, row

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return (dict(row) for _, row in self._items())

    def get(self, pk: Any) -> dict[str, Any]:
        row = self._lookup(pk)
        if row is None:
            from .errors import RowNotFound

            raise RowNotFound(f"{self.name!r} has no row with pk {pk!r}")
        return dict(row)

    def get_or_none(self, pk: Any) -> dict[str, Any] | None:
        row = self._lookup(pk)
        return dict(row) if row is not None else None

    # -- planner accessors (shared duck-type with Table) -------------------

    def eq_pks(self, column: str, value: Any) -> Iterable[Any]:
        """Pks matching ``column == value`` via the hash index (the
        column must be hash-indexed), in this version's scan order: the
        shared base bucket with this version's :class:`_Shift` applied.
        Callers must not mutate the result: it may be the shared bucket."""
        if column not in self._indexed:
            raise KeyError(column)
        bucket = self._index.column(column).get(value, _EMPTY)
        shifts = self._shifts.get(column)
        shift = shifts.get(value) if shifts else None
        return bucket if shift is None else shift.apply(bucket, self._index)

    def eq_count(self, column: str, value: Any) -> int:
        if column not in self._indexed:
            raise KeyError(column)
        n = len(self._index.column(column).get(value, _EMPTY))
        shifts = self._shifts.get(column)
        shift = shifts.get(value) if shifts else None
        return n if shift is None else shift.size(n)

    def row(self, pk: Any) -> dict[str, Any] | None:
        """The raw stored row (no copy) — planner-internal."""
        return self._lookup(pk)

    def iter_rows(self) -> Iterator[dict[str, Any]]:
        """Raw stored rows (no copies) — planner-internal."""
        return (row for _, row in self._items())

    def _matches(self, equals: dict[str, Any]) -> list[dict[str, Any]]:
        """Raw rows (no copies) matching every ``column == value``,
        seeded from a hash index when one of the columns has one."""
        for name in equals:
            self.schema.column(name)
        indexed = [c for c in equals if c in self._indexed]
        if indexed:
            seed = indexed[0]
            candidates: Iterable[Any] = (
                self._lookup(pk) for pk in self.eq_pks(seed, equals[seed])
            )
        else:
            candidates = (row for _, row in self._items())
        out = []
        for row in candidates:
            if row is not None and all(row[c] == v for c, v in equals.items()):
                out.append(row)
        return out

    def find(self, **equals: Any) -> list[dict[str, Any]]:
        if not equals:
            return [dict(row) for _, row in self._items()]
        return [dict(row) for row in self._matches(equals)]

    def find_one(self, **equals: Any) -> dict[str, Any] | None:
        rows = self.find(**equals)
        return rows[0] if rows else None

    def count(self, **equals: Any) -> int:
        if not equals:
            return self._size
        if len(equals) == 1:
            (column, value), = equals.items()
            if column in self._indexed:
                return self.eq_count(column, value)
        return len(self._matches(equals))

    def column_values(self, column: str) -> list[Any]:
        self.schema.column(column)
        return [row[column] for _, row in self._items()]


class Snapshot:
    """One published database version: db version + per-table snapshots."""

    __slots__ = ("db", "version", "tables")

    def __init__(self, db: "Database", version: int,
                 tables: dict[str, TableSnapshot]) -> None:
        self.db = db
        self.version = version
        self.tables = tables

    def table(self, name: str) -> TableSnapshot:
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(f"no table {name!r}") from None

    def table_names(self) -> list[str]:
        return sorted(self.tables)

    def __contains__(self, name: str) -> bool:
        return name in self.tables

    def table_versions(self) -> dict[str, int]:
        return {name: t.version for name, t in sorted(self.tables.items())}

    def stats(self) -> dict[str, int]:
        return {name: len(t) for name, t in sorted(self.tables.items())}


# -- durable wire format ---------------------------------------------------
#
# Shared by WAL checkpoint files (db/wal.py) and format-2 persist dumps
# (core/persist.py).  Everything is plain JSON; schemas serialize by
# column-type *name*, so only JSON-representable column types survive a
# round-trip — which is every type the CAR-CS schema uses.

_TYPE_NAMES: dict[type, str] = {
    int: "int", str: "str", float: "float", bool: "bool", object: "object",
}
_TYPES_BY_NAME = {name: tp for tp, name in _TYPE_NAMES.items()}


def schema_to_dict(schema: TableSchema) -> dict[str, Any]:
    """JSON form of a :class:`TableSchema` (raises on non-durable parts)."""
    columns = []
    for col in schema.columns:
        type_name = _TYPE_NAMES.get(col.type)
        if type_name is None:
            raise ValueError(
                f"column {schema.name}.{col.name} has non-durable type "
                f"{col.type.__name__!r}"
            )
        entry: dict[str, Any] = {"name": col.name, "type": type_name}
        if col.nullable:
            entry["nullable"] = True
        if col.has_default():
            if callable(col.default):
                raise ValueError(
                    f"column {schema.name}.{col.name} has a callable "
                    "default; defaults must be constants to be durable"
                )
            entry["default"] = col.default
        columns.append(entry)
    return {
        "name": schema.name,
        "columns": columns,
        "primary_key": schema.primary_key,
        "unique": [list(group) for group in schema.unique],
        "foreign_keys": [
            {"column": fk.column, "ref_table": fk.ref_table,
             "ref_column": fk.ref_column, "on_delete": fk.on_delete}
            for fk in schema.foreign_keys
        ],
        "auto_increment": schema.auto_increment,
    }


def schema_from_dict(data: dict[str, Any]) -> TableSchema:
    columns = []
    for entry in data["columns"]:
        type_ = _TYPES_BY_NAME.get(entry["type"])
        if type_ is None:
            raise ValueError(f"unknown column type {entry['type']!r}")
        columns.append(Column(
            entry["name"], type_,
            nullable=entry.get("nullable", False),
            default=entry.get("default", _NO_DEFAULT),
        ))
    return TableSchema(
        name=data["name"],
        columns=tuple(columns),
        primary_key=data.get("primary_key", "id"),
        unique=tuple(tuple(g) for g in data.get("unique", ())),
        foreign_keys=tuple(
            ForeignKey(fk["column"], fk["ref_table"],
                       fk.get("ref_column", "id"),
                       fk.get("on_delete", "restrict"))
            for fk in data.get("foreign_keys", ())
        ),
        auto_increment=data.get("auto_increment", True),
    )


def database_to_dict(db: "Database") -> dict[str, Any]:
    """The whole engine state as one JSON-serializable dict.

    Takes the write lock (reentrant, so checkpointing from inside a
    commit is fine) so the captured state is one committed version.
    Tables serialize in creation order, which is FK-dependency order.
    """
    with db.lock.write():
        tables = []
        for table in db._tables.values():
            tables.append({
                "schema": schema_to_dict(table.schema),
                "rows": [dict(row) for row in table._rows.values()],
                "next_id": table._next_id,
                "version": table._version,
                "indexes": table.index_columns(),
                "sorted_indexes": table.sorted_index_columns(),
            })
        return {
            "format": 1,
            "name": db.name,
            "version": db._version,
            "tables": tables,
        }


def load_tables(db: "Database", data: dict[str, Any]) -> None:
    """Replace ``db``'s tables and version with the captured state.

    The low-level half of :func:`restore_database`, shared with
    ``Database.load_state`` (replica bootstrap / mid-stream checkpoint):
    rows, id sequences, per-table version counters and secondary indexes
    restore exactly.  Does **not** publish a snapshot — callers do.
    """
    from .table import Table

    if data.get("format") != 1:
        raise ValueError(
            f"unsupported database snapshot format {data.get('format')!r}"
        )
    tables: dict[str, Table] = {}
    for entry in data["tables"]:
        schema = schema_from_dict(entry["schema"])
        table = Table(schema)
        table._db = db
        pk_col = schema.primary_key
        for row in entry["rows"]:
            table._raw_put(row[pk_col], dict(row))
        table._next_id = entry.get("next_id", 1)
        table._version = entry.get("version", 0)
        for column in entry.get("indexes", ()):
            if column not in table._indexes:
                index: dict[Any, set] = {}
                for pk, row in table._rows.items():
                    index.setdefault(row[column], set()).add(pk)
                table._indexes[column] = index
        for column in entry.get("sorted_indexes", ()):
            if column not in table._sorted:
                from .table import SortedIndex

                sindex = SortedIndex()
                for pk, row in table._rows.items():
                    sindex.add(row[column], pk)
                table._sorted[column] = sindex
        tables[schema.name] = table
    db._tables = tables
    db._version = data.get("version", 0)
    db.name = data.get("name", db.name)


def restore_database(data: dict[str, Any], **db_kwargs: Any) -> "Database":
    """Rebuild a :class:`Database` from :func:`database_to_dict` output.

    Rows, id sequences and version counters restore exactly; the change
    journal starts empty (consumers fall back to full rebuilds), and no
    WAL is attached — callers wanting durability attach one afterwards.
    """
    from .engine import Database

    db = Database(data.get("name", "carcs"), **db_kwargs)
    load_tables(db, data)
    db._publish_full()
    return db
