"""The replica-side WAL applier.

A :class:`ReplicaApplier` owns a background thread that connects to a
:class:`~repro.replication.primary.PrimaryShipper`, announces its
current database version as the replication offset, and then applies
whatever the primary sends:

* ``snapshot`` → :meth:`Database.load_state` (bootstrap, catch-up past
  the primary's retention window, or a periodic mid-stream checkpoint).
  A checkpoint at or below the replica's version — a checkpoint that
  arrived mid-batch, after the frames it summarizes were already
  applied — is **skipped**, counted in ``checkpoints_skipped``; one
  ahead of the replica fast-forwards it.
* ``frames`` → :meth:`Database.apply_frame` per frame, in order.  Frames
  at or below the current version are idempotently skipped (the overlap
  right after a snapshot bootstrap).  A version *gap* raises
  :class:`RecoveryError` inside the engine — the applier treats the
  stream as poisoned, drops the connection and reconnects with offset
  ``-1``, forcing a clean snapshot re-bootstrap.
* ``heartbeat`` → records the primary's version and ship timestamp so
  lag stays observable through write-idle periods.

The applier only ever mutates the database through public engine entry
points, so replicas serve the full read surface from their own MVCC
snapshots with the same atomicity guarantees as a primary.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import uuid
from typing import Any, Callable

from repro.db.engine import Database
from repro.db.errors import RecoveryError
from repro.obs import trace as _trace

from .protocol import ProtocolError, hello, recv_message, send_message

DEFAULT_RECONNECT_DELAY = 0.2


class ReplicaApplier:
    """Keep one database converged with a primary's shipped history."""

    role = "replica"

    def __init__(
        self,
        db: Database,
        address: tuple[str, int],
        *,
        replica_id: str | None = None,
        reconnect_delay: float = DEFAULT_RECONNECT_DELAY,
        on_snapshot: Callable[[], None] | None = None,
    ) -> None:
        self.db = db
        self.address = (address[0], int(address[1]))
        self.replica_id = replica_id or f"replica-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        self.reconnect_delay = reconnect_delay
        #: Called after every applied snapshot, outside the engine lock —
        #: the hook higher layers (``Repository``) use to rebind to the
        #: freshly loaded tables.
        self.on_snapshot = on_snapshot
        # Stream position as reported by the primary.
        self.primary_version = db.version
        self.primary_fseq: int | None = None
        self.applied_fseq: int | None = None
        self.last_message_ts: float | None = None
        self._behind_since: float | None = None
        # Counters.
        self.frames_applied = 0
        self.frames_skipped = 0
        self.snapshots_applied = 0
        self.checkpoints_skipped = 0
        self.heartbeats_seen = 0
        self.reconnects = 0
        self.apply_errors = 0
        self._connected = False
        self._force_snapshot = False
        self._accept_reset = False
        self._stopped = False
        self._ready = threading.Event()
        self._sock: socket.socket | None = None
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ReplicaApplier":
        self._thread = threading.Thread(
            target=self._run, name="carcs-replica-applier", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stopped = True
        with self._lock:
            sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "ReplicaApplier":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def wait_ready(self, timeout: float = 10.0) -> bool:
        """Block until the first message from the primary has been
        applied (the replica is serving real state), or timeout."""
        return self._ready.wait(timeout)

    # -- the stream loop ---------------------------------------------------

    def _run(self) -> None:
        first = True
        while not self._stopped:
            if not first:
                self.reconnects += 1
                time.sleep(self.reconnect_delay)
            first = False
            try:
                sock = socket.create_connection(self.address, timeout=5)
            except OSError:
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(None)
            with self._lock:
                if self._stopped:
                    sock.close()
                    return
                self._sock = sock
            try:
                offset = -1 if self._force_snapshot else self.db.version
                # Having asked for a fresh bootstrap, accept the next
                # snapshot even if it runs backward from diverged state.
                self._accept_reset = self._force_snapshot
                self._force_snapshot = False
                send_message(sock, hello(self.replica_id, offset))
                self._connected = True
                while not self._stopped:
                    message = recv_message(sock)
                    if message is None:
                        break  # primary closed the stream cleanly
                    self.handle_message(message)
                    self._ready.set()
            except (ProtocolError, OSError):
                pass  # transport tore; reconnect with current offset
            except RecoveryError:
                # The stream and this database diverged (version gap or
                # apply divergence): local state is unusable as an
                # offset.  Re-bootstrap from a fresh snapshot.
                self.apply_errors += 1
                self._force_snapshot = True
            finally:
                self._connected = False
                with self._lock:
                    self._sock = None
                try:
                    sock.close()
                except OSError:
                    pass

    # -- message handling (public so tests can drive it directly) ---------

    def handle_message(self, message: dict[str, Any]) -> None:
        """Apply one primary → replica message to the database.

        Runs under :class:`~repro.obs.trace.no_deadline`: replication
        apply must converge regardless of any request deadline leaked
        into the calling context (inline appliers in tests, embedded
        topologies) — aborting a half-applied batch would only force a
        snapshot re-bootstrap, which costs far more than finishing.
        """
        kind = message.get("type")
        with _trace.no_deadline():
            if kind == "snapshot":
                self._handle_snapshot(message)
            elif kind == "frames":
                self._handle_frames(message)
            elif kind == "heartbeat":
                self.heartbeats_seen += 1
                self._note_position(message["pv"], message.get("fseq"),
                                   message.get("ts"))
            else:
                raise ProtocolError(f"unexpected message type {kind!r}")

    def _handle_snapshot(self, message: dict[str, Any]) -> None:
        version = message["version"]
        # ``reset`` marks a primary-ordered re-bootstrap: this replica's
        # history diverged, so the snapshot applies even though its
        # version runs backward.  Plain checkpoints at or below the
        # current version are skipped — applying one mid-batch would
        # only rewind readers.
        reset = bool(message.get("reset")) or self._accept_reset
        if version <= self.db.version and not reset:
            self.checkpoints_skipped += 1
        else:
            # Origin attributes name the primary commit position this
            # snapshot embodies, so a fleet view correlates the apply
            # span with the shipper's side.
            with _trace.span(
                "replication.apply_snapshot", version=version,
                origin_fseq=message.get("fseq"),
                origin_ts=message.get("ts"),
            ):
                self.db.load_state(message["data"])
            self.snapshots_applied += 1
            # Re-anchor: any position learned from the diverged past is
            # meaningless after a reset.
            self.primary_version = version
            if self.on_snapshot is not None:
                self.on_snapshot()
        self._accept_reset = False
        self.applied_fseq = message.get("fseq", self.applied_fseq)
        self._note_position(version, message.get("fseq"), message.get("ts"))

    def _handle_frames(self, message: dict[str, Any]) -> None:
        items = message.get("items", [])
        # origin_pv/origin_fseq: the primary version and frame sequence
        # this batch came from — the commit origin a fleet trace view
        # shows next to the replica's apply latency.
        with _trace.span(
            "replication.apply_frames", frames=len(items),
            origin_pv=message.get("pv"), origin_fseq=message.get("fseq"),
            origin_ts=message.get("ts"),
        ):
            for frame in items:
                if self.db.apply_frame(frame):
                    self.frames_applied += 1
                else:
                    self.frames_skipped += 1
        self.applied_fseq = message.get("fseq", self.applied_fseq)
        self._note_position(message["pv"], message.get("fseq"),
                           message.get("ts"))

    def _note_position(self, primary_version: int, fseq: int | None,
                       ts: float | None) -> None:
        self.primary_version = max(self.primary_version, primary_version)
        if fseq is not None:
            self.primary_fseq = max(self.primary_fseq or 0, fseq)
        if ts is not None:
            self.last_message_ts = ts
        if self.primary_version > self.db.version:
            if self._behind_since is None:
                self._behind_since = ts if ts is not None else time.time()
        else:
            self._behind_since = None

    # -- observability -----------------------------------------------------

    def lag_frames(self) -> int:
        """Shipped-but-unapplied frames, from the latest fseq the primary
        advertised.  0 while position is unknown (pre-bootstrap)."""
        if self.primary_fseq is None or self.applied_fseq is None:
            return 0
        return max(0, self.primary_fseq - self.applied_fseq)

    def lag_seconds(self) -> float:
        """How long this replica has been behind the newest version it
        knows the primary reached (0.0 when caught up)."""
        if self.primary_version <= self.db.version:
            return 0.0
        behind_since = self._behind_since
        if behind_since is None:
            return 0.0
        return max(0.0, time.time() - behind_since)

    def status(self) -> dict[str, Any]:
        """The ``/api/v2/replication`` payload on a replica node."""
        host, port = self.address
        return {
            "role": self.role,
            "replica_id": self.replica_id,
            "primary_address": f"{host}:{port}",
            "connected": self._connected,
            "applied_version": self.db.version,
            "primary_version": self.primary_version,
            "lag_versions": max(0, self.primary_version - self.db.version),
            "lag_frames": self.lag_frames(),
            "lag_seconds": round(self.lag_seconds(), 6),
            "frames_applied": self.frames_applied,
            "frames_skipped": self.frames_skipped,
            "snapshots_applied": self.snapshots_applied,
            "checkpoints_skipped": self.checkpoints_skipped,
            "heartbeats_seen": self.heartbeats_seen,
            "reconnects": self.reconnects,
            "apply_errors": self.apply_errors,
        }


__all__ = ["ReplicaApplier", "DEFAULT_RECONNECT_DELAY"]
