"""The primary-side WAL shipper.

A :class:`PrimaryShipper` sits next to a live :class:`~repro.db.Database`
and streams its committed history to any number of read replicas over
TCP (:mod:`repro.replication.protocol`).  It subscribes to the engine's
commit hook, so every committed frame lands in a bounded in-memory
retention buffer the moment it publishes; per-replica sender threads
drain the buffer from each replica's offset.

Bootstrap and catch-up use **snapshot checkpoints**: a replica whose
offset falls before the retention window (or who asks with offset
``-1``) receives a full ``database_to_dict`` capture and then streams
frames from the capture's version.  With ``checkpoint_every=N`` the
shipper also sends a fresh snapshot every N shipped frames mid-stream —
the periodic checkpoint that bounds how far a replica restarted from
scratch has to replay.

Offsets are the engine's **database version counter**: frame ``{"v": V}``
advances a replica to version ``V``, and a replica's hello carries its
current version.  Frame *sequence numbers* (``fseq``) count shipped
frames since the shipper started and ride along on every message, so
replicas can report lag in whole frames as well as versions.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from typing import Any

from repro.db.engine import Database
from repro.db.snapshot import database_to_dict
from repro.obs import trace as _trace

from .protocol import (
    ProtocolError,
    frames_message,
    heartbeat_message,
    recv_message,
    send_message,
    snapshot_message,
)

#: Frames retained for catch-up before a reconnecting replica is forced
#: through a snapshot bootstrap instead.
DEFAULT_RETAIN_FRAMES = 4096

#: Seconds between heartbeats on a write-idle stream (also the stop-flag
#: poll interval of sender threads).
DEFAULT_HEARTBEAT_INTERVAL = 0.5


def frame_start(frame: dict[str, Any]) -> int:
    """The database version a frame applies on top of."""
    versioned = sum(1 for op in frame["ops"] if op["o"] != "create_index")
    return frame["v"] - versioned


class PrimaryShipper:
    """Stream committed WAL frames (+ snapshot checkpoints) to replicas."""

    role = "primary"

    def __init__(
        self,
        db: Database,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        retain_frames: int = DEFAULT_RETAIN_FRAMES,
        checkpoint_every: int = 0,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    ) -> None:
        self.db = db
        self.retain_frames = max(1, retain_frames)
        self.checkpoint_every = max(0, checkpoint_every)
        self.heartbeat_interval = heartbeat_interval
        # Retention buffer: (fseq, frame) in commit order, guarded by the
        # condition that wakes sender threads on every commit.
        self._cond = threading.Condition()
        self._frames: deque[tuple[int, dict[str, Any]]] = deque()
        self._fseq = 0
        self._stopped = False
        # Offsets below the floor cannot be served from the buffer and
        # fall back to a snapshot.  Attach the listener *before* reading
        # the floor under the write lock: with the lock held no commit is
        # in flight, so the floor is exact.
        self.db.add_commit_listener(self._on_commit)
        with self.db.lock.write():
            with self._cond:
                if self._frames:
                    self._floor = frame_start(self._frames[0][1])
                else:
                    self._floor = self.db.version
        # Counters (read without locks — approximate under concurrency).
        self.frames_shipped = 0
        self.snapshots_shipped = 0
        self.heartbeats_sent = 0
        self._connected = 0
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(32)
        self._sock.settimeout(0.2)
        # Cached at bind time so status() keeps working after stop().
        self._address = self._sock.getsockname()[:2]
        self._accept_thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._address
        return host, port

    @property
    def port(self) -> int:
        return self.address[1]

    def start(self) -> "PrimaryShipper":
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="carcs-shipper-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self.db.remove_commit_listener(self._on_commit)
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        try:
            self._sock.close()
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
            self._accept_thread = None

    def __enter__(self) -> "PrimaryShipper":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- commit hook -------------------------------------------------------

    def _on_commit(self, frame: dict[str, Any]) -> None:
        with self._cond:
            self._fseq += 1
            self._frames.append((self._fseq, frame))
            while len(self._frames) > self.retain_frames:
                _, evicted = self._frames.popleft()
                self._floor = evicted["v"]
            self._cond.notify_all()

    # -- serving -----------------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            with self._cond:
                if self._stopped:
                    return
            try:
                conn, _addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # socket closed by stop()
            threading.Thread(
                target=self._serve_replica, args=(conn,),
                name="carcs-shipper-conn", daemon=True,
            ).start()

    def _capture_snapshot(self) -> tuple[dict[str, Any], int]:
        """One consistent capture + the fseq it corresponds to.

        Taken under the write lock so no commit lands between the capture
        and the fseq read — frames after this fseq are exactly the
        frames after the capture's version.
        """
        with self.db.lock.write():
            data = database_to_dict(self.db)
            with self._cond:
                return data, self._fseq

    def _next_batch(
        self, sent_version: int,
    ) -> tuple[str, list[dict[str, Any]], int]:
        """What to send a replica that has everything up to
        ``sent_version``: ``("frames", batch, fseq)`` with the retained
        frames above it, ``("snapshot", [], 0)`` when retention has
        evicted past its offset, or ``("idle", [], fseq)``."""
        with self._cond:
            if self._stopped:
                return "stop", [], 0
            if sent_version < self._floor:
                return "snapshot", [], 0
            batch = [
                frame for _, frame in self._frames if frame["v"] > sent_version
            ]
            if not batch:
                self._cond.wait(self.heartbeat_interval)
                if self._stopped:
                    return "stop", [], 0
                if sent_version < self._floor:
                    return "snapshot", [], 0
                batch = [
                    frame for _, frame in self._frames
                    if frame["v"] > sent_version
                ]
            return ("frames" if batch else "idle"), batch, self._fseq

    def _serve_replica(self, conn: socket.socket) -> None:
        self._connected += 1
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            hello = recv_message(conn)
            if hello is None or hello.get("type") != "hello":
                return
            sent = int(hello.get("offset", -1))
            # A replica from the future (diverged history, or offsets
            # from some other primary) re-bootstraps too — its snapshot
            # is tagged ``reset`` so the replica applies it even though
            # the version runs *backward* from its diverged state.
            if sent > self.db.version or sent < self._floor:
                sent = self._send_snapshot(conn, reset=sent > self.db.version)
            since_checkpoint = 0
            while True:
                kind, batch, fseq = self._next_batch(sent)
                if kind == "stop":
                    return
                if kind == "snapshot":
                    sent = self._send_snapshot(conn)
                    since_checkpoint = 0
                elif kind == "frames":
                    with _trace.span(
                        "replication.ship", frames=len(batch),
                    ):
                        send_message(conn, frames_message(
                            batch, self.db.version, time.time(),
                        ) | {"fseq": fseq})
                    sent = batch[-1]["v"]
                    self.frames_shipped += len(batch)
                    since_checkpoint += len(batch)
                    if (self.checkpoint_every
                            and since_checkpoint >= self.checkpoint_every):
                        # Periodic mid-stream checkpoint: bounds replay
                        # for replicas restarted from this point on.
                        sent = max(sent, self._send_snapshot(conn))
                        since_checkpoint = 0
                else:
                    send_message(conn, heartbeat_message(
                        self.db.version, time.time(),
                    ) | {"fseq": fseq})
                    self.heartbeats_sent += 1
        except (ProtocolError, OSError):
            pass  # replica hung up / transport tore; it will reconnect
        finally:
            self._connected -= 1
            try:
                conn.close()
            except OSError:
                pass

    def _send_snapshot(self, conn: socket.socket, *, reset: bool = False) -> int:
        data, fseq = self._capture_snapshot()
        extra: dict[str, Any] = {"fseq": fseq}
        if reset:
            extra["reset"] = True
        with _trace.span("replication.checkpoint", version=data["version"]):
            send_message(conn, snapshot_message(data, time.time()) | extra)
        self.snapshots_shipped += 1
        return data["version"]

    # -- observability -----------------------------------------------------

    def status(self) -> dict[str, Any]:
        """The ``/api/v2/replication`` payload on a primary node."""
        with self._cond:
            retained = len(self._frames)
            floor = self._floor
            fseq = self._fseq
        host, port = self.address
        return {
            "role": self.role,
            "address": f"{host}:{port}",
            "version": self.db.version,
            "connected_replicas": self._connected,
            "frames_shipped": self.frames_shipped,
            "snapshots_shipped": self.snapshots_shipped,
            "heartbeats_sent": self.heartbeats_sent,
            "retained_frames": retained,
            "floor_version": floor,
            "fseq": fseq,
        }
