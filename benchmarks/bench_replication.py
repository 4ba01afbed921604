"""REPL — read fan-out scaling and bounded replica staleness.

Two gates for the replication tier (docs/architecture.md §Replication,
numbers recorded in EXPERIMENTS.md §REPL), run against **real**
``carcs serve`` processes over loopback TCP/HTTP — the same topology
as production, not an in-process simulation.

**Gate A — read fan-out.**  ``C`` client threads issue point reads for
a fixed wall-clock window, first all aimed at a single replica, then
spread across ``R = min(4, usable_cpus)`` replicas.  The gate is the
aggregate-throughput ratio *spread / single*:

* on hosts with **>= 4 usable CPUs** the ratio must be **>= 3.0** —
  the "at least 3x with 4 replicas" scaling claim;
* on smaller hosts real parallel speedup is physically unavailable
  (this container pins 1 CPU), so the gate degrades to a
  **no-collapse floor of 0.75**: fanning reads out must never *cost*
  throughput.  The 3x claim is then exercised by the same bench on
  multi-core hardware, not silently skipped — the ratio and CPU count
  are always printed and recorded.

**Gate B — bounded staleness.**  One writer commits through the
primary for a sustained window while each replica's
``/api/v2/replication`` is sampled continuously.  The gate:
``lag_seconds`` stays **<= 2.0** at every sample, and every replica
converges (``lag_versions == 0``) within 10 s of the last write.

Both gates use the best-of-rounds discipline (interference only ever
slows a sample); rounds via ``CARCS_BENCH_REPL_ROUNDS`` (default 2).
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from _results import record

ROUNDS = max(1, int(os.environ.get("CARCS_BENCH_REPL_ROUNDS", "2")))

USABLE_CPUS = len(os.sched_getaffinity(0))
REPLICAS = min(4, USABLE_CPUS)
CLIENTS = max(4, REPLICAS)
READ_WINDOW = 1.5          # seconds per measured round

#: >= 4 CPUs: the paper-level scaling claim.  Below: no-collapse.
FANOUT_FLOOR = 3.0 if USABLE_CPUS >= 4 else 0.75

WRITE_WINDOW = 2.0         # seconds of sustained primary writes
STALENESS_BOUND = 2.0      # max observed lag_seconds per sample
CONVERGE_TIMEOUT = 10.0

BOOT_TIMEOUT = 60.0
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _spawn(*argv: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
        cwd=REPO_ROOT, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _http(method: str, url: str, body=None, timeout=10.0):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"content-type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as resp:
        raw = resp.read()
        return resp.status, json.loads(raw) if raw else None


def _wait_http(url: str, deadline: float) -> None:
    last = None
    while time.time() < deadline:
        try:
            if _http("GET", url)[0] == 200:
                return
        except (urllib.error.URLError, ConnectionError, OSError) as exc:
            last = exc
        time.sleep(0.1)
    raise TimeoutError(f"{url} never came up: {last}")


class _Topology:
    def __init__(self):
        self.procs: list[subprocess.Popen] = []
        primary_port, self.repl_port = _free_port(), _free_port()
        self.primary_url = f"http://127.0.0.1:{primary_port}"
        deadline = time.time() + BOOT_TIMEOUT
        self.procs.append(_spawn(
            "serve", "--primary", "--host", "127.0.0.1",
            "--port", str(primary_port), "--repl-port", str(self.repl_port),
        ))
        _wait_http(f"{self.primary_url}/api/v2/healthz", deadline)
        self.replica_urls: list[str] = []
        for _ in range(REPLICAS):
            port = _free_port()
            self.procs.append(_spawn(
                "serve", "--replica", f"127.0.0.1:{self.repl_port}",
                "--host", "127.0.0.1", "--port", str(port),
                "--primary-url", self.primary_url,
            ))
            self.replica_urls.append(f"http://127.0.0.1:{port}")
        for url in self.replica_urls:
            _wait_http(f"{url}/api/v2/healthz", deadline)
        # One known row for the point-read workload, visible fleet-wide.
        _, created = _http(
            "POST", f"{self.primary_url}/api/v2/materials",
            body={"title": "bench target"},
        )
        self.target_id = created["id"]
        self.wait_converged(time.time() + BOOT_TIMEOUT)

    def wait_converged(self, deadline: float) -> None:
        _, primary = _http("GET", f"{self.primary_url}/api/v2/replication")
        for url in self.replica_urls:
            while time.time() < deadline:
                _, status = _http("GET", f"{url}/api/v2/replication")
                if (status["connected"]
                        and status["applied_version"] >= primary["version"]):
                    break
                time.sleep(0.05)
            else:
                raise TimeoutError(f"{url} never converged")

    def stop(self) -> None:
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()


@pytest.fixture(scope="module")
def topology():
    topo = _Topology()
    yield topo
    topo.stop()


def _read_throughput(topology, targets: list[str]) -> float:
    """Aggregate GETs/s: client *i* hammers ``targets[i % len(targets)]``."""
    counts = [0] * CLIENTS
    stop = threading.Event()
    errors: list[Exception] = []

    def client(i: int) -> None:
        url = (f"{targets[i % len(targets)]}"
               f"/api/v2/materials/{topology.target_id}")
        while not stop.is_set():
            try:
                with urllib.request.urlopen(url, timeout=10) as resp:
                    resp.read()
            except Exception as exc:  # noqa: BLE001 — fail the round
                errors.append(exc)
                return
            counts[i] += 1

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(CLIENTS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(READ_WINDOW)
    stop.set()
    for thread in threads:
        thread.join(timeout=30)
    elapsed = time.perf_counter() - start
    if errors:
        raise AssertionError(f"read worker died: {errors[0]!r}")
    return sum(counts) / elapsed


class TestReadFanOut:
    def test_fanning_reads_across_replicas_scales_throughput(self, topology):
        single = spread = 0.0
        for _ in range(ROUNDS):
            single = max(single, _read_throughput(
                topology, [topology.replica_urls[0]],
            ))
            spread = max(spread, _read_throughput(
                topology, topology.replica_urls,
            ))
        ratio = spread / single
        print(f"\nREPL gate A: cpus={USABLE_CPUS} replicas={REPLICAS} "
              f"clients={CLIENTS}")
        print(f"  single-replica: {single:8.1f} req/s")
        print(f"  {REPLICAS}-replica fan-out: {spread:8.1f} req/s "
              f"-> ratio {ratio:.2f}x (floor {FANOUT_FLOOR}x)")
        record("replication.read_fanout", ratio, FANOUT_FLOOR, unit="x")
        assert ratio >= FANOUT_FLOOR, (
            f"read fan-out ratio {ratio:.2f}x below the "
            f"{FANOUT_FLOOR}x floor ({USABLE_CPUS} usable CPUs)"
        )


class TestBoundedStaleness:
    def test_replica_lag_stays_bounded_under_sustained_writes(self, topology):
        stop = threading.Event()
        writes = [0]
        write_errors: list[Exception] = []

        def writer() -> None:
            while not stop.is_set():
                try:
                    _http("POST",
                          f"{topology.primary_url}/api/v2/materials",
                          body={"title": f"staleness-{writes[0]}"})
                except Exception as exc:  # noqa: BLE001
                    write_errors.append(exc)
                    return
                writes[0] += 1

        samples: list[float] = []
        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        deadline = time.time() + WRITE_WINDOW
        while time.time() < deadline:
            for url in topology.replica_urls:
                _, status = _http("GET", f"{url}/api/v2/replication")
                samples.append(status["lag_seconds"])
            time.sleep(0.05)
        stop.set()
        thread.join(timeout=30)
        assert not write_errors, f"writer died: {write_errors[0]!r}"
        assert writes[0] > 0
        worst = max(samples)
        print(f"\nREPL gate B: {writes[0]} writes in {WRITE_WINDOW}s, "
              f"{len(samples)} lag samples across {REPLICAS} replica(s)")
        print(f"  worst lag_seconds: {worst:.3f} (bound {STALENESS_BOUND})")
        record("replication.worst_lag_seconds", worst, STALENESS_BOUND,
               comparator="<=", unit="s")
        assert worst <= STALENESS_BOUND
        # ...and the fleet converges once writes stop.
        topology.wait_converged(time.time() + CONVERGE_TIMEOUT)
