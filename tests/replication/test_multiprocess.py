"""End-to-end replication across real ``carcs serve`` processes.

Spawns an actual primary, replica and router as subprocesses talking
over loopback TCP/HTTP — the deployment topology from the README, not
an in-process simulation.  Marked ``multiproc``: skipped unless
``CARCS_MULTIPROC=1`` (CI sets it; see ``scripts/ci.sh``) because each
test boots three interpreters.
"""

import json
import os
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

pytestmark = pytest.mark.multiproc

BOOT_TIMEOUT = 30.0
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


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
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )


def _http(method: str, url: str, body=None, headers=None, timeout=5.0):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"content-type": "application/json", **(headers or {})},
    )
    with urllib.request.urlopen(request, timeout=timeout) as resp:
        payload = resp.read()
        return resp.status, dict(resp.headers), (
            json.loads(payload) if payload else None
        )


def _wait_http(url: str, deadline: float) -> None:
    last = None
    while time.time() < deadline:
        try:
            status, _, _ = _http("GET", url)
            if status == 200:
                return
        except (urllib.error.URLError, ConnectionError, OSError) as exc:
            last = exc
        time.sleep(0.1)
    raise TimeoutError(f"{url} never came up: {last}")


def _drain(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=5)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    return out.decode(errors="replace") if out else ""


@pytest.fixture()
def topology():
    """primary + replica + router ``carcs serve`` processes."""
    primary_port, repl_port = _free_port(), _free_port()
    replica_port, router_port = _free_port(), _free_port()
    primary_url = f"http://127.0.0.1:{primary_port}"
    replica_url = f"http://127.0.0.1:{replica_port}"
    router_url = f"http://127.0.0.1:{router_port}"
    procs = {}
    deadline = time.time() + BOOT_TIMEOUT
    try:
        procs["primary"] = _spawn(
            "serve", "--primary", "--host", "127.0.0.1",
            "--port", str(primary_port), "--repl-port", str(repl_port),
        )
        _wait_http(f"{primary_url}/api/v2/healthz", deadline)
        procs["replica"] = _spawn(
            "serve", "--replica", f"127.0.0.1:{repl_port}",
            "--host", "127.0.0.1", "--port", str(replica_port),
            "--primary-url", primary_url,
        )
        _wait_http(f"{replica_url}/api/v2/healthz", deadline)
        procs["router"] = _spawn(
            "serve", "--router", "--host", "127.0.0.1",
            "--port", str(router_port),
            "--primary-url", primary_url, "--replica-url", replica_url,
        )
        _wait_http(f"{router_url}/api/v2/fleet", deadline)
        yield {
            "primary": primary_url, "replica": replica_url,
            "router": router_url, "procs": procs,
        }
    finally:
        for proc in procs.values():
            proc.terminate()
        for name, proc in procs.items():
            output = _drain(proc)
            if proc.returncode not in (0, -15):
                sys.stderr.write(f"--- {name} exited {proc.returncode}\n")
                sys.stderr.write(output + "\n")


class TestRealTopology:
    def test_write_through_router_read_your_writes(self, topology):
        router = topology["router"]
        session = {"x-carcs-session": "e2e"}
        status, headers, created = _http(
            "POST", f"{router}/api/v2/materials",
            body={"title": "E2E across processes"}, headers=session,
        )
        assert status == 201
        assert headers["x-carcs-backend"] == "primary"
        mid = created["id"]
        # Immediately read back through the router with the same
        # session: RYW must hold whichever node answers.
        status, headers, fetched = _http(
            "GET", f"{router}/api/v2/materials/{mid}", headers=session,
        )
        assert status == 200
        assert fetched["id"] == mid
        assert fetched["title"] == "E2E across processes"

    def test_replica_converges_and_reports_its_stream(self, topology):
        status, _, created = _http(
            "POST", f"{topology['primary']}/api/v2/materials",
            body={"title": "converge me"},
        )
        assert status == 201
        deadline = time.time() + BOOT_TIMEOUT
        fetched = None
        while time.time() < deadline:
            try:
                code, _, fetched = _http(
                    "GET",
                    f"{topology['replica']}/api/v2/materials/{created['id']}",
                )
                if code == 200:
                    break
            except urllib.error.HTTPError:
                pass
            time.sleep(0.1)
        assert fetched and fetched["title"] == "converge me"
        _, _, repl = _http("GET", f"{topology['replica']}/api/v2/replication")
        assert repl["role"] == "replica"
        assert repl["connected"] is True
        assert repl["snapshots_applied"] >= 1
        _, _, primary = _http(
            "GET", f"{topology['primary']}/api/v2/replication"
        )
        assert primary["role"] == "primary"
        assert primary["connected_replicas"] == 1

    def test_replica_rejects_writes_pointing_at_the_primary(self, topology):
        with pytest.raises(urllib.error.HTTPError) as err:
            _http("POST", f"{topology['replica']}/api/v2/materials",
                  body={"title": "nope"})
        assert err.value.code == 403
        assert err.value.headers["x-carcs-primary"] == topology["primary"]

    def test_reads_survive_a_replica_crash(self, topology):
        topology["procs"]["replica"].kill()
        deadline = time.time() + BOOT_TIMEOUT
        served_by_primary = False
        while time.time() < deadline and not served_by_primary:
            status, headers, _ = _http(
                "GET", f"{topology['router']}/api/v2/materials",
            )
            assert status == 200  # reads never black out
            served_by_primary = headers["x-carcs-backend"] == "primary"
            time.sleep(0.05)
        assert served_by_primary
        _, _, fleet = _http("GET", f"{topology['router']}/api/v2/fleet")
        assert fleet["healthy_replicas"] == 0
