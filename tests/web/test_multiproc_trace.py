"""Fleet-wide trace of a classify job across real processes.

Boots an actual primary (``--workers 1``) and router as subprocesses,
submits a classify job through the router, and asserts one trace id
covers router → primary → worker: the stitched tree from
``GET /api/v2/traces/<id>`` carries both process labels plus the
``job.run`` segment, and ``carcs trace --id`` renders it.

Marked ``multiproc`` — skipped unless ``CARCS_MULTIPROC=1``.
"""

import subprocess
import sys
import time

import pytest

from tests.replication.test_multiprocess import (
    BOOT_TIMEOUT,
    REPO_ROOT,
    _drain,
    _free_port,
    _http,
    _spawn,
    _wait_http,
)

pytestmark = pytest.mark.multiproc


@pytest.fixture()
def traced_topology():
    """primary (with one job worker) + router ``carcs serve`` processes."""
    primary_port, router_port = _free_port(), _free_port()
    primary_url = f"http://127.0.0.1:{primary_port}"
    router_url = f"http://127.0.0.1:{router_port}"
    procs = {}
    deadline = time.time() + BOOT_TIMEOUT
    try:
        procs["primary"] = _spawn(
            "serve", "--host", "127.0.0.1", "--port", str(primary_port),
            "--workers", "1",
        )
        _wait_http(f"{primary_url}/api/v2/healthz", deadline)
        procs["router"] = _spawn(
            "serve", "--router", "--host", "127.0.0.1",
            "--port", str(router_port), "--primary-url", primary_url,
        )
        _wait_http(f"{router_url}/api/v2/fleet", deadline)
        yield {"primary": primary_url, "router": router_url}
    finally:
        for proc in procs.values():
            proc.terminate()
        for name, proc in procs.items():
            out = _drain(proc)
            sys.stdout.write(f"--- {name} ---\n{out}\n")


def _walk_names(node, names):
    names.add(node["name"])
    for child in node.get("children") or ():
        _walk_names(child, names)


def test_one_trace_id_covers_router_primary_and_worker(traced_topology):
    router = traced_topology["router"]

    status, headers, _ = _http(
        "POST", f"{router}/api/v2/jobs/classify", body={},
    )
    assert status == 202
    trace_id = headers["x-trace-id"]
    location = headers["location"]

    deadline = time.time() + BOOT_TIMEOUT
    job = None
    while time.time() < deadline:
        _, _, job = _http("GET", f"{router}{location}")
        if job["status"] in ("done", "dead"):
            break
        time.sleep(0.1)
    assert job is not None and job["status"] == "done", job
    # The v2 job payload names the originating trace.
    assert job["trace_id"] == trace_id

    status, _, stitched = _http("GET", f"{router}/api/v2/traces/{trace_id}")
    assert status == 200
    assert stitched["trace_id"] == trace_id
    assert set(stitched["processes"]) == {"primary", "router"}
    names = set()
    _walk_names(stitched["root"], names)
    for orphan in stitched["unlinked"]:
        _walk_names(orphan, names)
    assert "front POST" in names
    assert "job.run" in names
    # The worker's segment is linked under the request, not orphaned.
    assert stitched["unlinked"] == []

    rendered = subprocess.run(
        [sys.executable, "-m", "repro.cli", "trace",
         "--id", trace_id, "--url", router],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=30,
        env={"PYTHONPATH": f"{REPO_ROOT}/src", "PATH": "/usr/bin:/bin"},
    )
    assert rendered.returncode == 0, rendered.stderr
    assert "front POST" in rendered.stdout
    assert "job.run" in rendered.stdout
    assert "@primary" in rendered.stdout
    assert "@router" in rendered.stdout
