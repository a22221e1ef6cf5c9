"""``repro serve`` as a process: clean SIGTERM shutdown, no ambient chaos.

``kill`` (and container or CI teardown) sends SIGTERM, not SIGINT. The
server must drain like it does on Ctrl-C: close the listener, finish
in-flight work, shut its lane worker processes down, and exit 0. Without
the handler the process dies at once and, at ``--jobs > 1``, leaves its
lane workers running as orphans.

Fault injection is armed by ``--chaos`` alone: the environment a server
inherits (a benchmark's child process, say) never arms it.
"""

import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.api.scenario import SCHEMA_VERSION
from repro.server.client import PlanClient

pytestmark = [
    pytest.mark.slow,  # spawns a live server and a lane worker process
    pytest.mark.skipif(not sys.platform.startswith("linux"),
                       reason="finds lane workers through /proc"),
]

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


def _children(pid):
    """Pids of the live processes whose parent is ``pid``."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:  # exited while we looked
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            children.append(int(entry))
    return children


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def test_sigterm_drains_and_stops_lane_workers(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    stderr_path = tmp_path / "stderr.txt"
    with open(stderr_path, "w") as stderr:
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "2"],
            env=env, stdout=subprocess.PIPE, stderr=stderr, text=True)
    workers = []
    try:
        banner = server.stdout.readline()
        port = int(re.search(r":(\d+) \(", banner).group(1))
        client = PlanClient(port=port)
        assert client.wait_ready(30)
        client.plan({
            "schema_version": SCHEMA_VERSION,
            "workload": {"model": "gpt3-6.7b", "num_layers": 2,
                         "batch_size": 8, "seq_length": 512},
        })
        assert client.last_source == "evaluated"
        workers = _children(server.pid)
        assert workers, "the request should have started a lane worker"

        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=30) == 0
        deadline = time.monotonic() + 5
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if _alive(pid)], \
            "lane workers outlived the server"
        assert "plan server stopped" in stderr_path.read_text()
    finally:
        for pid in [server.pid, *workers]:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        server.wait(timeout=30)
        server.stdout.close()


def test_chaos_environment_variable_arms_nothing(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC),
               REPRO_CHAOS="worker-crash:once")
    with open(tmp_path / "stderr.txt", "w") as stderr:
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=env, stdout=subprocess.PIPE, stderr=stderr, text=True)
    try:
        banner = server.stdout.readline()
        assert "chaos=" not in banner
        port = int(re.search(r":(\d+) \(", banner).group(1))
        client = PlanClient(port=port)
        assert client.wait_ready(30)
        assert client.metrics()["chaos"] == {"enabled": False}
        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=30) == 0
    finally:
        if server.poll() is None:
            server.kill()
        server.wait(timeout=30)
        server.stdout.close()
