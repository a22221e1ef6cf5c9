"""A ``repro serve`` subprocess and the closed-loop load generator driving it.

:class:`ServerProcess` owns one plan-server child process and its private
scratch directory (SQLite store, stderr log, trace dump). It is a context
manager: the child is stopped and waited for, and the directory removed, on
every exit path — a failed check, an exception, or a signal turned into
``SystemExit`` by the caller. A server that cannot bind, dies, or never
reports its port raises :class:`ServerError` within a bounded time.

:func:`drive` is the load generator: ``clients`` threads, each with its own
:class:`~repro.server.client.PlanClient`, send the seeded request sequence
in a closed loop (each client waits for its reply before sending the next
request), because callers of the plan server wait for each answer.
"""

from __future__ import annotations

import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.server.client import PlanClient, PlanServerError
from repro.server.resilience import RetryPolicy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Seconds a server may take to print its listening line.
START_TIMEOUT = 60.0

#: Seconds a server may take to drain and exit after SIGINT.
STOP_TIMEOUT = 15.0

#: Per-request client timeout: a hung server fails the run, never hangs it.
REQUEST_TIMEOUT = 30.0

_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")


class ServerError(RuntimeError):
    """The plan server could not start, or died while being driven."""


def scratch_root() -> Path:
    """Where runs keep temporary files: inside the checkout, git-ignored."""
    path = ROOT / ".perfbench_tmp"
    path.mkdir(exist_ok=True)
    return path


def peak_rss_mb(pid="self") -> float:
    """Peak resident set (``VmHWM``) of a process in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM in /proc/{pid}/status")


def child_env() -> Dict[str, str]:
    """Environment of child interpreters: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


class ServerProcess:
    """One ``repro serve --jobs 1`` child with a fresh SQLite store.

    With ``trace=True`` the child runs through ``traced_serve.py``, which
    installs the layer wrappers before serving and writes their totals to
    :attr:`trace_path` on shutdown.
    """

    def __init__(self, trace: bool = False, port: int = 0) -> None:
        self.trace = trace
        self.requested_port = port
        self.port: Optional[int] = None
        self.process: Optional[subprocess.Popen] = None
        self.startup_seconds = 0.0
        self.directory: Optional[Path] = None
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._stderr = None
        self._reader: Optional[threading.Thread] = None

    @property
    def trace_path(self) -> Path:
        """Where a traced child writes its layer totals on shutdown."""
        return self.directory / "layers.json"

    # Lifecycle -------------------------------------------------------------------

    def start(self) -> "ServerProcess":
        """Spawn the child and wait until ``/healthz`` answers."""
        self.directory = Path(tempfile.mkdtemp(prefix="serve-",
                                               dir=scratch_root()))
        args = ["serve", "--host", "127.0.0.1",
                "--port", str(self.requested_port), "--jobs", "1",
                "--store", str(self.directory / "plans.sqlite")]
        if self.trace:
            command = [sys.executable, str(HERE / "traced_serve.py"),
                       str(self.trace_path), *args]
        else:
            command = [sys.executable, "-m", "repro", *args]
        start = time.perf_counter()
        self._stderr = open(self.directory / "stderr.log", "wb")
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._stderr, text=True)
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()
        self.port = self._await_port()
        if not PlanClient(port=self.port, timeout=REQUEST_TIMEOUT,
                          retry=RetryPolicy(max_attempts=1)).wait_ready(
                              timeout=START_TIMEOUT, interval=0.01):
            raise ServerError(f"plan server on port {self.port} never "
                              f"answered /healthz{self._stderr_tail()}")
        self.startup_seconds = time.perf_counter() - start
        return self

    def _read_stdout(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _await_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServerError(f"plan server printed no listening line "
                                  f"within {START_TIMEOUT:.0f}s")
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                self.process.wait(timeout=STOP_TIMEOUT)
                raise ServerError(
                    f"plan server exited with code {self.process.returncode} "
                    f"before listening{self._stderr_tail()}")
            match = _LISTENING.search(line)
            if match:
                return int(match.group(1))

    def check_alive(self) -> None:
        """Raise :class:`ServerError` if the child has exited."""
        if self.process is not None and self.process.poll() is not None:
            raise ServerError(
                f"plan server died with code {self.process.returncode}"
                f"{self._stderr_tail()}")

    def stop(self) -> None:
        """SIGINT the child (it drains and exits), kill it if it lingers."""
        process, self.process = self.process, None
        if process is not None:
            if process.poll() is None:
                process.send_signal(signal.SIGINT)
                try:
                    process.wait(timeout=STOP_TIMEOUT)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
            # The exited child closed its end: the reader sees EOF and ends.
            if self._reader is not None:
                self._reader.join(timeout=STOP_TIMEOUT)
                self._reader = None
            process.stdout.close()
        if self._stderr is not None:
            self._stderr.close()
            self._stderr = None

    def close(self) -> None:
        """Stop the child and delete the scratch directory."""
        try:
            self.stop()
        finally:
            if self.directory is not None:
                shutil.rmtree(self.directory, ignore_errors=True)

    def __enter__(self) -> "ServerProcess":
        try:
            return self.start()
        except BaseException:
            self.close()
            raise

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _stderr_tail(self) -> str:
        try:
            text = (self.directory / "stderr.log").read_text(errors="replace")
        except OSError:
            return ""
        tail = text.strip().splitlines()[-5:]
        return (":\n  " + "\n  ".join(tail)) if tail else ""


@dataclass
class Response:
    """One answered request of the load generator."""

    index: int
    rank: int
    latency: float
    source: str
    payload: Dict[str, object]


@dataclass
class LoadResult:
    """Everything one :func:`drive` call observed."""

    responses: List[Response] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.responses) + len(self.failures)


def drive(server: ServerProcess, sequence, clients: int, seconds: float,
          min_requests: int, max_requests: Optional[int] = None) -> LoadResult:
    """Closed-loop load: ``clients`` threads replay ``sequence``.

    Requests are handed out in sequence order. Issuing stops once
    ``seconds`` have passed and at least ``min_requests`` were issued, or
    once ``max_requests`` were issued, whichever comes first.
    """
    result = LoadResult()
    lock = threading.Lock()
    next_index = 0
    start = time.perf_counter()
    deadline = start + seconds
    dead: List[BaseException] = []

    def issue() -> Optional[int]:
        nonlocal next_index
        with lock:
            if max_requests is not None and next_index >= max_requests:
                return None
            if (max_requests is None and next_index >= min_requests
                    and time.perf_counter() >= deadline):
                return None
            index = next_index
            next_index += 1
            return index

    def client_loop() -> None:
        client = PlanClient(port=server.port, timeout=REQUEST_TIMEOUT,
                            retry=RetryPolicy(max_attempts=1))
        while not dead:
            index = issue()
            if index is None:
                return
            with lock:
                rank = sequence.rank(index)
            sent = time.perf_counter()
            try:
                payload = client.plan(sequence.documents[rank])
            except (PlanServerError, OSError) as error:
                with lock:
                    result.failures.append(f"request {index}: {error}")
                try:
                    server.check_alive()
                except ServerError as died:
                    dead.append(died)
                continue
            latency = time.perf_counter() - sent
            with lock:
                result.responses.append(Response(
                    index=index, rank=rank, latency=latency,
                    source=client.last_source or "unknown", payload=payload))

    threads = [threading.Thread(target=client_loop, name=f"client-{n}",
                                daemon=True)
               for n in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 4 * REQUEST_TIMEOUT)
        if thread.is_alive():
            dead.append(ServerError("a load-generator client hung"))
    result.wall_seconds = time.perf_counter() - start
    if dead:
        raise dead[0]
    result.responses.sort(key=lambda response: response.index)
    return result
