"""Helpers shared by the workloads: child processes, statistics, digests."""

from __future__ import annotations

import hashlib
import json
import os
import random
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
OUT = BENCH / "out"

DEFAULT_SEED = 1
SETUP_PROBES = 5


class CheckFailed(Exception):
    """An output check of one operation failed."""


def check(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Child:
    """One finished child process: wall time, exit code, output and peak RSS."""

    t_spawn: float
    wall_s: float
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_mb: float

    def json(self) -> dict:
        """The last stdout line of a bench child, parsed."""
        return json.loads(self.stdout.decode().strip().splitlines()[-1])


def spawn(argv: list[str], timeout: float = 60.0) -> Child:
    """Run a command from the checkout root and wait until it has ended.

    The wall time runs from just before the spawn to the reaping of the
    child, exit code included; the peak RSS is the child's own.
    """
    err_path = OUT / f"stderr-{os.getpid()}.txt"
    with open(err_path, "w+b") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=err)
        try:
            out = _read_all(proc, t0 + timeout)
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    err_path.unlink()
    return Child(t0, t1 - t0, proc.returncode, out, stderr, usage.ru_maxrss / 1024)


def _read_all(proc, deadline):
    chunks = []
    fd = proc.stdout.fileno()
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                proc.kill()
                raise TimeoutError(f"{proc.args} did not finish in time")
            if sel.select(left):
                data = os.read(fd, 65536)
                if not data:
                    break
                chunks.append(data)
    proc.stdout.close()
    return b"".join(chunks)


def python_child(*args: str) -> list[str]:
    return [sys.executable, str(BENCH / "child.py"), *args]


def setup_probes(workload: str, n: int = SETUP_PROBES) -> list[float]:
    """Set-up times of n fresh interpreters, spawn to end of set-up."""
    out = []
    for _ in range(n):
        child = spawn(python_child("setup", workload))
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {child.stderr.decode()[-2000:]}")
        out.append(child.json()["setup_end"] - child.t_spawn)
    return out


def end_to_end(setup_s: list[float], peak_rss_mb: float, op_times: list[float], cold_pass_s: float) -> dict:
    """The end-to-end metrics of a run: (value, unit) by name."""
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ops_per_s": (len(op_times) / sum(op_times), "1/s"),
        "op_p50_ms": (1000 * statistics.median(op_times), "ms"),
        "op_p90_ms": (1000 * statistics.quantiles(op_times, n=10)[8], "ms"),
        "cold_pass_s": (cold_pass_s, "s"),
    }


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()[:16]


class ScriptedDims(random.Random):
    """A Random whose first randint calls return a prescribed dimension vector.

    random_rep draws the dimension of each vertex with randint and every
    matrix entry with randrange, so this fixes the dimension vector (the
    main cost factor) while the seed draws the matrices.  The caller
    checks that the representation has the prescribed dimensions.
    """

    def __init__(self, seed, dims):
        super().__init__(seed)
        self._dims = list(dims)

    def randint(self, a, b):
        if self._dims:
            return self._dims.pop(0)
        return super().randint(a, b)


def environment() -> dict:
    import platform

    import mpmath

    commit = "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
        lines = proc.stdout.split()
        if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except OSError:
        pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "gepnerstab").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": src_hash.hexdigest()[:16],
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


class Tally:
    """Attempted and failed operations, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, where: str, exc: BaseException | None):
        self.attempted += 1
        if exc is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{where}: {type(exc).__name__}: {exc}")

    def add(self, attempted: int, failed: int, failures: list[str]):
        self.attempted += attempted
        self.failed += failed
        self.failures.extend(failures[: max(0, 20 - len(self.failures))])
