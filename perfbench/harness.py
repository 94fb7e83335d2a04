"""Shared machinery of the benchmark: run budget, statistics, set-up timing,
host fingerprint and the result record every workload returns.

Nothing here imports ``repro``; the workload modules do.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

#: Repetitions of every set-up measurement; ``setup_s`` is their median.
SETUP_REPEATS = 3


def percentile(samples: List[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100).

    Failed operations enter as ``inf`` so they miss every latency limit; a
    percentile whose interpolation touches one is ``inf``.
    """
    if not samples:
        return math.inf
    xs = sorted(samples)
    pos = (len(xs) - 1) * q / 100.0
    lo, hi = math.floor(pos), math.ceil(pos)
    if math.isinf(xs[hi]):
        return math.inf
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Budget:
    """Closed-loop time budget: keep issuing operations while the next one,
    at the median duration seen so far, still ends inside ``seconds``.
    The first operation always runs."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.t0 = time.perf_counter()
        self.durations: List[float] = []

    def more(self) -> bool:
        if not self.durations:
            return True
        elapsed = time.perf_counter() - self.t0
        return elapsed + statistics.median(self.durations) <= self.seconds

    def record(self, seconds: float) -> None:
        self.durations.append(seconds)

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class WorkloadResult:
    """What one workload run hands back to ``run.py``.

    ``latencies_ms`` holds one entry per timed operation of the untraced
    run (a workload may fold repeats of the same operation into their
    median), ``inf`` for a failed one; ``ops_per_s`` is the run's throughput of
    completed operations.  ``named`` carries the
    workload's own end-to-end figures under the names the workload
    documents, as ``{name: (value, unit)}``.
    """

    attempted: int = 0
    failed: int = 0
    completed: int = 0
    ops_per_s: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    setup_samples_s: List[float] = field(default_factory=list)
    named: Dict[str, tuple] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    checks: List[Check] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append(Check(name, bool(ok), detail))
        return bool(ok)

    def op(self, ms: float, ok: bool, timed: bool = True) -> None:
        """Account one operation; ``timed`` ones are latency samples and
        count towards the throughput."""
        self.attempted += 1
        self.failed += not ok
        if timed:
            self.completed += ok
            self.latencies_ms.append(ms if ok else math.inf)


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    root: Path
    tmp: Path
    trace_path: Path

    def fresh_dir(self, name: str) -> Path:
        path = self.tmp / name
        path.mkdir(parents=True, exist_ok=False)
        return path


def import_seconds(root: Path, modules: List[str]) -> List[float]:
    """Cold import time of ``modules`` in fresh interpreters, one sample per
    set-up repetition (imports cannot be repeated in-process)."""
    code = (
        "import time; t0 = time.perf_counter()\n"
        + "".join(f"import {m}\n" for m in modules)
        + "print(time.perf_counter() - t0)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: Path) -> str:
    """HEAD's commit, read from ``.git`` without running git; "none" in a
    checkout that is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def _source_digest(root: Path) -> str:
    """sha256 over ``src/**/*.py``: identifies the code in a checkout that
    is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def host_fingerprint(root: Path) -> dict:
    import numpy

    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(root),
        "source_digest": _source_digest(root),
    }


def load_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)
