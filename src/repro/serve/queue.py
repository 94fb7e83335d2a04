"""Crash-safe job store for the wave-sim service.

The store is a bounded in-memory index over an append-only JSONL
*journal* — the single source of truth for every job's lifecycle.  Each
state transition appends one fsynced record, so a SIGKILLed service
loses at most the record being written; replay tolerates exactly one
torn trailing line (the crash artifact), never silent mid-file damage,
and reopening for append first truncates such a torn tail so the next
record can never merge into it.  Snapshot-style writes
(per-job result files, compaction) use the temp-write + fsync + rename
discipline of :mod:`repro.faults.checkpoint`.

Invariants the store enforces:

* **idempotent submission** — a job's id is a content hash of
  ``(kind, params)``; resubmitting the same request returns the existing
  job instead of duplicating work.
* **zero lost / zero duplicated** — recovery turns ``running`` jobs
  (their worker died with the service) back into ``pending`` with the
  attempt count preserved; ``done``/``quarantined`` jobs are terminal
  and are never re-dispatched.
* **bounded queue** — submissions beyond ``max_pending`` live jobs
  raise :class:`QueueFull` (explicit backpressure) instead of growing
  the journal without bound or deadlocking a full pipeline.
* **deterministic retries** — :func:`backoff_delay` derives the
  exponential-backoff jitter from ``(seed, job_id, attempt)`` only, so
  a re-run campaign schedules byte-identical retry delays.

The normalized :func:`journal_digest` hashes only the deterministic
fields of the lifecycle (never wall-clock timestamps, worker pids or
traceback text), which is what lets two runs of the same seeded
workload — even under injected crashes — be compared byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

__all__ = [
    "DONE",
    "FAILED",
    "PENDING",
    "QUARANTINED",
    "RUNNING",
    "JOB_KINDS",
    "TERMINAL_STATES",
    "Job",
    "JobStore",
    "Journal",
    "QueueFull",
    "UnknownJob",
    "backoff_delay",
    "compute_job_id",
    "journal_digest",
]

# -- job model --------------------------------------------------------- #

PENDING = "pending"
RUNNING = "running"
FAILED = "failed"  # transient: awaiting its scheduled retry
DONE = "done"
QUARANTINED = "quarantined"

TERMINAL_STATES = (DONE, QUARANTINED)

#: job kinds the worker knows how to execute.  The ``_test_*`` kinds are
#: deterministic self-test payloads used by the chaos harness and tests.
JOB_KINDS = ("simulate", "experiment", "sweep", "_test_flaky", "_test_sleep")


class QueueFull(RuntimeError):
    """Backpressure: the bounded job store refuses new submissions."""


class UnknownJob(KeyError):
    """A job id that does not exist in the store."""


def compute_job_id(kind: str, params: dict) -> str:
    """Content-keyed job id: same request -> same id (idempotent submits)."""
    blob = json.dumps({"kind": kind, "params": params}, sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def backoff_delay(seed: int, job_id: str, attempt: int,
                  base: float = 0.05, cap: float = 2.0) -> float:
    """Seeded exponential backoff with deterministic jitter.

    Pure in ``(seed, job_id, attempt)``: the delay before retry
    ``attempt`` (1-based) is ``min(cap, base * 2**(attempt-1))`` scaled
    by a jitter in ``[0.5, 1.0)`` drawn from a keyed substream, so
    campaigns replay identical schedules while unrelated jobs still
    decorrelate.
    """
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    rng = random.Random(f"{seed}:{job_id}:{attempt}")
    return min(cap, base * (2.0 ** (attempt - 1))) * (0.5 + 0.5 * rng.random())


@dataclass
class Job:
    """One unit of work and its full lifecycle state."""

    id: str
    kind: str
    params: dict
    max_retries: int = 3
    deadline_s: float = 60.0
    status: str = PENDING
    #: attempts *started* so far (the running attempt counts).
    attempt: int = 0
    result: Optional[dict] = None
    error: Optional[str] = None
    #: wall-clock time before which a failed job may not be retried.
    not_before: float = 0.0
    #: submission order (dispatch is FIFO over ready jobs).
    seq: int = 0

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATES


# -- journal ----------------------------------------------------------- #

#: event fields that survive into the normalized digest.  Everything
#: else (timestamps, pids, worker ids, tracebacks, durations) is
#: nondeterministic across runs and must stay out of it.
_DIGEST_FIELDS = ("event", "job", "attempt", "kind", "status", "reason",
                  "retry_delay_s", "result_digest", "max_retries")

#: events excluded from the digest entirely: they describe *this
#: process's* lifecycle (recovery after a service kill), not the jobs'.
_DIGEST_SKIP_EVENTS = ("recovered", "service_start")


class Journal:
    """Append-only fsynced JSONL event log (crash-safe, torn-tail tolerant).

    Opening for append first *repairs* the tail: a SIGKILL mid-append can
    leave a torn final line, and appending onto it would merge two
    records into one mid-file garbage line — unreadable forever, since
    :meth:`load` only tolerates damage on the *last* line.  The repair
    truncates a torn tail (matching what ``load`` would have dropped) or
    newline-terminates a record that made it to disk whole but lost only
    its terminator, so every append starts on a fresh line.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        dropped = self._repair_tail(self.path)
        if dropped:
            from repro.obs import get_logger
            get_logger(__name__).warning(
                "journal %s: dropped %d-byte torn tail (crash artifact) "
                "before reopening for append", self.path, dropped)
        self._fh = open(self.path, "a", encoding="utf-8")

    @staticmethod
    def _repair_tail(path: Path) -> int:
        """Make the journal end on a clean record boundary; returns bytes dropped.

        * last line torn (invalid JSON) -> truncate it, whether or not the
          crash left a trailing newline;
        * last record complete but missing only its ``\\n`` -> terminate it
          (its data fully reached disk; dropping it would lose an event).
        """
        if not path.exists():
            return 0
        with open(path, "rb+") as fh:
            data = fh.read()
            if not data:
                return 0

            def _valid(chunk: bytes) -> bool:
                try:
                    json.loads(chunk.decode("utf-8"))
                    return True
                except (ValueError, UnicodeDecodeError):
                    return False

            if data.endswith(b"\n"):
                start = data.rfind(b"\n", 0, len(data) - 1) + 1
                last = data[start:].strip()
                if not last or _valid(last):
                    return 0
            else:
                start = data.rfind(b"\n") + 1
                if _valid(data[start:]):
                    fh.write(b"\n")
                    fh.flush()
                    os.fsync(fh.fileno())
                    return 0
            fh.truncate(start)
            fh.flush()
            os.fsync(fh.fileno())
            return len(data) - start

    def append(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        self._fh.write(line + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError as exc:  # pragma: no cover - close on a dead fd
            from repro.obs import get_logger
            get_logger(__name__).warning("journal close failed: %s", exc)

    @staticmethod
    def load(path: Union[str, Path]) -> List[dict]:
        """Replay a journal; tolerates one torn trailing line (crash artifact)."""
        path = Path(path)
        if not path.exists():
            return []
        events: List[dict] = []
        lines = path.read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                events.append(json.loads(line))
            except ValueError as exc:
                if i == len(lines) - 1:
                    break  # torn tail: the record being written at the kill
                raise ValueError(
                    f"journal {path} corrupt at line {i + 1} (not the tail): {exc}"
                ) from exc
        return events


def journal_digest(events_or_path: Union[str, Path, Iterable[dict]]) -> str:
    """Order-insensitive sha256 over the deterministic journal fields.

    Two runs of the same seeded workload — even with different worker
    interleavings — produce the same digest iff every job went through
    the same attempts with the same outcomes, retry delays and result
    digests.
    """
    if isinstance(events_or_path, (str, Path)):
        events: Iterable[dict] = Journal.load(events_or_path)
    else:
        events = events_or_path
    normalized = sorted(
        json.dumps({k: e[k] for k in _DIGEST_FIELDS if k in e},
                   sort_keys=True, separators=(",", ":"))
        for e in events
        if e.get("event") not in _DIGEST_SKIP_EVENTS
    )
    h = hashlib.sha256()
    for line in normalized:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def write_json_atomic(path: Union[str, Path], payload: dict) -> Path:
    """Temp-write + fsync + rename a JSON document (checkpoint discipline)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


# -- store ------------------------------------------------------------- #

class JobStore:
    """Journal-backed bounded job index (the supervisor's scheduling state)."""

    def __init__(self, workdir: Union[str, Path], max_pending: int = 256):
        self.workdir = Path(workdir)
        self.max_pending = max_pending
        self.jobs: Dict[str, Job] = {}
        self._seq = 0
        self._recovered_events = 0
        # eager, so clients can poll results/ before the first completion
        self.results_dir.mkdir(parents=True, exist_ok=True)
        recovered = self._recover(self.journal_path)
        self.journal = Journal(self.journal_path)
        for job in recovered:
            # a worker died holding this job when the service itself was
            # killed: back to pending, attempt count preserved.
            self.journal.append({"event": "recovered", "job": job.id,
                                 "attempt": job.attempt, "ts": time.time()})

    @property
    def journal_path(self) -> Path:
        return self.workdir / "journal.jsonl"

    @property
    def results_dir(self) -> Path:
        return self.workdir / "results"

    def _recover(self, path: Path) -> List[Job]:
        """Replay the journal into the in-memory index; returns re-queued jobs."""
        events = Journal.load(path)
        self._recovered_events = len(events)
        for e in events:
            job = self.jobs.get(e.get("job", ""))
            event = e.get("event")
            if event == "submit":
                self._seq += 1
                self.jobs[e["job"]] = Job(
                    id=e["job"], kind=e["kind"], params=e["params"],
                    max_retries=e.get("max_retries", 3),
                    deadline_s=e.get("deadline_s", 60.0), seq=self._seq,
                )
            elif job is None:
                continue  # event for an unknown job: skip, never crash recovery
            elif event == "start":
                job.status = RUNNING
                job.attempt = e.get("attempt", job.attempt + 1)
            elif event == "done":
                job.status = DONE
                job.result = e.get("result")
            elif event == "fail":
                job.status = FAILED
                job.error = e.get("reason")
                job.not_before = 0.0  # the clock died with the service
            elif event == "quarantine":
                job.status = QUARANTINED
                job.error = e.get("reason")
        requeued = []
        for job in self.jobs.values():
            if job.status == RUNNING:
                job.status = PENDING
                requeued.append(job)
            elif job.status == FAILED:
                job.status = PENDING  # retry immediately: backoff clock is gone
        return requeued

    # -- submission ----------------------------------------------------- #

    def live_count(self) -> int:
        return sum(1 for j in self.jobs.values() if not j.terminal)

    def submit(self, kind: str, params: dict, max_retries: int = 3,
               deadline_s: float = 60.0) -> Job:
        """Admit a job (idempotent by content id; raises QueueFull when bounded out)."""
        if kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {kind!r}; known: {JOB_KINDS}")
        job_id = compute_job_id(kind, params)
        existing = self.jobs.get(job_id)
        if existing is not None:
            return existing
        if self.live_count() >= self.max_pending:
            raise QueueFull(
                f"job store full ({self.live_count()} live jobs >= "
                f"max_pending={self.max_pending}); drain or resize the service"
            )
        self._seq += 1
        job = Job(id=job_id, kind=kind, params=params, max_retries=max_retries,
                  deadline_s=deadline_s, seq=self._seq)
        self.jobs[job_id] = job
        self.journal.append({"event": "submit", "job": job.id, "kind": kind,
                             "params": params, "max_retries": max_retries,
                             "deadline_s": deadline_s, "ts": time.time()})
        return job

    def get(self, job_id: str) -> Job:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise UnknownJob(job_id) from None

    # -- lifecycle transitions (journaled) ------------------------------ #

    def mark_started(self, job: Job, worker: int) -> None:
        job.status = RUNNING
        job.attempt += 1
        self.journal.append({"event": "start", "job": job.id,
                             "attempt": job.attempt, "worker": worker,
                             "ts": time.time()})

    def mark_done(self, job: Job, result: dict) -> None:
        job.status = DONE
        job.result = result
        self.journal.append({"event": "done", "job": job.id,
                             "attempt": job.attempt, "status": "ok",
                             "result_digest": result.get("digest"),
                             "result": result, "ts": time.time()})
        write_json_atomic(self.results_dir / f"{job.id}.json",
                          {"job": job.id, "status": DONE, "result": result})

    def mark_failed(self, job: Job, reason: str, retry_delay_s: float,
                    traceback_text: str = "") -> None:
        job.status = FAILED
        job.error = reason
        job.not_before = time.time() + retry_delay_s
        self.journal.append({"event": "fail", "job": job.id,
                             "attempt": job.attempt, "reason": reason,
                             "retry_delay_s": retry_delay_s,
                             "traceback": traceback_text, "ts": time.time()})

    def mark_quarantined(self, job: Job, reason: str,
                         traceback_text: str = "") -> None:
        job.status = QUARANTINED
        job.error = reason
        self.journal.append({"event": "quarantine", "job": job.id,
                             "attempt": job.attempt, "reason": reason,
                             "traceback": traceback_text, "ts": time.time()})
        write_json_atomic(self.results_dir / f"{job.id}.json",
                          {"job": job.id, "status": QUARANTINED,
                           "reason": reason, "traceback": traceback_text})

    # -- scheduling queries --------------------------------------------- #

    def ready_jobs(self, now: Optional[float] = None) -> List[Job]:
        """Dispatchable jobs in FIFO order (failed ones gated by their backoff)."""
        now = time.time() if now is None else now
        out = [j for j in self.jobs.values()
               if j.status == PENDING
               or (j.status == FAILED and j.not_before <= now)]
        return sorted(out, key=lambda j: j.seq)

    def all_terminal(self) -> bool:
        return all(j.terminal for j in self.jobs.values())

    def counts(self) -> Dict[str, int]:
        out = {s: 0 for s in (PENDING, RUNNING, FAILED, DONE, QUARANTINED)}
        for j in self.jobs.values():
            out[j.status] += 1
        return out

    def digest(self) -> str:
        return journal_digest(self.journal_path)

    def close(self) -> None:
        self.journal.close()
