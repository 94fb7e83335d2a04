"""Heartbeat-monitored worker pool for the wave-sim service.

The supervisor owns the :class:`~repro.serve.queue.JobStore` and a pool
of worker processes.  Each scheduling step it

1. drains the shared result queue (marking jobs done / failed),
2. enforces per-job wall-clock **deadlines** and the **heartbeat**
   timeout — both by SIGKILL, never by asking nicely (a hung worker
   cannot cooperate),
3. reaps dead workers (crashed, killed, or chaos-injected), charges the
   failure to the job they held, and **restarts** the pool slot,
4. schedules **retries** with the store's seeded exponential backoff, or
   quarantines jobs that exhausted ``max_retries``,
5. ingests client submissions from the workdir inbox (backpressure:
   a full store leaves the request file in place for a later pass),
6. dispatches ready jobs to idle workers.

Dispatch is per-worker (each worker has a private task queue), so the
supervisor always knows which job died with which process — a shared
task queue would make crash attribution ambiguous.

Everything observable flows through ``repro.obs``: ``serve.*`` counters
(submitted, done, retries, quarantined, worker_restarts, deadline/hang
kills), queue-depth and job-latency histograms, and a ``serve/run`` span
around the drain loop.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from queue import Empty
from typing import Dict, Optional

from repro.obs import get_logger, get_metrics, get_tracer
from repro.serve.queue import (
    FAILED,
    JobStore,
    QUARANTINED,
    QueueFull,
    RUNNING,
    backoff_delay,
    write_json_atomic,
)

__all__ = ["ServiceConfig", "Supervisor", "WorkerHandle"]

log = get_logger(__name__)


@dataclass
class ServiceConfig:
    """Tunables of one service instance (all robustness knobs in one place)."""

    workdir: Path
    workers: int = 2
    max_pending: int = 256
    #: default per-job wall-clock deadline (jobs may carry their own).
    deadline_s: float = 60.0
    #: a worker whose heartbeat is older than this is considered hung.
    heartbeat_timeout_s: float = 5.0
    max_retries: int = 3
    #: seed for the deterministic retry-backoff jitter.
    seed: int = 0
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    poll_s: float = 0.02
    log_level: Optional[str] = None

    def __post_init__(self) -> None:
        self.workdir = Path(self.workdir)


@dataclass
class WorkerHandle:
    """Supervisor-side view of one pool slot."""

    id: int
    process: multiprocessing.process.BaseProcess
    task_q: object
    heartbeat: object
    #: (job_id, attempt, started_at) of the dispatched task, if any.
    current: Optional[tuple] = None
    started_at: float = 0.0
    deadline_s: float = 0.0
    killed: bool = False

    @property
    def busy(self) -> bool:
        return self.current is not None

    def heartbeat_age(self, now: float) -> float:
        return now - float(self.heartbeat.value)


class Supervisor:
    """Owns the store and the pool; drives jobs to a terminal state."""

    def __init__(self, config: ServiceConfig, chaos=None):
        self.config = config
        self.chaos = chaos
        self.store = JobStore(config.workdir, max_pending=config.max_pending)
        # fork keeps worker startup cheap and inherits the warm import
        # state; spawn is the portable fallback.
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        self.result_q = self._ctx.Queue()
        self.workers: Dict[int, WorkerHandle] = {}
        self._next_worker_id = 0
        self._running = False
        self.store.journal.append({"event": "service_start", "pid": os.getpid(),
                                   "workers": config.workers, "ts": time.time()})

    # -- pool management ------------------------------------------------ #

    def _spawn_worker(self) -> WorkerHandle:
        from repro.serve.worker import worker_main

        wid = self._next_worker_id
        self._next_worker_id += 1
        task_q = self._ctx.Queue()
        heartbeat = self._ctx.Value("d", time.time())
        proc = self._ctx.Process(
            target=worker_main,
            args=(wid, task_q, self.result_q, heartbeat,
                  str(self.config.workdir), self.config.log_level),
            daemon=True,
            name=f"repro-serve-worker-{wid}",
        )
        proc.start()
        handle = WorkerHandle(id=wid, process=proc, task_q=task_q,
                              heartbeat=heartbeat)
        self.workers[wid] = handle
        log.info("worker %d spawned (pid %s)", wid, proc.pid)
        return handle

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        while len(self.workers) < self.config.workers:
            self._spawn_worker()

    def _kill_worker(self, handle: WorkerHandle, why: str) -> None:
        """SIGKILL a pool slot (deadline/hang enforcement — no cooperation)."""
        log.warning("killing worker %d (pid %s): %s",
                    handle.id, handle.process.pid, why)
        handle.killed = True
        try:
            if handle.process.pid is not None:
                os.kill(handle.process.pid, signal.SIGKILL)
        except (ProcessLookupError, OSError) as exc:
            log.warning("worker %d kill racing its exit: %s", handle.id, exc)

    # -- scheduling step ------------------------------------------------ #

    def _drain_results(self) -> None:
        while True:
            try:
                record = self.result_q.get_nowait()
            except Empty:
                return
            job_id = record["job"]
            job = self.store.jobs.get(job_id)
            if job is None:
                log.warning("result for unknown job %s dropped", job_id)
                continue
            # clear the slot that ran it
            for handle in self.workers.values():
                if handle.current and handle.current[0] == job_id \
                        and handle.current[1] == record["attempt"]:
                    handle.current = None
                    break
            if record["status"] == "ok":
                # accept an ok result while RUNNING, and also while FAILED
                # or QUARANTINED *for the same attempt* (the reaper charged
                # a kill that raced this record's delivery): rescuing it
                # cancels the redundant retry — or supersedes a quarantine
                # whose final charged attempt actually completed — and
                # keeps results single-computed.
                if job.status == RUNNING or (
                        job.status in (FAILED, QUARANTINED)
                        and job.attempt == record["attempt"]):
                    if job.status == QUARANTINED:
                        log.warning(
                            "job %s: ok result for attempt %d arrived after "
                            "quarantine; superseding quarantine with done",
                            job.id, record["attempt"])
                        get_metrics().inc("serve.quarantine_rescues")
                    self.store.mark_done(job, record["result"])
                    get_metrics().inc("serve.done")
                    get_metrics().observe("serve.job_latency_s",
                                          record.get("elapsed_s", 0.0))
            elif job.status == RUNNING:
                # an error record for an already-FAILED attempt is the
                # reaper's duplicate: charge each attempt exactly once.
                self._handle_failure(job, record.get("reason", "worker error"),
                                     record.get("traceback", ""))

    def _handle_failure(self, job, reason: str, traceback_text: str) -> None:
        """Retry with seeded backoff, or quarantine past max_retries."""
        if job.attempt > job.max_retries:
            self.store.mark_quarantined(job, reason, traceback_text)
            get_metrics().inc("serve.quarantined")
            log.error("job %s quarantined after %d attempts: %s",
                      job.id, job.attempt, reason)
            return
        delay = backoff_delay(self.config.seed, job.id, job.attempt,
                              base=self.config.backoff_base_s,
                              cap=self.config.backoff_cap_s)
        self.store.mark_failed(job, reason, delay, traceback_text)
        get_metrics().inc("serve.retries")
        log.warning("job %s attempt %d failed (%s); retry in %.3fs",
                    job.id, job.attempt, reason, delay)

    def _enforce_timeouts(self, now: float) -> None:
        for handle in self.workers.values():
            if handle.killed or not handle.process.is_alive():
                continue
            if handle.busy and now - handle.started_at > handle.deadline_s:
                self._kill_worker(
                    handle, f"deadline exceeded ({handle.deadline_s:.1f}s)")
                get_metrics().inc("serve.deadline_kills")
            elif handle.heartbeat_age(now) > self.config.heartbeat_timeout_s:
                state = "busy" if handle.busy else "idle"
                self._kill_worker(
                    handle,
                    f"heartbeat stale {handle.heartbeat_age(now):.1f}s ({state})")
                get_metrics().inc("serve.hang_kills")

    def _reap_and_restart(self) -> None:
        dead = [h for h in self.workers.values() if not h.process.is_alive()]
        for handle in dead:
            handle.process.join(timeout=0.1)
            if handle.current is not None:
                job_id, attempt, _ = handle.current
                job = self.store.jobs.get(job_id)
                if job is not None and job.status == RUNNING \
                        and job.attempt == attempt:
                    reason = ("killed by supervisor (deadline/heartbeat)"
                              if handle.killed else "worker died (SIGKILL/crash)")
                    self._handle_failure(job, reason, "")
            del self.workers[handle.id]
            if self._running:
                self._spawn_worker()
                get_metrics().inc("serve.worker_restarts")

    def _ingest_inbox(self) -> None:
        """Admit client-submitted request files (see repro.serve.client)."""
        inbox = self.config.workdir / "inbox"
        if not inbox.is_dir():
            return
        for path in sorted(inbox.glob("*.json")):
            try:
                request = json.loads(path.read_text())
            except ValueError:
                continue  # partially visible write: picked up next pass
            try:
                self.store.submit(
                    request["kind"], request["params"],
                    max_retries=request.get("max_retries",
                                            self.config.max_retries),
                    deadline_s=request.get("deadline_s",
                                           self.config.deadline_s),
                )
            except QueueFull:
                # backpressure: leave the file; the client sees a growing
                # inbox and the next drain pass retries admission.
                get_metrics().inc("serve.backpressure_deferrals")
                return
            except (ValueError, KeyError, TypeError) as exc:
                # ValueError: unknown job kind; KeyError/TypeError: valid
                # JSON that is not a {"kind", "params"} request (missing
                # keys, non-dict payload).  All are rejected and unlinked —
                # a malformed drop must never become a permanent poison
                # pill that crashes every ingest pass.
                reason = str(exc) if isinstance(exc, ValueError) \
                    else f"malformed request ({type(exc).__name__}: {exc})"
                log.error("rejecting inbox request %s: %s", path.name, reason)
                write_json_atomic(
                    self.store.results_dir / f"{path.stem}.json",
                    {"job": path.stem, "status": "rejected", "reason": reason})
                get_metrics().inc("serve.rejected")
                path.unlink(missing_ok=True)
                continue
            get_metrics().inc("serve.submitted")
            path.unlink(missing_ok=True)

    def _assign_jobs(self, now: float) -> None:
        idle = [h for h in self.workers.values()
                if not h.busy and not h.killed and h.process.is_alive()]
        if not idle:
            return
        ready = self.store.ready_jobs(now)
        get_metrics().observe("serve.queue_depth", len(ready))
        for handle, job in zip(idle, ready):
            injection = None
            if self.chaos is not None:
                inj = self.chaos.injection_for(job.id, job.attempt + 1)
                injection = inj.as_dict() if inj is not None else None
            self.store.mark_started(job, handle.id)
            handle.current = (job.id, job.attempt, now)
            handle.started_at = now
            handle.deadline_s = job.deadline_s
            handle.task_q.put({
                "job": job.id, "attempt": job.attempt, "kind": job.kind,
                "params": job.params, "injection": injection,
                "deadline_s": job.deadline_s,
            })

    def step(self) -> None:
        """One scheduling iteration (drain -> enforce -> reap -> admit -> dispatch)."""
        now = time.time()
        self._drain_results()
        self._enforce_timeouts(now)
        self._reap_and_restart()
        self._ingest_inbox()
        self._assign_jobs(now)

    # -- main loop ------------------------------------------------------ #

    def run(self, until_idle: bool = True,
            max_wall_s: Optional[float] = None) -> None:
        """Drive the pool; returns when the store is drained (``until_idle``)
        or ``max_wall_s`` elapses (service mode keeps polling the inbox)."""
        self.start()
        t0 = time.time()
        with get_tracer().span("serve/run", workers=self.config.workers):
            while True:
                self.step()
                busy = any(h.busy for h in self.workers.values())
                inbox = self.config.workdir / "inbox"
                inbox_empty = not inbox.is_dir() \
                    or not any(inbox.glob("*.json"))
                if until_idle and not busy and inbox_empty \
                        and self.store.all_terminal():
                    break
                if max_wall_s is not None and time.time() - t0 > max_wall_s:
                    if until_idle and not self.store.all_terminal():
                        log.error("serve run hit max_wall_s=%.1fs with %s",
                                  max_wall_s, self.store.counts())
                    break
                time.sleep(self.config.poll_s)
        self.export_metrics()

    def shutdown(self) -> None:
        """Stop the pool: polite sentinel, then SIGKILL stragglers."""
        self._running = False
        for handle in self.workers.values():
            try:
                handle.task_q.put_nowait(None)
            except (OSError, ValueError) as exc:
                log.warning("worker %d sentinel failed: %s", handle.id, exc)
        deadline = time.time() + 1.0
        for handle in self.workers.values():
            handle.process.join(timeout=max(0.0, deadline - time.time()))
            if handle.process.is_alive():
                self._kill_worker(handle, "shutdown straggler")
                handle.process.join(timeout=1.0)
        self.workers.clear()
        self.store.close()

    # -- observability --------------------------------------------------- #

    def metrics_snapshot(self) -> dict:
        return get_metrics().snapshot()

    def export_metrics(self) -> Path:
        """Atomically publish the service metrics (CI uploads this)."""
        payload = {
            "kind": "repro-serve-metrics",
            "schema": 1,
            "counts": self.store.counts(),
            "metrics": self.metrics_snapshot(),
        }
        return write_json_atomic(self.config.workdir / "metrics.json", payload)
