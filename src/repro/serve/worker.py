"""Worker-side job execution for the wave-sim service.

A worker is one OS process in the supervisor's pool.  It pulls task
messages off its private task queue, executes them, and pushes one
result record per attempt onto the shared result queue.  Robustness
contract with the supervisor:

* **heartbeats** — the worker stamps a shared ``multiprocessing.Value``
  with ``time.time()`` from *inside* the work loop (once per solver
  step / sweep item), never from a side thread: a genuinely hung job
  stops the heartbeat, which is exactly what the supervisor's monitor
  keys on.
* **crash-only** — the worker never tries to out-clever a failure.  A
  job exception is reported (with traceback) and the worker moves on;
  anything worse (SIGKILL, OOM) simply kills the process and the
  supervisor reaps + restarts it.
* **resumable simulation** — simulate jobs checkpoint every
  ``checkpoint_every`` steps through :mod:`repro.faults.checkpoint`
  (``keep_previous`` rotation on) and resume from the newest intact
  snapshot, so a retried job on a *different* worker reproduces the
  uninterrupted run bit-identically.

Chaos injections (see :mod:`repro.serve.chaos`) arrive inside the task
message and execute at deterministic points in the computation.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
import traceback
from pathlib import Path

import numpy as np

__all__ = ["worker_main", "execute_job", "simulate_result_digest"]

#: queue-poll granularity for an idle worker (also its idle heartbeat rate).
_IDLE_POLL_S = 0.05


def simulate_result_digest(state: np.ndarray, t: float, steps: int) -> str:
    """Bit-exact digest of a finished simulation (the resume invariant)."""
    h = hashlib.sha256()
    h.update(state.tobytes())
    h.update(np.float64(t).tobytes())
    h.update(str(int(steps)).encode())
    return h.hexdigest()[:16]


def _self_kill() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


def _install_checkpoint_killer(target: Path) -> None:
    """Arm a SIGKILL that fires inside the next checkpoint's atomic rename.

    Emulates the real crash window: the temp file is fully written and
    fsynced, the process dies before ``os.replace`` lands the rename.
    Only ever called in a worker that is about to die, so patching the
    process-wide ``os.replace`` is safe — nothing else runs after it.
    """
    real_replace = os.replace

    def killing_replace(src, dst, *args, **kwargs):
        if Path(dst) == target:
            _self_kill()
        return real_replace(src, dst, *args, **kwargs)

    os.replace = killing_replace  # type: ignore[assignment]


# -- job kinds --------------------------------------------------------- #

def _run_simulate(params: dict, job_id: str, workdir: Path, beat,
                  injection) -> dict:
    from repro.dg.solver import SolverConfig, WaveSolver
    from repro.dg.sources import RickerSource
    from repro.faults.checkpoint import CheckpointCorrupt

    cfg = SolverConfig(
        physics=params["physics"],
        refinement_level=int(params.get("level", 1)),
        order=int(params.get("order", 1)),
        flux=params.get("flux", "riemann"),
    )
    solver = WaveSolver(cfg)
    src = params.get("source")
    if src:
        solver.add_source(RickerSource(position=tuple(src["position"]),
                                       peak_frequency=src["peak_frequency"]))
    steps_total = int(params["steps"])
    checkpoint_every = int(params.get("checkpoint_every", 0))
    ckpt_path = workdir / "ckpt" / f"{job_id}.npz"

    resumed_from = 0
    if checkpoint_every:
        try:
            resumed_from = solver.restore_checkpoint(ckpt_path, recover=True)
        except (CheckpointCorrupt, FileNotFoundError, ValueError):
            resumed_from = 0  # cold start: no intact snapshot survived

    n_checkpoints = 0
    while solver.steps_taken < steps_total:
        if (injection is not None and injection.kind == "kill"
                and solver.steps_taken == injection.at_step):
            _self_kill()
        solver.run(1)
        beat()
        if checkpoint_every and solver.steps_taken % checkpoint_every == 0 \
                and solver.steps_taken < steps_total:
            n_checkpoints += 1
            if (injection is not None
                    and injection.kind == "kill_in_checkpoint"
                    and n_checkpoints == injection.at_step):
                _install_checkpoint_killer(ckpt_path)
            solver.save_checkpoint(ckpt_path, keep_previous=True)
    return {
        "digest": simulate_result_digest(solver.state, solver.time,
                                         solver.steps_taken),
        "steps": solver.steps_taken,
        "time": solver.time,
        "energy": solver.energy(),
        "resumed_from_step": resumed_from,
    }


def _run_experiment(params: dict, beat) -> dict:
    from repro.eval.experiments import run_experiment

    beat()
    kwargs = dict(params.get("kwargs") or {})
    table = run_experiment(params["name"], **kwargs)
    beat()
    text = table.render()
    return {
        "digest": hashlib.sha256(text.encode()).hexdigest()[:16],
        "experiment": params["name"],
        "rows": len(getattr(table, "rows", [])),
    }


def _run_sweep(params: dict, job_id: str, workdir: Path, beat,
               injection) -> dict:
    base = dict(params.get("base") or {})
    overrides = params.get("overrides") or [{}]
    items = []
    for i, override in enumerate(overrides):
        item_params = {**base, **override}
        # each sweep point checkpoints under its own derived id
        res = _run_simulate(item_params, f"{job_id}-{i}", workdir, beat,
                            injection if i == 0 else None)
        items.append(res)
        beat()
    h = hashlib.sha256()
    for r in items:
        h.update(r["digest"].encode())
    return {"digest": h.hexdigest()[:16], "items": items}


def _run_test_flaky(params: dict, attempt: int) -> dict:
    fail_attempts = int(params.get("fail_attempts", 0))
    if attempt <= fail_attempts:
        raise RuntimeError(
            f"_test_flaky: induced failure on attempt {attempt} "
            f"(fails through attempt {fail_attempts})"
        )
    blob = f"flaky:{params.get('value')}".encode()
    return {"digest": hashlib.sha256(blob).hexdigest()[:16]}


def _run_test_sleep(params: dict, beat) -> dict:
    seconds = float(params.get("seconds", 0.0))
    keep_beating = bool(params.get("beat", True))
    deadline = time.time() + seconds
    while time.time() < deadline:
        time.sleep(min(_IDLE_POLL_S, max(0.0, deadline - time.time())))
        if keep_beating:
            beat()
    blob = f"sleep:{seconds}".encode()
    return {"digest": hashlib.sha256(blob).hexdigest()[:16]}


def execute_job(task: dict, workdir: Path, beat) -> dict:
    """Dispatch one task message to its job-kind runner."""
    from repro.serve.chaos import Injection

    injection = (Injection.from_dict(task["injection"])
                 if task.get("injection") else None)
    if injection is not None and injection.kind == "hang":
        # stop heartbeating entirely: the supervisor must detect this
        time.sleep(injection.hold_s)
    elif injection is not None and injection.kind == "slow":
        # keep beating but blow the deadline (simulated slow IO)
        deadline = time.time() + injection.hold_s
        while time.time() < deadline:
            time.sleep(_IDLE_POLL_S)
            beat()

    kind, params = task["kind"], task["params"]
    if kind == "simulate":
        return _run_simulate(params, task["job"], workdir, beat, injection)
    if kind == "experiment":
        return _run_experiment(params, beat)
    if kind == "sweep":
        return _run_sweep(params, task["job"], workdir, beat, injection)
    if kind == "_test_flaky":
        return _run_test_flaky(params, task["attempt"])
    if kind == "_test_sleep":
        return _run_test_sleep(params, beat)
    raise ValueError(f"unknown job kind {kind!r}")


# -- process main ------------------------------------------------------- #

def worker_main(worker_id: int, task_q, result_q, heartbeat, workdir: str,
                log_level=None) -> None:
    """Entry point of one pool process (started by the supervisor)."""
    import queue as stdlib_queue

    from repro.obs import configure_logging, get_logger

    configure_logging(log_level or "warning")
    log = get_logger(__name__)
    workdir_path = Path(workdir)

    def beat() -> None:
        heartbeat.value = time.time()

    beat()
    log.info("worker %d up (pid %d)", worker_id, os.getpid())
    while True:
        try:
            task = task_q.get(timeout=_IDLE_POLL_S)
        except stdlib_queue.Empty:
            beat()
            continue
        if task is None:  # shutdown sentinel
            log.info("worker %d shutting down", worker_id)
            return
        beat()
        t0 = time.perf_counter()
        record = {"job": task["job"], "attempt": task["attempt"],
                  "worker": worker_id}
        try:
            result = execute_job(task, workdir_path, beat)
            record.update(status="ok", result=result)
        except Exception as exc:
            record.update(status="error", reason=f"{type(exc).__name__}: {exc}",
                          traceback=traceback.format_exc())
        record["elapsed_s"] = time.perf_counter() - t0
        beat()
        result_q.put(record)
