"""The repository's benchmark of record.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with no
tracing; ``--trace 1`` runs the workload's fixed-size pass untraced, traced
and untraced again and reports the per-layer metrics.  Either way the
workload's outputs are checked, and the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A
record with the host fingerprint and the seed is written to
``.perfbench/results/``, the spans of a traced run to ``.perfbench/traces/``.

Everything the run writes stays inside the checkout: the library's compile
cache is pointed at a scratch directory under ``.perfbench/tmp/``, which
is removed at exit.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_grid", "step_replay", "fault_campaign")


def _finite(value: float) -> float:
    """JSON has no infinity: a metric made infinite by a failed operation
    is reported as the largest float, i.e. as bad as it gets."""
    return value if math.isfinite(value) else sys.float_info.max


def _metrics(declared: list, values: dict, fill_missing: bool) -> dict:
    """``{name: {"value", "unit"}}`` in ``BENCHMARK.json`` order.

    With ``fill_missing`` a declared metric the workload did not produce
    reads 0: per-layer metrics of a layer the workload never reaches.
    """
    names = [m["name"] for m in declared]
    unknown = sorted(set(values) - set(names))
    missing = [n for n in names if n not in values]
    if unknown or (missing and not fill_missing):
        raise KeyError(f"metrics not in BENCHMARK.json: {unknown}; "
                       f"declared but not measured: {missing}")
    return {m["name"]: {"value": _finite(float(values.get(m["name"], 0.0))),
                        "unit": m["unit"]}
            for m in declared}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    from harness import (
        Context,
        host_fingerprint,
        import_seconds,
        load_spec,
        peak_rss_mb,
        percentile,
    )

    spec = load_spec(ROOT)
    with open(HERE / "predictions.json", encoding="utf-8") as fh:
        held_out_seed = json.load(fh)["held_out_seed"]

    state = ROOT / ".perfbench"
    tmp = state / "tmp" / f"{args.workload}-{os.getpid()}"
    # run the library in its default configuration, isolated from the
    # caller's environment and from the user-level compile cache.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_CACHE_DIR"] = str(tmp / "cache")
    sys.path.insert(0, str(ROOT / "src"))

    module = importlib.import_module(f"workloads.{args.workload}")
    ctx = Context(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), root=ROOT, tmp=tmp,
        trace_path=state / "traces" / f"{args.workload}-seed{args.seed}.json",
    )
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        import_s = [] if args.trace else import_seconds(ROOT, module.IMPORTS)
        res = module.run(ctx)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    correct = res.attempted >= 1 and res.failed == 0 and all(c.ok for c in res.checks)
    if args.trace:
        metrics = _metrics(spec["per_layer"], res.per_layer, fill_missing=True)
    else:
        setup_s = statistics.median(import_s) + (
            statistics.median(res.setup_samples_s) if res.setup_samples_s else 0.0)
        metrics = _metrics(spec["end_to_end"], {
            "ops_per_s": res.ops_per_s,
            "op_ms_p50": percentile(res.latencies_ms, 50),
            "op_ms_p90": percentile(res.latencies_ms, 90),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
        }, fill_missing=False)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": args.seed == held_out_seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "host": host_fingerprint(ROOT),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "correct": correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "latencies_ms": [_finite(x) for x in res.latencies_ms],
        "import_s": import_s,
        "setup_inprocess_s": res.setup_samples_s,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in res.named.items()},
        "metrics": metrics,
        "failed_checks": [f"{c.name}: {c.detail}" for c in res.checks if not c.ok],
    }
    out_dir = state / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"correct={correct} attempted={res.attempted} failed={res.failed}")
    for c in res.checks:
        if not c.ok:
            print(f"  FAILED CHECK {c.name} {c.detail}")
    for name, (value, unit) in res.named.items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, m in metrics.items():
        print(f"  [{'per_layer' if args.trace else 'end_to_end'}] {name} = "
              f"{m['value']:.6g} {m['unit']}")
    print("host " + json.dumps(record["host"], sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
