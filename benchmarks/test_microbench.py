"""Throughput micro-benchmarks of the library's own hot paths.

Unlike the table/figure regenerations these measure *our* simulator's
speed (real pytest-benchmark rounds): the numpy dG right-hand side, the
PIM functional executor, and the transfer scheduler.
"""

import numpy as np
import pytest

from repro.core.kernels.acoustic import AcousticOneBlockKernels
from repro.core.mapper import ElementMapper
from repro.dg import (
    AcousticMaterial,
    AcousticOperator,
    ElasticMaterial,
    ElasticOperator,
    HexMesh,
    ReferenceElement,
)
from repro.interconnect import HTree, Transfer, schedule_transfers
from repro.pim.chip import PimChip
from repro.pim.executor import ChipExecutor
from repro.pim.params import CHIP_CONFIGS


@pytest.mark.benchmark(group="micro")
def test_acoustic_rhs_throughput(benchmark):
    mesh = HexMesh.from_refinement_level(2)
    elem = ReferenceElement(4)
    mat = AcousticMaterial.homogeneous(mesh.n_elements)
    op = AcousticOperator(mesh, mat, elem, flux="riemann")
    q = np.random.default_rng(0).standard_normal((4, mesh.n_elements, elem.n_nodes))
    out = benchmark(op.rhs, q)
    assert np.all(np.isfinite(out))
    benchmark.extra_info["dofs"] = 4 * mesh.n_elements * elem.n_nodes


@pytest.mark.benchmark(group="micro")
def test_elastic_rhs_throughput(benchmark):
    mesh = HexMesh.from_refinement_level(1)
    elem = ReferenceElement(4)
    mat = ElasticMaterial.homogeneous(mesh.n_elements)
    op = ElasticOperator(mesh, mat, elem, flux="riemann")
    q = np.random.default_rng(0).standard_normal((9, mesh.n_elements, elem.n_nodes))
    out = benchmark(op.rhs, q)
    assert np.all(np.isfinite(out))


@pytest.mark.benchmark(group="micro")
def test_pim_functional_step_throughput(benchmark):
    mesh = HexMesh.from_refinement_level(1)
    elem = ReferenceElement(2)
    mat = AcousticMaterial.homogeneous(mesh.n_elements)
    mapper = ElementMapper(mesh.m, CHIP_CONFIGS["512MB"], 1)
    kern = AcousticOneBlockKernels(mesh, elem, mat, mapper, "riemann")
    chip = PimChip(CHIP_CONFIGS["512MB"])
    ex = ChipExecutor(chip)
    state = np.zeros((4, mesh.n_elements, elem.n_nodes), dtype=np.float32)
    ex.run(kern.setup() + kern.load_state(state), functional=True)
    step = kern.time_step(1e-4)

    def run():
        return ex.run(step, functional=True)

    rep = benchmark(run)
    benchmark.extra_info["pim_instructions"] = rep.n_instructions


@pytest.mark.benchmark(group="micro")
def test_scheduler_throughput(benchmark):
    rng = np.random.default_rng(1)
    transfers = [
        Transfer(int(rng.integers(0, 256)), int(rng.integers(0, 256)), 32)
        for _ in range(1000)
    ]
    h = HTree(256)
    res = benchmark(schedule_transfers, h, transfers)
    assert res.n_transfers == 1000


@pytest.mark.benchmark(group="micro")
def test_folded_step_throughput(benchmark):
    """Functional §6.1 folding: one full time-step streamed in windows."""
    from repro.core.folding import FoldedAcousticRunner

    mesh = HexMesh.from_refinement_level(2)
    elem = ReferenceElement(1)
    mat = AcousticMaterial.homogeneous(mesh.n_elements)
    runner = FoldedAcousticRunner(mesh, elem, mat, CHIP_CONFIGS["512MB"], 2)
    state = np.zeros((4, mesh.n_elements, elem.n_nodes), dtype=np.float32)
    state[0, 0, 0] = 1.0
    runner.set_state(state)

    def run():
        return runner.step(1e-3)

    rep = benchmark.pedantic(run, rounds=2, iterations=1)
    assert rep.n_instructions > 0


# --------------------------------------------------------------------- #
# perf-regression guard (methodology lives in repro.eval.bench, shared
# with the `repro bench` subcommand and the CI perf job)
# --------------------------------------------------------------------- #

from repro.eval.bench import (  # noqa: E402
    append_entry,
    history_summary,
    measure_hot_paths,
    regression_failures,
)


def test_perf_regression_guard():
    """Time the hot paths, record the trajectory, fail only on >3x.

    Appends to ``BENCH_perf.json`` at the repo root: the seed baselines,
    this run's numbers (``executor_step_s`` is the warm plan-replay path),
    and the history so regressions are visible as a time series rather
    than a single boolean.  Older history entries may carry ``null`` for
    ``cache_hit_rate``/``plan_reuse_rate`` — those mean "not measured"
    and must never fail the guard.
    """
    entry = measure_hot_paths()
    assert entry["plan_reuse_rate"] is not None and entry["plan_reuse_rate"] > 0
    # hardware-counter roll-ups recorded alongside the timings
    assert 0.0 < entry["block_util"] <= 1.0
    assert 0.0 < entry["link_util"] <= 1.0
    assert entry["binding_resource"] and entry["binding_resource"] != "idle"
    assert entry["counters_overhead"] > 0.0
    doc = append_entry(entry)

    # the null-safe summary must digest the whole history, including
    # pre-plan entries that never recorded the rates.
    summary = history_summary(doc)
    assert summary["entries"] == len(doc["history"])
    for key in ("cache_hit_rate", "plan_reuse_rate"):
        assert summary[key]["measured"] <= summary["entries"]

    failures = regression_failures(entry)
    assert not failures, "\n".join(failures)
