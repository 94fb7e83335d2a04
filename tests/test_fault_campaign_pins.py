"""Golden pins for the fault campaign and the fault-aware block allocation.

The constants below pin what ``run_campaign`` produced for the
``fault_sweep`` call (``acoustic_4`` and ``elastic_central_4`` at rates
1e-6 and 1e-3 on the H-tree, order 2, 2 steps) under two seeds: per run
the status, the fault counters, the event digest, the solution error
(exact, via ``float.hex``) and, for runs the spare-block remap had to
refuse, the degraded error text.  A mapper built with
``remap_threshold=3`` pins the spare-block remap itself: the excluded
set and where every logical block landed.

Any change to how stuck cells are drawn or counted must keep every pin.
Regenerate only for an intentional change to the fault draws:
``PYTHONPATH=src python tests/test_fault_campaign_pins.py`` prints the
tables.
"""

import hashlib

import pytest

from repro.core.mapper import ElementMapper
from repro.faults import FaultConfig, FaultModel
from repro.faults.campaign import run_campaign
from repro.pim.params import CHIP_CONFIGS

CFG = CHIP_CONFIGS["512MB"]
BENCHMARKS = ("acoustic_4", "elastic_central_4")
RATES = (1e-6, 1e-3)
SEEDS = (0, 101)

#: (seed, benchmark, rate) -> (status, counts, event digest, solution
#: error as float.hex, degraded error); "-" where the run has no such field.
CAMPAIGN_PINS = {
    (0, 'acoustic_4', 1e-06): (
        'ok',
        {'injected': 320, 'detected': 320, 'corrected': 320, 'uncorrected': 0, 'retries': 0, 'remaps': 7, 'wearouts': 0},
        'e3cfedaacea6b912532fca0a002c12a65024de58b2d662eb9e6c24c5d258f3aa',
        '0x0.0p+0',
        '-',
    ),
    (0, 'acoustic_4', 0.001): (
        'degraded',
        {'injected': 0, 'detected': 0, 'corrected': 0, 'uncorrected': 0, 'retries': 0, 'remaps': 0, 'wearouts': 0},
        '-',
        '-',
        'batch of 8 elements x 1 blocks exceeds the 0 healthy blocks left after excluding 4096 faulty of 4096 — use smaller batches',
    ),
    (0, 'elastic_central_4', 1e-06): (
        'ok',
        {'injected': 962, 'detected': 962, 'corrected': 962, 'uncorrected': 0, 'retries': 0, 'remaps': 31, 'wearouts': 0},
        'd87d849ce8d90a59a7db4f64242b1eafe535b86dead0462ffd890b4baa0239bc',
        '0x0.0p+0',
        '-',
    ),
    (0, 'elastic_central_4', 0.001): (
        'degraded',
        {'injected': 0, 'detected': 0, 'corrected': 0, 'uncorrected': 0, 'retries': 0, 'remaps': 0, 'wearouts': 0},
        '-',
        '-',
        'batch of 8 elements x 4 blocks exceeds the 0 healthy blocks left after excluding 4096 faulty of 4096 — use smaller batches',
    ),
    (101, 'acoustic_4', 1e-06): (
        'ok',
        {'injected': 350, 'detected': 350, 'corrected': 350, 'uncorrected': 0, 'retries': 0, 'remaps': 8, 'wearouts': 0},
        'd7507296ef511b685055a0ea9a799c6cb39f363d31c8ac5af5d49555409e963c',
        '0x0.0p+0',
        '-',
    ),
    (101, 'acoustic_4', 0.001): (
        'degraded',
        {'injected': 0, 'detected': 0, 'corrected': 0, 'uncorrected': 0, 'retries': 0, 'remaps': 0, 'wearouts': 0},
        '-',
        '-',
        'batch of 8 elements x 1 blocks exceeds the 0 healthy blocks left after excluding 4096 faulty of 4096 — use smaller batches',
    ),
    (101, 'elastic_central_4', 1e-06): (
        'ok',
        {'injected': 1011, 'detected': 1011, 'corrected': 1011, 'uncorrected': 0, 'retries': 0, 'remaps': 32, 'wearouts': 0},
        '68783fd14b4b8ed022f1d5529e419a784f4c6dad24366d1ebfc2da3f66c18236',
        '0x0.0p+0',
        '-',
    ),
    (101, 'elastic_central_4', 0.001): (
        'degraded',
        {'injected': 0, 'detected': 0, 'corrected': 0, 'uncorrected': 0, 'retries': 0, 'remaps': 0, 'wearouts': 0},
        '-',
        '-',
        'batch of 8 elements x 4 blocks exceeds the 0 healthy blocks left after excluding 4096 faulty of 4096 — use smaller batches',
    ),
}

#: remap_threshold=3 mapper case -> pinned fields.
MAPPER_PIN = {
    'n_bad': 365,
    'bad_sha': '8629f9a0bc215bfc',
    'placed_sha': '960af653bf8fae81',
    'max_block': 70,
    'remaps': 52,
    'event_digest': '4fa4ce38a49334fd',
}


def _run_fields(run: dict) -> tuple:
    err = run.get("solution_rel_err")
    return (
        run["status"],
        dict(run["counts"]),
        run.get("event_digest", "-"),
        "-" if err is None else float(err).hex(),
        run.get("error", "-"),
    )


def _campaign(seed: int) -> dict:
    report = run_campaign(list(BENCHMARKS), rates=RATES, interconnects=("htree",),
                          seed=seed, steps=2, order=2)
    return {(seed, r["benchmark"], r["rate"]): _run_fields(r) for r in report["runs"]}


def _mapper_case() -> dict:
    m = FaultModel(FaultConfig(stuck_cell_rate=1e-6, seed=7, remap_threshold=3))
    bad = sorted(m.bad_blocks(CFG.n_blocks, CFG.block_rows, CFG.row_words))
    mapper = ElementMapper(4, CFG, 1, fault_model=m)
    placed = [mapper.block_of(int(e)) for e in mapper.elements]
    return {
        "n_bad": len(bad),
        "bad_sha": hashlib.sha256(",".join(map(str, bad)).encode()).hexdigest()[:16],
        "placed_sha": hashlib.sha256(",".join(map(str, placed)).encode()).hexdigest()[:16],
        "max_block": max(placed),
        "remaps": m.counts["remaps"],
        "event_digest": m.event_digest()[:16],
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_campaign_matches_pins(seed):
    got = _campaign(seed)
    want = {k: v for k, v in CAMPAIGN_PINS.items() if k[0] == seed}
    assert len(want) == len(BENCHMARKS) * len(RATES)
    assert got == want


def test_remap_threshold_mapper_matches_pin():
    assert _mapper_case() == MAPPER_PIN


if __name__ == "__main__":
    print("CAMPAIGN_PINS = {")
    for seed in SEEDS:
        for k, v in _campaign(seed).items():
            print(f"    {k!r}: (")
            for field in v:
                print(f"        {field!r},")
            print("    ),")
    print("}")
    print("MAPPER_PIN = {")
    for k, v in _mapper_case().items():
        print(f"    {k!r}: {v!r},")
    print("}")
