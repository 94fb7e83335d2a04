"""Stream pins: every kernel generator emits fixed instruction streams.

``tests/test_golden_pins.py`` pins what the executor makes of the six
paper benchmarks' check programs; this file pins what the generators
emit in the first place, for all four of them — including the one-block
acoustic and Maxwell mappings and the half-face flux calls the compiler
prices on the Fig. 13 lanes.  Each generator is built at level 1, order 2
on seeded heterogeneous materials, with both of its flux kinds.  For each
it pins a sha256 over every :class:`~repro.pim.isa.Instruction` field
(ints as ints whatever their numpy type, floats via ``float.hex``, arrays
via dtype + shape + bytes) of ``setup()``, ``load_state(state)``,
``volume()``, the minus- and plus-face ``flux`` of one element, the five
``integration`` stages and ``time_step``; and the bytes of
``read_state``/``read_contributions`` after one functional time-step.

Regenerate only for an intentional change to the emitted streams:
``PYTHONPATH=src python tests/test_kernel_streams.py`` prints the table.
"""

import dataclasses
import functools
import hashlib

import numpy as np
import pytest

from repro.core.kernels.acoustic import AcousticFourBlockKernels, AcousticOneBlockKernels
from repro.core.kernels.elastic import ElasticFourBlockKernels
from repro.core.kernels.maxwell import MaxwellOneBlockKernels
from repro.core.mapper import ElementMapper
from repro.dg import AcousticMaterial, ElasticMaterial, HexMesh, ReferenceElement
from repro.dg.maxwell import ElectromagneticMaterial
from repro.pim.chip import PimChip
from repro.pim.executor import ChipExecutor
from repro.pim.isa import Instruction, Opcode
from repro.pim.params import CHIP_CONFIGS

LEVEL = 1
ORDER = 2
DT = 1e-3
CHIP = "512MB"

#: generator, flux kind, blocks per element, physics
GENERATORS = {
    "acoustic1_central": (AcousticOneBlockKernels, "central", 1, "acoustic"),
    "acoustic1_riemann": (AcousticOneBlockKernels, "riemann", 1, "acoustic"),
    "acoustic4_central": (AcousticFourBlockKernels, "central", 4, "acoustic"),
    "acoustic4_riemann": (AcousticFourBlockKernels, "riemann", 4, "acoustic"),
    "elastic4_central": (ElasticFourBlockKernels, "central", 4, "elastic"),
    "elastic4_riemann": (ElasticFourBlockKernels, "riemann", 4, "elastic"),
    "maxwell1_central": (MaxwellOneBlockKernels, "central", 1, "maxwell"),
    "maxwell1_upwind": (MaxwellOneBlockKernels, "upwind", 1, "maxwell"),
}

STREAMS = (
    "setup", "load_state", "volume", "flux_minus", "flux_plus",
    *(f"integration{s}" for s in range(5)),
    "time_step", "read_state", "read_contributions",
)

#: (generator, stream) -> sha256 truncated to 16 hex digits, generated
#: before the shared emission moved into KernelBase.
PINS = {
    ('acoustic1_central', 'setup'): '7c0db3747461b283',
    ('acoustic1_central', 'load_state'): 'd8fc62bce0334816',
    ('acoustic1_central', 'volume'): '4aad6bda810e583c',
    ('acoustic1_central', 'flux_minus'): '326e275b2da0c47e',
    ('acoustic1_central', 'flux_plus'): '84c59092fd1c1b8f',
    ('acoustic1_central', 'integration0'): '6bfcd64f021411ae',
    ('acoustic1_central', 'integration1'): '44da480c85c405c8',
    ('acoustic1_central', 'integration2'): '3d20cf9cf58b8506',
    ('acoustic1_central', 'integration3'): '0d7e820af28ba947',
    ('acoustic1_central', 'integration4'): 'ff3394d0b1161b81',
    ('acoustic1_central', 'time_step'): '19756b0b8d73bbb8',
    ('acoustic1_central', 'read_state'): 'b2d04fc09defd7a7',
    ('acoustic1_central', 'read_contributions'): '036db05a7ac54c70',
    ('acoustic1_riemann', 'setup'): 'c9e2b4a93a557ef6',
    ('acoustic1_riemann', 'load_state'): 'd8fc62bce0334816',
    ('acoustic1_riemann', 'volume'): '4aad6bda810e583c',
    ('acoustic1_riemann', 'flux_minus'): 'fa33ee40270122bb',
    ('acoustic1_riemann', 'flux_plus'): '467891d306bd4791',
    ('acoustic1_riemann', 'integration0'): '6bfcd64f021411ae',
    ('acoustic1_riemann', 'integration1'): '44da480c85c405c8',
    ('acoustic1_riemann', 'integration2'): '3d20cf9cf58b8506',
    ('acoustic1_riemann', 'integration3'): '0d7e820af28ba947',
    ('acoustic1_riemann', 'integration4'): 'ff3394d0b1161b81',
    ('acoustic1_riemann', 'time_step'): '4845ce1b28d1734d',
    ('acoustic1_riemann', 'read_state'): 'ff997f58e1a28466',
    ('acoustic1_riemann', 'read_contributions'): '8196867ccd0d79d0',
    ('acoustic4_central', 'setup'): 'ead48e2bea80c651',
    ('acoustic4_central', 'load_state'): 'eede1dc47cf1a7b1',
    ('acoustic4_central', 'volume'): '30a2497089a219b1',
    ('acoustic4_central', 'flux_minus'): '414e305bd6b2ee9f',
    ('acoustic4_central', 'flux_plus'): '0cfa8dd6cc566723',
    ('acoustic4_central', 'integration0'): 'f3e03374e30e0cf2',
    ('acoustic4_central', 'integration1'): '125fd3f8e84cb882',
    ('acoustic4_central', 'integration2'): '9a97d870ee20e778',
    ('acoustic4_central', 'integration3'): '4b24a6a6bd1c0c45',
    ('acoustic4_central', 'integration4'): 'b01787684df8cd12',
    ('acoustic4_central', 'time_step'): '3e093d64de086c37',
    ('acoustic4_central', 'read_state'): '535d6dbe80060254',
    ('acoustic4_central', 'read_contributions'): '1302ce3533688d0a',
    ('acoustic4_riemann', 'setup'): '8e4fe08388be4efc',
    ('acoustic4_riemann', 'load_state'): 'eede1dc47cf1a7b1',
    ('acoustic4_riemann', 'volume'): '30a2497089a219b1',
    ('acoustic4_riemann', 'flux_minus'): '2dc5ab2fee37e4dd',
    ('acoustic4_riemann', 'flux_plus'): '4707c05eda320c28',
    ('acoustic4_riemann', 'integration0'): 'f3e03374e30e0cf2',
    ('acoustic4_riemann', 'integration1'): '125fd3f8e84cb882',
    ('acoustic4_riemann', 'integration2'): '9a97d870ee20e778',
    ('acoustic4_riemann', 'integration3'): '4b24a6a6bd1c0c45',
    ('acoustic4_riemann', 'integration4'): 'b01787684df8cd12',
    ('acoustic4_riemann', 'time_step'): 'cebbb0cb957e574a',
    ('acoustic4_riemann', 'read_state'): '07df8754f57d0997',
    ('acoustic4_riemann', 'read_contributions'): '995259bfdba85a6b',
    ('elastic4_central', 'setup'): 'ce1e9f94c8d6b034',
    ('elastic4_central', 'load_state'): '960de8d090146788',
    ('elastic4_central', 'volume'): 'e6b29dbd531cd7e5',
    ('elastic4_central', 'flux_minus'): '4c918284ddce2230',
    ('elastic4_central', 'flux_plus'): 'e4e85d772a4f7f9c',
    ('elastic4_central', 'integration0'): 'd8d53b7fbec9fcdb',
    ('elastic4_central', 'integration1'): 'b1a95a81da1c095c',
    ('elastic4_central', 'integration2'): '3d249efd16c99441',
    ('elastic4_central', 'integration3'): 'f032affd173e09a0',
    ('elastic4_central', 'integration4'): '781002ba7f536043',
    ('elastic4_central', 'time_step'): '6819cf305076a9e1',
    ('elastic4_central', 'read_state'): '6a1d8cf8722cb790',
    ('elastic4_central', 'read_contributions'): '86782dbffa1251ff',
    ('elastic4_riemann', 'setup'): '8dbb0291d47ff419',
    ('elastic4_riemann', 'load_state'): '960de8d090146788',
    ('elastic4_riemann', 'volume'): 'e6b29dbd531cd7e5',
    ('elastic4_riemann', 'flux_minus'): 'e6fe61e3d3df236e',
    ('elastic4_riemann', 'flux_plus'): '93b5ab9732754716',
    ('elastic4_riemann', 'integration0'): 'd8d53b7fbec9fcdb',
    ('elastic4_riemann', 'integration1'): 'b1a95a81da1c095c',
    ('elastic4_riemann', 'integration2'): '3d249efd16c99441',
    ('elastic4_riemann', 'integration3'): 'f032affd173e09a0',
    ('elastic4_riemann', 'integration4'): '781002ba7f536043',
    ('elastic4_riemann', 'time_step'): '7e63be6883feea6b',
    ('elastic4_riemann', 'read_state'): '6802256375a6980b',
    ('elastic4_riemann', 'read_contributions'): '8815fc2e8f26c01b',
    ('maxwell1_central', 'setup'): '14ef9571f0b0c0ca',
    ('maxwell1_central', 'load_state'): '56e588efb4200417',
    ('maxwell1_central', 'volume'): 'a091bed595cf26c0',
    ('maxwell1_central', 'flux_minus'): '2cf697389d7dc4e0',
    ('maxwell1_central', 'flux_plus'): '5a5bdc0db631be3e',
    ('maxwell1_central', 'integration0'): 'eb1d2b46ee12fdf3',
    ('maxwell1_central', 'integration1'): 'd1d2d495cbbaa337',
    ('maxwell1_central', 'integration2'): '4edadf3776cc5109',
    ('maxwell1_central', 'integration3'): 'c0b22b9003a39216',
    ('maxwell1_central', 'integration4'): 'c9942cffd847286a',
    ('maxwell1_central', 'time_step'): 'f908db72c51ae00e',
    ('maxwell1_central', 'read_state'): '1e81c4066f9b67b1',
    ('maxwell1_central', 'read_contributions'): '2677ae12a2159fda',
    ('maxwell1_upwind', 'setup'): 'a8ce34161ed00553',
    ('maxwell1_upwind', 'load_state'): '56e588efb4200417',
    ('maxwell1_upwind', 'volume'): 'a091bed595cf26c0',
    ('maxwell1_upwind', 'flux_minus'): 'ffb64e6c6e72e5a0',
    ('maxwell1_upwind', 'flux_plus'): 'a2c4a26b181b4614',
    ('maxwell1_upwind', 'integration0'): 'eb1d2b46ee12fdf3',
    ('maxwell1_upwind', 'integration1'): 'd1d2d495cbbaa337',
    ('maxwell1_upwind', 'integration2'): '4edadf3776cc5109',
    ('maxwell1_upwind', 'integration3'): 'c0b22b9003a39216',
    ('maxwell1_upwind', 'integration4'): 'c9942cffd847286a',
    ('maxwell1_upwind', 'time_step'): '65b47dac26b2c3bf',
    ('maxwell1_upwind', 'read_state'): '2c7564404aec5fb2',
    ('maxwell1_upwind', 'read_contributions'): '2cbc4441770f54b0',
}


def _canon(v) -> str:
    """Type-stable text of one field value; floats exact via hex."""
    if v is None:
        return "N"
    if isinstance(v, Opcode):
        return v.name
    if isinstance(v, str):
        return repr(v)
    if isinstance(v, np.ndarray):
        return f"A{v.dtype.str}{v.shape}:{v.tobytes().hex()}"
    if isinstance(v, (tuple, list)):
        return "(" + ",".join(_canon(x) for x in v) + ")"
    if isinstance(v, dict):
        return "{" + ",".join(f"{_canon(k)}:{_canon(x)}" for k, x in v.items()) + "}"
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return float(v).hex()
    raise TypeError(f"unpinnable field value {v!r}")


_FIELDS = tuple(f.name for f in dataclasses.fields(Instruction))


def stream_sha(insts) -> str:
    h = hashlib.sha256()
    for inst in insts:
        h.update(";".join(f"{n}={_canon(getattr(inst, n))}" for n in _FIELDS).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _array_sha(arr: np.ndarray) -> str:
    return hashlib.sha256(_canon(np.ascontiguousarray(arr)).encode()).hexdigest()[:16]


def build(key):
    """(kernels, initial state) of one generator on seeded materials."""
    cls, flux, g, physics = GENERATORS[key]
    mesh = HexMesh.from_refinement_level(LEVEL)
    elem = ReferenceElement(ORDER)
    rng = np.random.default_rng(2024)
    K = mesh.n_elements
    mapper = ElementMapper(mesh.m, CHIP_CONFIGS[CHIP], g)
    if physics == "acoustic":
        mat = AcousticMaterial(kappa=rng.uniform(1.0, 2.0, K), rho=rng.uniform(0.5, 1.5, K))
        kern = cls(mesh, elem, mat, mapper, flux_kind=flux)
    elif physics == "elastic":
        mat = ElasticMaterial(lam=rng.uniform(1.0, 2.0, K), mu=rng.uniform(0.5, 1.0, K),
                              rho=rng.uniform(0.5, 1.5, K))
        kern = cls(mesh, elem, mat, mapper, flux_kind=flux)
    else:
        mat = ElectromagneticMaterial(eps=rng.uniform(1.0, 2.0, K), mu=rng.uniform(0.5, 1.5, K))
        kern = cls(mesh, elem, mat, mapper, flux_kind=flux,
                   alpha=1.0 if flux == "upwind" else 0.0)
    state = (0.1 * rng.standard_normal((kern.n_vars, K, elem.n_nodes))).astype(np.float32)
    return kern, state


@functools.lru_cache(maxsize=None)
def digests(key) -> dict:
    kern, state = build(key)
    e = int(kern.mapper.elements[kern.mapper.n_elements // 2])
    out = {
        "setup": stream_sha(kern.setup()),
        "load_state": stream_sha(kern.load_state(state)),
        "volume": stream_sha(kern.volume()),
        "flux_minus": stream_sha(kern.flux(faces=(0, 2, 4), elements=[e])),
        "flux_plus": stream_sha(kern.flux(faces=(1, 3, 5), elements=[e])),
    }
    for s in range(5):
        out[f"integration{s}"] = stream_sha(kern.integration(s, DT))
    step = kern.time_step(DT)
    out["time_step"] = stream_sha(step)
    chip = PimChip(CHIP_CONFIGS[CHIP])
    ex = ChipExecutor(chip)
    ex.run(kern.setup() + kern.load_state(state), functional=True)
    ex.run(step, functional=True)
    out["read_state"] = _array_sha(kern.read_state(chip))
    out["read_contributions"] = _array_sha(kern.read_contributions(chip))
    return out


@pytest.mark.parametrize("stream", STREAMS)
@pytest.mark.parametrize("key", sorted(GENERATORS))
def test_stream_matches_pin(key, stream):
    assert digests(key)[stream] == PINS[(key, stream)]


if __name__ == "__main__":  # pragma: no cover - pin regeneration
    for key in GENERATORS:
        for stream, sha in digests(key).items():
            print(f"    ({key!r}, {stream!r}): {sha!r},")
