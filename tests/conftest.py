"""Shared fixtures: small meshes/elements keep the functional tests fast."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dg import (
    AcousticMaterial,
    ElasticMaterial,
    HexMesh,
    ReferenceElement,
)
from repro.pim.chip import PimChip
from repro.pim.params import CHIP_CONFIGS


@pytest.fixture(scope="session")
def elem2() -> ReferenceElement:
    """Order-2 element (27 nodes) — cheap but non-trivial."""
    return ReferenceElement(2)


@pytest.fixture(scope="session")
def elem3() -> ReferenceElement:
    return ReferenceElement(3)


@pytest.fixture(scope="session")
def mesh_l1() -> HexMesh:
    """Level-1 periodic mesh: 8 elements."""
    return HexMesh.from_refinement_level(1)


@pytest.fixture(scope="session")
def mesh_l2() -> HexMesh:
    return HexMesh.from_refinement_level(2)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture()
def het_acoustic(mesh_l1, rng) -> AcousticMaterial:
    """Heterogeneous acoustic material on the level-1 mesh."""
    k = mesh_l1.n_elements
    return AcousticMaterial(
        kappa=rng.uniform(1.0, 2.0, k), rho=rng.uniform(0.5, 1.5, k)
    )


@pytest.fixture()
def het_elastic(mesh_l1, rng) -> ElasticMaterial:
    k = mesh_l1.n_elements
    return ElasticMaterial(
        lam=rng.uniform(1.0, 2.0, k),
        mu=rng.uniform(0.5, 1.5, k),
        rho=rng.uniform(0.8, 1.2, k),
    )


@pytest.fixture()
def chip_512():
    return PimChip(CHIP_CONFIGS["512MB"])


def rel_err(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(1e-300, float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / denom
