"""Shared fixtures.

`tiny_*` fixtures are deliberately coarse meshes, and the Jacobian and GN
matrix built on them, for unit tests and brute-force oracles. `desk_mesh`
is the default tank and probe at the default refinement, built once per
session for the mesh-size tests.
"""

import dataclasses

import numpy as np
import pytest

from eitprobe.forward import (StimPattern, adjacent_schedule, compute_jacobian,
                              homogeneous_field)
from eitprobe.gn import GnConfig, build_reconstruction_matrix
from eitprobe.mesh import Mesh, RefinementSpec, TankGeometry, build_mesh

SIGMA_REF = 0.15


def full_jacobian(jac):
    """J, one row per measurement in schedule order, from the Jacobian's
    independent rows B: the distinct rows are N B / sqrt(counts)."""
    distinct = jac.basis @ jac.matrix / np.sqrt(jac.counts)[:, None]
    return distinct[jac.row_index]

TINY_DENSITY = RefinementSpec(near=1.2, far=12.0, growth=2.2)


@pytest.fixture(scope="session")
def tiny_geom() -> TankGeometry:
    return TankGeometry(tank_height=16.0)


@pytest.fixture(scope="session")
def tiny_mesh(tiny_geom) -> Mesh:
    return build_mesh(tiny_geom, TINY_DENSITY)


@pytest.fixture(scope="session")
def big_probe_mesh() -> Mesh:
    """The tiny tank around a wider, taller probe than the default one."""
    geom = TankGeometry(probe_radius=1.5, probe_height=6.0, tank_height=16.0)
    return build_mesh(geom, TINY_DENSITY)


@pytest.fixture(scope="session")
def tiny_mesh_alt(tiny_geom) -> Mesh:
    """Same geometry, different interior jitter; for provenance tests."""
    return build_mesh(tiny_geom, RefinementSpec(near=1.2, far=12.0,
                                                growth=2.2, seed=5))


@pytest.fixture(scope="session")
def tiny_schedule(tiny_geom):
    return adjacent_schedule(tiny_geom)


@pytest.fixture(scope="session")
def tiny_jacobian(tiny_mesh, tiny_schedule):
    sigma = homogeneous_field(tiny_mesh, SIGMA_REF)
    return compute_jacobian(tiny_mesh, sigma, StimPattern(), tiny_schedule)


@pytest.fixture(scope="session")
def lopsided_schedule(tiny_schedule):
    """The adjacent schedule less one measurement per injection, the last
    retained pair of even drives and the first of odd ones, so that some
    measurements keep their reciprocal twin and some lose it."""
    retained = np.array([ret[:-1] if d % 2 == 0 else ret[1:]
                         for d, ret in enumerate(tiny_schedule.retained)])
    return dataclasses.replace(tiny_schedule, retained=retained)


@pytest.fixture(scope="session")
def lopsided_jacobian(tiny_mesh, lopsided_schedule):
    sigma = homogeneous_field(tiny_mesh, SIGMA_REF)
    return compute_jacobian(tiny_mesh, sigma, StimPattern(), lopsided_schedule)


@pytest.fixture
def tiny_jacobian_nan(tiny_jacobian):
    """The tiny Jacobian with one NaN entry."""
    matrix = tiny_jacobian.matrix.copy()
    matrix[3, 5] = np.nan
    return dataclasses.replace(tiny_jacobian, matrix=matrix)


@pytest.fixture(scope="session")
def tiny_rmat(tiny_jacobian, tiny_mesh):
    return build_reconstruction_matrix(tiny_jacobian, tiny_mesh, GnConfig())


@pytest.fixture(scope="session")
def desk_mesh() -> Mesh:
    return build_mesh(TankGeometry(), RefinementSpec())
