import math
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import full_jacobian
from scipy.sparse import identity as speye
from scipy.sparse.linalg import splu

from eitprobe import gn
from eitprobe.errors import DimensionError, IllConditionedError, ProvenanceError
from eitprobe.gn import (GnConfig, build_reconstruction_matrix,
                         element_to_nodal, reconstruct_gn, smoothness_prior)


@pytest.fixture(scope="module")
def elem_rmat(tiny_jacobian, tiny_mesh):
    """Element-level matrix: the published one before nodal averaging."""
    return gn._build(tiny_jacobian, tiny_mesh, GnConfig(),
                     speye(tiny_mesh.n_elements, format="csr"))


def _normal_equation_residual(jac, mesh, rmat):
    # the matrix must satisfy (Js'Js + lam^2 s^2 P) (V R) = Js' for the
    # volume-scaled Jacobian Js = J / vol; checked without forming inverses
    vols = mesh.volumes
    js = full_jacobian(jac) / vols[None, :]
    s2 = np.linalg.norm(js) ** 2 / js.shape[0]
    prior = smoothness_prior(mesh)
    m = rmat.matrix[:, jac.row_index] * vols[:, None]
    lhs = js.T @ (js @ m) + (rmat.config.lam ** 2 * s2) * (prior @ m)
    return np.linalg.norm(lhs - js.T) / np.linalg.norm(js.T)


def test_solves_regularized_normal_equations(tiny_jacobian, tiny_mesh,
                                             elem_rmat):
    assert _normal_equation_residual(tiny_jacobian, tiny_mesh, elem_rmat) < 1e-4


def test_huge_lambda_suppresses_image(tiny_jacobian, tiny_mesh, tiny_rmat):
    rm = build_reconstruction_matrix(tiny_jacobian, tiny_mesh,
                                     GnConfig(lam=1e6))
    assert np.abs(rm.matrix).max() < 1e-6 * np.abs(tiny_rmat.matrix).max()


def test_single_element_localization(tiny_jacobian, tiny_mesh, elem_rmat):
    c = tiny_mesh.centroids
    e_star = int(np.argmin((np.hypot(c[:, 0], c[:, 1]) - 1.3) ** 2
                           + c[:, 2] ** 2))
    dv = full_jacobian(tiny_jacobian)[:, e_star] * 0.15
    image = elem_rmat.matrix[:, tiny_jacobian.row_index] @ dv
    top = int(np.argmax(np.abs(image)))
    shared = set(tiny_mesh.tets[top]) & set(tiny_mesh.tets[e_star])
    assert shared, f"peak element {top} does not touch perturbed {e_star}"


def test_matrix_folds_the_nodal_averaging(tiny_jacobian, tiny_mesh,
                                          tiny_rmat, elem_rmat):
    assert tiny_rmat.matrix.shape == (tiny_mesh.n_nodes, 464)
    expand = elem_rmat.matrix[:, tiny_jacobian.row_index]
    rng = np.random.default_rng(11)
    for _ in range(3):
        dv = rng.normal(size=928) * 1e-4
        expected = element_to_nodal(expand @ dv, tiny_mesh)
        got = reconstruct_gn(tiny_rmat, dv, tiny_mesh)
        assert np.abs(got - expected).max() <= 1e-6 * np.abs(expected).max()


def _full_row_push_through(jac, mesh, lam):
    """The nodal matrix from one Jacobian row per measurement, by the
    push-through identity in one piece: W = S^-1 U, R = avg W (I + U'W)^-1,
    with U = (J V^-1 / scale)' and the volume division folded into W."""
    jfull = full_jacobian(jac)
    vols = mesh.volumes
    scale = np.linalg.norm(jfull / vols) / math.sqrt(jfull.shape[0])
    unscale = vols * scale
    w = splu((lam ** 2 * smoothness_prior(mesh)).tocsc()).solve(
        (jfull / unscale).T) / unscale[:, None]
    g = np.eye(jfull.shape[0]) + jfull @ w
    return np.linalg.solve(g, (mesh.averaging_map @ w).T).T


def _assert_matches_the_full_row_push_through(jac, mesh, rmat):
    expect = _full_row_push_through(jac, mesh, rmat.config.lam)
    assert rmat.matrix.shape == (mesh.n_nodes, jac.counts.size)
    assert expect.shape == (mesh.n_nodes, jac.row_index.size)
    got = rmat.matrix[:, jac.row_index]
    assert np.abs(got - expect).max() <= 1e-5 * np.abs(expect).max()


def test_matrix_matches_the_full_row_push_through(tiny_jacobian, tiny_mesh,
                                                  tiny_rmat):
    _assert_matches_the_full_row_push_through(tiny_jacobian, tiny_mesh,
                                              tiny_rmat)


def test_unpaired_rows_match_the_full_row_push_through(lopsided_jacobian,
                                                       tiny_mesh):
    rmat = build_reconstruction_matrix(lopsided_jacobian, tiny_mesh,
                                       GnConfig())
    _assert_matches_the_full_row_push_through(lopsided_jacobian, tiny_mesh,
                                              rmat)


def test_build_solves_once_per_independent_row(tiny_jacobian, tiny_mesh,
                                               monkeypatch):
    columns = []

    class CountingFactor:
        def __init__(self, factor):
            self.factor = factor

        def solve(self, rhs):
            columns.append(rhs.shape[1])
            return self.factor.solve(rhs)

    factor_spd = gn._factor_spd
    monkeypatch.setattr(gn, "_factor_spd",
                        lambda m, err: CountingFactor(factor_spd(m, err)))
    build_reconstruction_matrix(tiny_jacobian, tiny_mesh, GnConfig())
    assert sum(columns) == tiny_jacobian.matrix.shape[0] == 374


def test_build_memory_stays_near_the_jacobian(tiny_jacobian, tiny_mesh):
    # the build must not hold whole element-by-measurement copies of the
    # Jacobian; caches of the mesh are warmed so only the build is counted.
    # The bound is against one row per measurement (46 MB on the tiny mesh);
    # the build reads 0.26 of it with two 16-column blocks in flight (every
    # thread's allocations are traced), 0.72 with two 128-column blocks
    full = tiny_jacobian.row_index.size * tiny_jacobian.matrix[0].nbytes
    smoothness_prior(tiny_mesh)
    tracemalloc.start()
    try:
        build_reconstruction_matrix(tiny_jacobian, tiny_mesh, GnConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.35 * full


@pytest.mark.parametrize("width", [7, 464])
def test_matrix_does_not_depend_on_the_block_width(tiny_jacobian, tiny_mesh,
                                                   tiny_rmat, width,
                                                   monkeypatch):
    # 7 leaves a last block of 3 (374 = 53 * 7 + 3), the default 16 one of
    # 6 (374 = 23 * 16 + 6), and 464 is one block of all 374 rows; only the
    # widths of the dense products change, so only rounding moves
    monkeypatch.setattr(gn, "_BLOCK_COLUMNS", width)
    rm = build_reconstruction_matrix(tiny_jacobian, tiny_mesh, GnConfig())
    ref = tiny_rmat.matrix
    assert np.abs(rm.matrix - ref).max() <= 1e-5 * np.abs(ref).max()


@pytest.mark.parametrize("workers", [1, 4])
def test_matrix_does_not_depend_on_the_workers(tiny_jacobian, tiny_mesh,
                                               tiny_rmat, workers,
                                               monkeypatch):
    # each block is computed by the same operations on any thread, so the
    # pool's size cannot move a bit of R; more workers than cores, switching
    # often, stress the writes of concurrent blocks into shared arrays
    monkeypatch.setattr(gn, "_WORKERS", workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rm = build_reconstruction_matrix(tiny_jacobian, tiny_mesh, GnConfig())
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(rm.matrix, tiny_rmat.matrix)


def test_rebuild_bit_identical(tiny_jacobian, tiny_mesh, tiny_rmat):
    again = build_reconstruction_matrix(tiny_jacobian, tiny_mesh, GnConfig())
    assert np.array_equal(again.matrix, tiny_rmat.matrix)


def test_zero_dv_gives_zero_image(tiny_rmat, tiny_mesh):
    img = reconstruct_gn(tiny_rmat, np.zeros(928), tiny_mesh)
    assert img.shape == (tiny_mesh.n_nodes,)
    assert np.all(img == 0.0)


def test_reconstruction_is_linear(tiny_rmat, tiny_mesh):
    rng = np.random.default_rng(4)
    dv1 = rng.normal(size=928) * 1e-6
    dv2 = rng.normal(size=928) * 1e-6
    a, b = 0.7, -2.3
    combo = reconstruct_gn(tiny_rmat, a * dv1 + b * dv2, tiny_mesh)
    parts = (a * reconstruct_gn(tiny_rmat, dv1, tiny_mesh)
             + b * reconstruct_gn(tiny_rmat, dv2, tiny_mesh))
    assert np.abs(combo - parts).max() <= 1e-10 * np.abs(combo).max()


def test_element_to_nodal_constant(tiny_mesh):
    out = element_to_nodal(np.full(tiny_mesh.n_elements, 3.25), tiny_mesh)
    assert np.abs(out - 3.25).max() < 1e-12


def test_element_to_nodal_single_element(tiny_mesh):
    img = np.zeros(tiny_mesh.n_elements)
    img[17] = 1.0
    out = element_to_nodal(img, tiny_mesh)
    assert set(np.flatnonzero(out)) == set(tiny_mesh.tets[17])


def test_element_to_nodal_matches_accumulation_oracle(tiny_mesh):
    rng = np.random.default_rng(9)
    img = rng.normal(size=tiny_mesh.n_elements)
    acc = np.zeros(tiny_mesh.n_nodes)
    wt = np.zeros(tiny_mesh.n_nodes)
    for e in range(tiny_mesh.n_elements):
        for v in tiny_mesh.tets[e]:
            acc[v] += tiny_mesh.volumes[e] * img[e]
            wt[v] += tiny_mesh.volumes[e]
    expected = acc / wt
    got = element_to_nodal(img, tiny_mesh)
    assert np.abs(got - expected).max() < 1e-12


def test_mesh_provenance_enforced(tiny_jacobian, tiny_mesh, tiny_mesh_alt,
                                  tiny_rmat):
    with pytest.raises(ProvenanceError):
        reconstruct_gn(tiny_rmat, np.zeros(928), tiny_mesh_alt)
    with pytest.raises(ProvenanceError):
        build_reconstruction_matrix(tiny_jacobian, tiny_mesh_alt, GnConfig())


def test_dv_length_checked(tiny_rmat, tiny_mesh):
    with pytest.raises(DimensionError):
        reconstruct_gn(tiny_rmat, np.zeros(927), tiny_mesh)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_dv_refused(tiny_rmat, tiny_mesh, bad):
    # one bad channel would otherwise spread over every node of the image
    dv = np.zeros(928)
    dv[17] = bad
    with pytest.raises(ValueError, match="finite"):
        reconstruct_gn(tiny_rmat, dv, tiny_mesh)


def test_config_validation():
    with pytest.raises(ValueError, match="lam"):
        GnConfig(lam=0.0)


def test_non_finite_jacobian_refused(tiny_jacobian_nan, tiny_mesh):
    with pytest.raises(IllConditionedError, match="Jacobian"):
        build_reconstruction_matrix(tiny_jacobian_nan, tiny_mesh, GnConfig())
