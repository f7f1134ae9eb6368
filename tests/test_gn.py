import tracemalloc

import numpy as np
import pytest

from eitprobe.errors import DimensionError, IllConditionedError, ProvenanceError
from eitprobe.forward import VoltageFrame
from eitprobe.gn import (PRIORS, GnConfig, _element_reconstruction_matrix,
                         build_reconstruction_matrix, element_to_nodal,
                         reconstruct_gn, smoothness_prior)


@pytest.fixture(scope="module")
def elem_rmat(tiny_jacobian, tiny_mesh):
    """Element-level matrix: the published one before nodal averaging."""
    return _element_reconstruction_matrix(tiny_jacobian, tiny_mesh, GnConfig())


def _normal_equation_residual(jac, mesh, rmat):
    # the matrix must satisfy (Js'Js + lam^2 s^2 P) (V R) = Js' for the
    # volume-scaled Jacobian Js = J / vol; checked without forming inverses
    vols = mesh.volumes
    js = jac.matrix / vols[None, :]
    s2 = np.linalg.norm(js) ** 2 / js.shape[0]
    prior = smoothness_prior(mesh, rmat.config.prior)
    m = rmat.matrix * vols[:, None]
    lhs = js.T @ (js @ m) + (rmat.config.lam ** 2 * s2) * (prior @ m)
    return np.linalg.norm(lhs - js.T) / np.linalg.norm(js.T)


def test_solves_regularized_normal_equations(tiny_jacobian, tiny_mesh,
                                             elem_rmat):
    assert _normal_equation_residual(tiny_jacobian, tiny_mesh, elem_rmat) < 1e-4


def test_tikhonov_prior_normal_equations(tiny_jacobian, tiny_mesh):
    rm = _element_reconstruction_matrix(tiny_jacobian, tiny_mesh,
                                        GnConfig(prior="tikhonov"))
    assert _normal_equation_residual(tiny_jacobian, tiny_mesh, rm) < 1e-9


def test_huge_lambda_suppresses_image(tiny_jacobian, tiny_mesh, tiny_rmat):
    rm = build_reconstruction_matrix(tiny_jacobian, tiny_mesh,
                                     GnConfig(lam=1e6))
    assert np.abs(rm.matrix).max() < 1e-6 * np.abs(tiny_rmat.matrix).max()


def test_single_element_localization(tiny_jacobian, tiny_mesh, elem_rmat):
    c = tiny_mesh.centroids
    e_star = int(np.argmin((np.hypot(c[:, 0], c[:, 1]) - 1.3) ** 2
                           + c[:, 2] ** 2))
    dv = tiny_jacobian.matrix[:, e_star] * 0.15
    image = elem_rmat.matrix @ dv
    top = int(np.argmax(np.abs(image)))
    shared = set(tiny_mesh.tets[top]) & set(tiny_mesh.tets[e_star])
    assert shared, f"peak element {top} does not touch perturbed {e_star}"


def test_matrix_folds_the_nodal_averaging(tiny_mesh, tiny_rmat, elem_rmat):
    assert tiny_rmat.matrix.shape == (tiny_mesh.n_nodes, 928)
    rng = np.random.default_rng(11)
    for _ in range(3):
        dv = rng.normal(size=928) * 1e-4
        expected = element_to_nodal(elem_rmat.matrix @ dv, tiny_mesh)
        got = reconstruct_gn(tiny_rmat, dv, tiny_mesh)
        assert np.abs(got - expected).max() <= 1e-6 * np.abs(expected).max()


def test_build_memory_stays_near_the_jacobian(tiny_jacobian, tiny_mesh):
    # the build must not hold whole element-by-measurement copies of the
    # Jacobian; caches of the mesh are warmed so only the build is counted
    smoothness_prior(tiny_mesh, "laplacian")
    tracemalloc.start()
    try:
        build_reconstruction_matrix(tiny_jacobian, tiny_mesh, GnConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * tiny_jacobian.matrix.nbytes


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
    frame = VoltageFrame(values=np.zeros(928), schedule_id="somethingelse")
    with pytest.raises(ProvenanceError):
        reconstruct_gn(tiny_rmat, frame, tiny_mesh)


def test_dv_length_checked(tiny_rmat, tiny_mesh):
    with pytest.raises(DimensionError):
        reconstruct_gn(tiny_rmat, np.zeros(927), tiny_mesh)


def test_config_validation():
    with pytest.raises(ValueError, match="lam"):
        GnConfig(lam=0.0).validate()
    with pytest.raises(ValueError, match="prior"):
        GnConfig(prior="ridge").validate()


@pytest.mark.parametrize("prior", PRIORS)
def test_non_finite_jacobian_refused(tiny_jacobian_nan, tiny_mesh, prior):
    with pytest.raises(IllConditionedError, match="Jacobian"):
        build_reconstruction_matrix(tiny_jacobian_nan, tiny_mesh,
                                    GnConfig(prior=prior))
