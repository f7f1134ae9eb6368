import tracemalloc
from collections import Counter

import numpy as np
import pytest

from eitprobe.errors import DimensionError, IllConditionedError, ProvenanceError
from eitprobe.pdipm import PdipmConfig, build_tv_operator, reconstruct_pdipm_batch

BALL_CENTER = np.array([1.6, 0.0, 0.0])


@pytest.fixture(scope="module")
def tv(tiny_mesh):
    return build_tv_operator(tiny_mesh)


@pytest.fixture(scope="module")
def ball_dv(tiny_mesh, tiny_jacobian):
    inside = np.linalg.norm(tiny_mesh.centroids - BALL_CENTER, axis=1) < 0.8
    assert inside.sum() > 10
    return tiny_jacobian.matrix @ (0.15 * inside.astype(float))


@pytest.fixture(scope="module")
def solved(tiny_jacobian, tv, ball_dv):
    cfg = PdipmConfig(alpha=1e-3, max_iters=25)
    images, traces = reconstruct_pdipm_batch(tiny_jacobian, tv, ball_dv, cfg)
    return images[:, 0], traces[0]


def test_rows_pair_elements_with_cancelling_weights(tv):
    per_row = np.diff(tv.matrix.indptr)
    assert np.all(per_row == 2)
    assert np.all(tv.weights > 0)
    row_sums = tv.matrix @ np.ones(tv.matrix.shape[1])
    assert np.all(row_sums == 0.0)


def test_constant_image_in_kernel(tv):
    out = tv.matrix @ np.full(tv.matrix.shape[1], 7.5)
    assert np.all(out == 0.0)


def test_row_count_matches_face_hash_oracle(tiny_mesh, tv):
    counts = Counter()
    for tet in tiny_mesh.tets:
        a, b, c, d = sorted(int(v) for v in tet)
        for face in ((a, b, c), (a, b, d), (a, c, d), (b, c, d)):
            counts[face] += 1
    shared = sum(1 for n in counts.values() if n == 2)
    assert tv.n_faces == shared


def test_plane_cut_matches_area_oracle(tiny_mesh, tv):
    marker = (tiny_mesh.centroids[:, 2] > 0.5).astype(float)
    cut = np.abs(tv.matrix @ marker).sum()

    owners_of = {}
    for e, tet in enumerate(tiny_mesh.tets):
        a, b, c, d = sorted(int(v) for v in tet)
        for face in ((a, b, c), (a, b, d), (a, c, d), (b, c, d)):
            owners_of.setdefault(face, []).append(e)
    expect = 0.0
    for face, owners in owners_of.items():
        if len(owners) != 2 or marker[owners[0]] == marker[owners[1]]:
            continue
        p0, p1, p2 = (tiny_mesh.nodes[v] for v in face)
        area = 0.5 * np.linalg.norm(np.cross(p1 - p0, p2 - p0))
        c0 = tiny_mesh.nodes[tiny_mesh.tets[owners[0]]].mean(axis=0)
        c1 = tiny_mesh.nodes[tiny_mesh.tets[owners[1]]].mean(axis=0)
        expect += area / np.linalg.norm(c0 - c1)
    assert abs(cut - expect) < 1e-12 * expect


def test_zero_dv_returns_zero_image(tiny_jacobian, tv):
    dv = np.zeros(tiny_jacobian.matrix.shape[0])
    images, traces = reconstruct_pdipm_batch(tiny_jacobian, tv, dv,
                                             PdipmConfig(alpha=1e-3))
    assert np.all(images == 0.0)
    assert traces[0].stopped_reason == "tol"


def test_objective_monotone_and_dual_feasible(solved):
    _x, trace = solved
    obj = np.array(trace.objective)
    assert trace.n_iters > 3
    assert np.all(np.diff(obj) <= 1e-12 * np.abs(obj[:-1]))
    assert max(trace.dual_max) <= 1.0 + 1e-12
    assert all(0 < s <= 1 for s in trace.step_len)


def test_image_peaks_at_the_target(tiny_mesh, solved):
    x, _trace = solved
    top = int(np.argmax(x))
    assert np.linalg.norm(tiny_mesh.centroids[top] - BALL_CENTER) < 1.5


def test_large_alpha_flattens_image(tiny_jacobian, tv, ball_dv):
    lo, _ = reconstruct_pdipm_batch(tiny_jacobian, tv, ball_dv,
                                    PdipmConfig(alpha=1e-3, max_iters=15))
    hi, _ = reconstruct_pdipm_batch(tiny_jacobian, tv, ball_dv,
                                    PdipmConfig(alpha=10.0, max_iters=15))
    tv_lo = np.abs(tv.matrix @ lo[:, 0]).sum()
    tv_hi = np.abs(tv.matrix @ hi[:, 0]).sum()
    assert tv_hi < 1e-2 * tv_lo


def test_batch_agrees_with_single_runs(tiny_mesh, tiny_jacobian, tv, ball_dv):
    second = np.linalg.norm(tiny_mesh.centroids - [0.0, -1.8, 0.5], axis=1) < 0.8
    dv2 = tiny_jacobian.matrix @ (0.15 * second.astype(float))
    batch = np.column_stack([ball_dv, dv2])
    cfg = PdipmConfig(alpha=1e-3, max_iters=45)
    xb, tb = reconstruct_pdipm_batch(tiny_jacobian, tv, batch, cfg)
    for k in range(2):
        xs, ts = reconstruct_pdipm_batch(tiny_jacobian, tv, batch[:, k], cfg)
        assert np.array_equal(xb[:, k], xs[:, 0])
        assert tb[k].objective == ts[0].objective


def test_batch_rerun_bit_identical(tiny_jacobian, tv, ball_dv):
    cfg = PdipmConfig(alpha=1e-3, max_iters=8)
    a, _ = reconstruct_pdipm_batch(tiny_jacobian, tv, ball_dv, cfg)
    b, _ = reconstruct_pdipm_batch(tiny_jacobian, tv, ball_dv, cfg)
    assert np.array_equal(a, b)


def test_solve_memory_stays_below_the_jacobian(tiny_jacobian, tv, ball_dv):
    # the solve must not hold a scaled copy of the Jacobian
    tracemalloc.start()
    try:
        reconstruct_pdipm_batch(tiny_jacobian, tv, ball_dv,
                                PdipmConfig(alpha=1e-3, max_iters=5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * tiny_jacobian.matrix.nbytes


def test_mesh_provenance_enforced(tiny_mesh_alt, tiny_jacobian, ball_dv):
    alt_tv = build_tv_operator(tiny_mesh_alt)
    with pytest.raises(ProvenanceError):
        reconstruct_pdipm_batch(tiny_jacobian, alt_tv, ball_dv,
                                PdipmConfig(alpha=1e-3))


def test_input_validation(tiny_jacobian, tv):
    with pytest.raises(DimensionError):
        reconstruct_pdipm_batch(tiny_jacobian, tv, np.zeros(5),
                                PdipmConfig(alpha=1e-3))
    for bad in (PdipmConfig(alpha=0.0), PdipmConfig(alpha=1.0, tol=2.0)):
        with pytest.raises(ValueError):
            bad.validate()


def test_non_finite_inputs_refused(tiny_jacobian, tiny_jacobian_nan, tv,
                                   ball_dv):
    with pytest.raises(IllConditionedError):
        reconstruct_pdipm_batch(tiny_jacobian_nan, tv, ball_dv,
                                PdipmConfig(alpha=1e-3))
    dv = ball_dv.copy()
    dv[7] = np.nan
    with pytest.raises(ValueError, match="finite"):
        reconstruct_pdipm_batch(tiny_jacobian, tv, dv, PdipmConfig(alpha=1e-3))
