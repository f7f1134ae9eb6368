import math
import sys
import threading
import time
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from conftest import full_jacobian

from eitprobe import pdipm
from eitprobe.datagen import NoiseModel, add_noise
from eitprobe.errors import DimensionError, IllConditionedError, ProvenanceError
from eitprobe.forward import (StimPattern, VoltageFrame, assemble_system,
                              homogeneous_field, solve_forward)
from eitprobe.pdipm import (_TOL, PdipmConfig, _cg, build_tv_operator,
                            reconstruct_pdipm_batch)

BALL_CENTER = np.array([1.6, 0.0, 0.0])
SIGMA_REF = 0.15


@pytest.fixture(scope="module")
def tv(tiny_mesh):
    return build_tv_operator(tiny_mesh)


@pytest.fixture(scope="module")
def ball_dv(tiny_mesh, tiny_jacobian):
    inside = np.linalg.norm(tiny_mesh.centroids - BALL_CENTER, axis=1) < 0.8
    assert inside.sum() > 10
    jfull = full_jacobian(tiny_jacobian)
    return jfull @ (0.15 * inside.astype(float))


@pytest.fixture(scope="module")
def solved(tiny_jacobian, tv, ball_dv):
    cfg = PdipmConfig(alpha=1e-3, max_iters=25)
    images, traces = reconstruct_pdipm_batch(tiny_jacobian, tv, ball_dv, cfg)
    return images[:, 0], traces[0]


def test_rows_pair_elements_with_cancelling_weights(tv):
    per_row = np.diff(tv.matrix.indptr)
    assert np.all(per_row == 2)
    assert np.all(tv.matrix.data.reshape(-1, 2).max(axis=1) > 0)
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
    assert tv.matrix.shape[0] == shared


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
    dv = np.zeros(tiny_jacobian.row_index.size)
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


def test_trace_counts_cg_iterations_and_shrinks(solved):
    _x, trace = solved
    assert len(trace.cg_iters) == len(trace.shrinks) == trace.n_iters
    assert all(1 <= n <= 30 for n in trace.cg_iters)
    assert all(0 <= n <= 30 for n in trace.shrinks)


def test_trace_records_the_true_cg_residual(tiny_jacobian, tv, ball_dv,
                                            solved, monkeypatch):
    # the recorded residual comes from the CG recurrence; recompute it from
    # the operator each Newton step handed to CG and the direction it got
    true_resid = []

    def recording_cg(apply_op, rhs):
        dx, info = _cg(apply_op, rhs)
        true_resid.append(np.linalg.norm(rhs - apply_op(dx))
                          / np.linalg.norm(rhs))
        return dx, info

    monkeypatch.setattr("eitprobe.pdipm._cg", recording_cg)
    _x, traces = reconstruct_pdipm_batch(tiny_jacobian, tv, ball_dv,
                                         PdipmConfig(alpha=1e-3, max_iters=25))
    trace = traces[0]
    assert trace.objective == solved[1].objective
    assert len(trace.cg_resid) == len(true_resid) == trace.n_iters
    got, want = np.array(trace.cg_resid), np.array(true_resid)
    assert np.all(np.abs(got - want) <= 1e-10 * want)


def _full_row_loop(jfull, lop, dv, cfg):
    """Objectives and stop reason of the interior-point loop run on one
    Jacobian row per measurement, as it ran before twin rows were shared."""
    scale = np.linalg.norm(jfull) / math.sqrt(jfull.shape[0])
    data, alpha = dv / scale, cfg.alpha
    back = (jfull.T @ data) / scale
    fit = (jfull @ back) / scale
    c = (data @ fit) / (fit @ fit)
    beta = float(np.clip(1e-4 * np.abs(back * c).max(), 1e-12, 1e-2))

    def objective(r, lx):
        return 0.5 * (r @ r) + alpha * np.sqrt(lx * lx + beta * beta).sum()

    x, y = np.zeros(lop.shape[1]), np.zeros(lop.shape[0])
    resid, objectives = -data, []
    for _ in range(cfg.max_iters):
        t = lop @ x
        phi = np.sqrt(t * t + beta * beta)
        f_cur = objective(resid, t)
        grad = (jfull.T @ resid) / scale + alpha * (lop.T @ (t / phi))
        dual_w = (1.0 - y * t / phi) / phi
        dx, _ = _cg(lambda v: (jfull.T @ (jfull @ v)) / scale ** 2
                    + alpha * (lop.T @ (dual_w * (lop @ v))), -grad)
        q, ld = (jfull @ dx) / scale, lop @ dx
        s = 1.0
        gdot = grad @ dx
        while objective(resid + s * q, t + s * ld) > f_cur + 1e-4 * s * gdot:
            s *= 0.5
            if s < 0.5 ** 30:
                return objectives, "line_search"
        x += s * dx
        resid = resid + s * q
        dy = (t / phi - y) + (1.0 - y * t / phi) * (s * ld) / phi
        nz = dy != 0
        step = ((np.sign(dy[nz]) - y[nz]) / dy[nz]).min(initial=1.0)
        y = np.clip(y + step * dy, -1.0, 1.0)
        objectives.append(float(objective(resid, t + s * ld)))
        if (f_cur - objectives[-1]) / abs(objectives[-1]) <= _TOL:
            return objectives, "tol"
    return objectives, "max_iters"


def _frames(mesh, jac, schedule):
    """Difference frames with the stop each should reach: two weak far
    targets under the data model's noise, on which the solve stops at tol
    within a few steps, and the noise-free ball, whose first four steps
    already lean on the data term of the Newton operator."""
    system = assemble_system(mesh, homogeneous_field(mesh, SIGMA_REF))
    v_ref = solve_forward(system, StimPattern(), schedule).values
    jfull = full_jacobian(jac)
    frames = []
    for seed, center in ((0, [4.0, 0.0, 0.0]), (1, [3.0, 0.0, 0.0])):
        inside = np.linalg.norm(mesh.centroids - center, axis=1) < 0.8
        clean = VoltageFrame(v_ref + jfull @ (0.15 * inside),
                             schedule.schedule_id)
        noisy = add_noise(clean, schedule, NoiseModel(),
                          np.random.default_rng(seed))
        frames.append((noisy.values - v_ref, PdipmConfig(max_iters=25), "tol"))
    ball = np.linalg.norm(mesh.centroids - BALL_CENTER, axis=1) < 0.8
    frames.append((jfull @ (0.15 * ball), PdipmConfig(max_iters=4),
                   "max_iters"))
    return jfull, frames


@pytest.mark.parametrize("fixtures", [("tiny_schedule", "tiny_jacobian"),
                                      ("lopsided_schedule", "lopsided_jacobian")],
                         ids=["adjacent", "lopsided"])
def test_steps_match_the_full_row_loop(fixtures, tiny_mesh, tv, request):
    schedule, jac = (request.getfixturevalue(name) for name in fixtures)
    jfull, frames = _frames(tiny_mesh, jac, schedule)
    for dv, cfg, stop in frames:
        _x, traces = reconstruct_pdipm_batch(jac, tv, dv, cfg)
        objectives, reason = _full_row_loop(jfull, tv.matrix, dv, cfg)
        assert traces[0].stopped_reason == reason == stop
        assert traces[0].n_iters == len(objectives)
        got = np.array(traces[0].objective)
        assert np.all(np.abs(got - objectives) <= 1e-10 * np.abs(objectives))


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
    jfull = full_jacobian(tiny_jacobian)
    dv2 = jfull @ (0.15 * second.astype(float))
    batch = np.column_stack([ball_dv, dv2])
    cfg = PdipmConfig(alpha=1e-3, max_iters=45)
    xb, tb = reconstruct_pdipm_batch(tiny_jacobian, tv, batch, cfg)
    for k in range(2):
        xs, ts = reconstruct_pdipm_batch(tiny_jacobian, tv, batch[:, k], cfg)
        assert np.array_equal(xb[:, k], xs[:, 0])
        assert tb[k].objective == ts[0].objective


@pytest.mark.parametrize("workers", [1, 2])
def test_images_do_not_depend_on_the_workers(tiny_jacobian, tv, ball_dv,
                                             solved, workers, monkeypatch):
    # the chunks are the same whichever thread computes each one; with one
    # worker there is no pool and the caller computes them all. Switching
    # often interleaves the two threads' claims and makes the caller wait
    # on, or compute again, chunks the worker holds
    monkeypatch.setattr(pdipm, "_WORKERS", workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        images, traces = reconstruct_pdipm_batch(
            tiny_jacobian, tv, ball_dv, PdipmConfig(alpha=1e-3, max_iters=25))
    finally:
        sys.setswitchinterval(interval)
    x, trace = solved
    assert np.array_equal(images[:, 0], x)
    for name in ("objective", "cg_iters", "cg_resid", "shrinks"):
        assert getattr(traces[0], name) == getattr(trace, name)


def test_a_stalled_worker_holds_back_no_chunk():
    # the worker claims one chunk and then stalls; the caller computes the
    # rest, waits about one of its own chunks, and computes that one too
    main = threading.get_ident()
    claimed, release = threading.Event(), threading.Event()

    def chunk(c):
        if threading.get_ident() != main:
            claimed.set()
            release.wait(10.0)
        else:
            claimed.wait(10.0)
        return np.arange(100.0)[c] * 3.0

    with ThreadPoolExecutor(1) as pool:
        start = time.perf_counter()
        got = pdipm._shared(pool, chunk, pdipm._chunks(100))
        took = time.perf_counter() - start
        release.set()
    assert claimed.is_set()
    assert np.array_equal(got, np.arange(100.0) * 3.0)
    assert took < 5.0


def test_chunks_cover_the_range_on_multiples_of_8():
    for n in (0, 7, 100, 464, 6240):
        chunks = pdipm._chunks(n)
        assert len(chunks) == pdipm._CHUNKS
        assert np.array_equal(np.concatenate(
            [np.arange(n)[c] for c in chunks]), np.arange(n))
        assert all(c.start % 8 == 0 for c in chunks)


def test_batch_rerun_bit_identical(tiny_jacobian, tv, ball_dv):
    cfg = PdipmConfig(alpha=1e-3, max_iters=8)
    a, _ = reconstruct_pdipm_batch(tiny_jacobian, tv, ball_dv, cfg)
    b, _ = reconstruct_pdipm_batch(tiny_jacobian, tv, ball_dv, cfg)
    assert np.array_equal(a, b)


def test_solve_memory_stays_below_the_jacobian(tiny_jacobian, tv, ball_dv):
    # the solve must not hold a scaled or expanded copy of the Jacobian,
    # whose rows per measurement take 46 MB on the tiny mesh
    full = tiny_jacobian.row_index.size * tiny_jacobian.matrix[0].nbytes
    tracemalloc.start()
    try:
        reconstruct_pdipm_batch(tiny_jacobian, tv, ball_dv,
                                PdipmConfig(alpha=1e-3, max_iters=5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * full


def test_mesh_provenance_enforced(tiny_mesh_alt, tiny_jacobian, ball_dv):
    alt_tv = build_tv_operator(tiny_mesh_alt)
    with pytest.raises(ProvenanceError):
        reconstruct_pdipm_batch(tiny_jacobian, alt_tv, ball_dv,
                                PdipmConfig(alpha=1e-3))


def test_input_validation(tiny_jacobian, tv):
    n = tiny_jacobian.row_index.size
    for dv in (np.zeros(5), np.zeros(()), np.zeros((n, 2, 1))):
        with pytest.raises(DimensionError):
            reconstruct_pdipm_batch(tiny_jacobian, tv, dv,
                                    PdipmConfig(alpha=1e-3))
    for bad in ({"alpha": 0.0}, {"max_iters": 0}):
        with pytest.raises(ValueError):
            PdipmConfig(**bad)


def test_non_finite_inputs_refused(tiny_jacobian, tiny_jacobian_nan, tv,
                                   ball_dv):
    with pytest.raises(IllConditionedError):
        reconstruct_pdipm_batch(tiny_jacobian_nan, tv, ball_dv,
                                PdipmConfig(alpha=1e-3))
    dv = ball_dv.copy()
    dv[7] = np.nan
    with pytest.raises(ValueError, match="finite"):
        reconstruct_pdipm_batch(tiny_jacobian, tv, dv, PdipmConfig(alpha=1e-3))
