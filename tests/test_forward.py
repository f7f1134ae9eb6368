import csv
import hashlib
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from conftest import full_jacobian
from scipy.sparse.linalg import splu

from eitprobe import forward, gn
from eitprobe.datagen import TargetSpec, rasterize_target
from eitprobe.errors import (DimensionError, IllConditionedError,
                             SingularSystemError)
from eitprobe.forward import (DEFAULT_CONTACT_IMPEDANCE, SparseSystem,
                              StimPattern, _band_sweep, assemble_system,
                              compute_jacobian, homogeneous_field,
                              solve_forward, solve_injections,
                              write_frame_csv)
from eitprobe.mesh import Mesh, RefinementSpec, TankGeometry, _face_areas
from eitprobe.mesh import build_mesh

SIGMA_REF = 0.15

# Recorded once from the tiny-mesh homogeneous solve; guards the whole
# forward chain (grid, assembly, ordering, factorization) bit-for-bit. The
# matrix is summed by a fixed scatter in pattern order; the factorization is
# LAPACK's band Cholesky of the grounded system in solve order (dpbtrf),
# swept in blocks of b rows by dtrsm and dtrmm, with OpenBLAS 0.3.31's
# LAPACK and BLAS; the digest is the same on one BLAS thread and on two.
TINY_FRAME_SHA256 = "37bed4956b22f505e5f1baa2ee8d916dcf72bcdb96e94116d2410eceadcd9eb2"


@pytest.fixture(scope="module")
def tiny_system(tiny_mesh):
    return assemble_system(tiny_mesh, homogeneous_field(tiny_mesh, SIGMA_REF))


@pytest.fixture(scope="module")
def tiny_solutions(tiny_system, tiny_schedule):
    return solve_injections(tiny_system, tiny_schedule, 1.0)


def test_schedule_shape(tiny_schedule):
    assert tiny_schedule.pairs.shape == (32, 2)
    assert tiny_schedule.retained.shape == (32, 29)
    assert tiny_schedule.n_measurements == 928


def test_schedule_pairs_are_adjacent_same_layer(tiny_schedule):
    layer = tiny_schedule.electrode_layer
    for p, m in tiny_schedule.pairs:
        assert layer[p] == layer[m]
        assert (m - p) % 8 in (1, 7)


def test_schedule_drops_shared_electrodes(tiny_schedule):
    for d in range(32):
        drive = set(tiny_schedule.pairs[d])
        for p in tiny_schedule.retained[d]:
            assert not (drive & set(tiny_schedule.pairs[p]))
        dropped = set(range(32)) - set(tiny_schedule.retained[d].tolist())
        assert len(dropped) == 3


def test_schedule_retention_symmetric(tiny_schedule):
    for d in range(32):
        for p in tiny_schedule.retained[d]:
            assert d in tiny_schedule.retained[p]


@pytest.mark.parametrize("name", ["tiny_schedule", "lopsided_schedule"])
def test_measurement_index_matches_the_double_loop(name, request):
    schedule = request.getfixturevalue(name)
    drive, meas, rows = [], [], []
    for d in range(schedule.n_injections):
        for p in schedule.retained[d]:
            drive.append(d)
            meas.append(p)
            rows.append((d, schedule.pairs[p, 0], schedule.pairs[p, 1]))
    got_drive, got_meas = schedule.pair_index
    assert np.array_equal(got_drive, drive)
    assert np.array_equal(got_meas, meas)
    assert schedule.rows.dtype == np.int64
    assert np.array_equal(schedule.rows, rows)


def test_matrix_exactly_symmetric(tiny_system):
    diff = tiny_system.matrix - tiny_system.matrix.T
    assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


def test_matrix_linear_in_sigma_and_admittance(tiny_mesh):
    # doubling sigma and halving the contact impedance doubles the stiffness
    # block and the electrode terms alike, bit for bit
    sigma = np.random.default_rng(0).uniform(0.05, 0.3, tiny_mesh.n_elements)
    a = assemble_system(tiny_mesh, sigma).matrix
    b = assemble_system(tiny_mesh, 2.0 * sigma,
                        DEFAULT_CONTACT_IMPEDANCE / 2.0).matrix
    assert np.array_equal(b.indptr, a.indptr)
    assert np.array_equal(b.indices, a.indices)
    assert np.array_equal(b.data, 2.0 * a.data)


def _assemble_per_call(mesh, sigma, z):
    """The whole CEM assembly computed from scratch as a dense matrix:
    every entry summed in pattern order, then symmetrized; assemble_system
    takes every conductivity-free part from the mesh."""
    n, l = mesh.n_nodes, mesh.n_electrodes
    grads = mesh.shape_gradients
    vols = mesh.volumes
    ke = np.einsum("eik,ejk->eij", grads, grads) * (sigma * vols)[:, None, None]
    ii = np.broadcast_to(mesh.tets[:, :, None], (len(vols), 4, 4))
    jj = np.broadcast_to(mesh.tets[:, None, :], (len(vols), 4, 4))
    rows, cols, vals = [ii.ravel()], [jj.ravel()], [ke.ravel()]
    for k, patch in enumerate(mesh.electrodes):
        fa = _face_areas(mesh.nodes, patch)
        mass = (np.ones((3, 3)) + np.eye(3)) / 12.0
        mvals = mass[None, :, :] * fa[:, None, None] / z
        rows.append(np.broadcast_to(patch[:, :, None], mvals.shape).ravel())
        cols.append(np.broadcast_to(patch[:, None, :], mvals.shape).ravel())
        vals.append(mvals.ravel())
        w = np.repeat(fa / 3.0, 3) / z
        pidx = patch.ravel()
        eidx = np.full(pidx.shape, n + k)
        rows += [pidx, eidx, np.array([n + k])]
        cols += [eidx, pidx, np.array([n + k])]
        vals += [-w, -w, np.array([fa.sum() / z])]
    full = np.zeros((n + l, n + l))
    # unbuffered, in entry order: each sum is rounded as a sequential one
    np.add.at(full, (np.concatenate(rows), np.concatenate(cols)),
              np.concatenate(vals))
    return (full + full.T) * 0.5


def _assert_matches_per_call(mesh, sigma, z):
    got = assemble_system(mesh, sigma, z).matrix
    assert np.array_equal(got.toarray(), _assemble_per_call(mesh, sigma, z))
    return got


def test_assembly_matches_the_per_call_algorithm(tiny_mesh_alt):
    target = TargetSpec(center=(2.5, 0.0, 0.0), semi_axes=(1.0, 1.5, 2.0))
    sigma = rasterize_target(tiny_mesh_alt, target)
    assert 0 < np.count_nonzero(sigma == target.sigma_in) < sigma.size
    for z in (DEFAULT_CONTACT_IMPEDANCE, 0.3):
        _assert_matches_per_call(tiny_mesh_alt, sigma, z)


def test_assembly_keeps_no_conductivity_state(tiny_mesh_alt):
    # alternating fields and impedances: every call matches a fresh
    # assembly, every field has the same structure, and the pattern the
    # mesh holds cannot be written to
    rng = np.random.default_rng(4)
    cases = [(rng.uniform(0.05, 0.3, tiny_mesh_alt.n_elements), z)
             for z in (DEFAULT_CONTACT_IMPEDANCE, 0.07)]
    got = [_assert_matches_per_call(tiny_mesh_alt, sigma, z)
           for sigma, z in cases + cases]
    for matrix in got[1:]:
        assert np.array_equal(matrix.indptr, got[0].indptr)
        assert np.array_equal(matrix.indices, got[0].indices)
    pattern = tiny_mesh_alt.cem_pattern
    for a in (pattern.kernels, pattern.electrode_values, pattern.indptr,
              pattern.indices, pattern.slot, pattern.order):
        assert not a.flags.writeable


def test_sparse_solution_matches_dense_lu(tiny_mesh, tiny_system):
    n = tiny_mesh.n_nodes
    rhs = np.zeros((tiny_system.matrix.shape[0], 2))
    rhs[n + 0, 0], rhs[n + 1, 0] = 1.0, -1.0
    rhs[n + 9, 1], rhs[n + 10, 1] = 1.0, -1.0
    dense = tiny_system.matrix.toarray()
    keep = np.arange(dense.shape[0]) != 0
    lu = sla.lu_factor(dense[keep][:, keep])
    xd = np.zeros_like(rhs)
    xd[keep] = sla.lu_solve(lu, rhs[keep])
    xs = tiny_system.solve(rhs)
    assert np.linalg.norm(xd - xs) / np.linalg.norm(xd) < 1e-10
    # node 0 is the ground in every column
    assert np.all(xs[0] == 0.0)


def test_solve_matches_dense_oracle(tiny_mesh, tiny_system, tiny_schedule):
    # the grounded system is SPD, so a dense Cholesky solve is an oracle
    n = tiny_mesh.n_nodes
    amp = StimPattern().amplitude
    rhs = np.zeros((tiny_system.matrix.shape[0], tiny_schedule.n_injections))
    for d, (plus, minus) in enumerate(tiny_schedule.pairs):
        rhs[n + plus, d], rhs[n + minus, d] = amp, -amp
    keep = np.arange(rhs.shape[0]) != 0
    dense = tiny_system.matrix.toarray()[keep][:, keep]
    u = np.zeros_like(rhs)
    u[keep] = sla.solve(dense, rhs[keep], assume_a="pos")
    u_el = u[n:]
    rows = tiny_schedule.rows
    expect = u_el[rows[:, 1], rows[:, 0]] - u_el[rows[:, 2], rows[:, 0]]
    got = solve_forward(tiny_system, StimPattern(), tiny_schedule).values
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


def test_factor_fill_no_worse_than_unsymmetric_mmd(tiny_mesh):
    # GN's prior is the one system SuperLU still factors: its symmetric
    # mode must fill no more than the unsymmetric one on the same ordering
    prior = gn.smoothness_prior(tiny_mesh)
    factor = gn._factor_spd(prior, IllConditionedError)
    oracle = splu(prior, permc_spec="MMD_AT_PLUS_A")
    assert factor.L.nnz + factor.U.nnz <= oracle.L.nnz + oracle.U.nnz


def _dense_factor(band):
    """The band factor written out as one dense lower triangle."""
    b, m = band.shape[0] - 1, band.shape[1]
    low = np.zeros((m, m))
    for d in range(b + 1):
        c = np.arange(m - d)
        low[c + d, c] = band[d, :m - d]
    return low


def test_block_factor_matches_the_dense_matrix(tiny_mesh_alt):
    # the tiny generation mesh with a contrast target: L L' rebuilds the
    # grounded matrix in solve order, and a solve with node and electrode
    # rows set matches the dense solve
    target = TargetSpec(center=(2.5, 0.0, 0.0), semi_axes=(1.0, 1.5, 2.0))
    sigma = rasterize_target(tiny_mesh_alt, target)
    assert 0 < np.count_nonzero(sigma == target.sigma_in) < sigma.size
    system = assemble_system(tiny_mesh_alt, sigma)
    order = tiny_mesh_alt.cem_pattern.order
    dense = system.matrix.toarray()[order][:, order]
    low = _dense_factor(system._factor)
    assert np.abs(low @ low.T - dense).max() <= 1e-13 * np.abs(dense).max()
    rhs = np.random.default_rng(2).standard_normal((dense.shape[0] + 1, 3))
    rhs[0] = 0.0
    expect = sla.solve(system.matrix.toarray()[1:, 1:], rhs[1:],
                       assume_a="pos")
    got = system.solve(rhs)
    assert np.all(got[0] == 0.0)
    assert np.abs(got[1:] - expect).max() <= 1e-10 * np.abs(expect).max()


@pytest.mark.parametrize("trans", [False, True])
@pytest.mark.parametrize("columns", [1, 3, 32])
def test_band_sweep_matches_the_dense_triangular_solve(tiny_system, columns,
                                                       trans):
    # the tiny factor is 10 whole blocks of b rows and a short last one of
    # 25; right-hand sides start at the top, in the middle of a block and
    # inside the short last block
    band = tiny_system._factor
    b, m = band.shape[0] - 1, band.shape[1]
    assert (m, b) == (1375, 135)
    low = _dense_factor(band)
    rng = np.random.default_rng(columns)
    for first in (0, 3 * b + b // 2, m - m % b + 5):
        y = rng.standard_normal((m, columns))
        y[:first] = 0.0
        got = _band_sweep(band, y, trans)
        expect = sla.solve_triangular(low, y, lower=True, trans=int(trans))
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()
    assert not _band_sweep(band, np.zeros((m, columns)), trans).any()


def test_band_sweep_of_a_single_block():
    # n <= b: the factor is one diagonal block, read through a window of
    # leading dimension b over band rows that lie below the matrix
    rng = np.random.default_rng(6)
    n, b = 5, 8
    a = rng.standard_normal((n, n))
    low = np.linalg.cholesky(a @ a.T + n * np.eye(n))
    band = np.zeros((b + 1, n), order="F")
    for d in range(n):
        band[d, :n - d] = np.diagonal(low, -d)
    y = rng.standard_normal((n, 3))
    for trans in (False, True):
        expect = sla.solve_triangular(low, y, lower=True, trans=int(trans))
        got = _band_sweep(band, y, trans)
        assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()


def _spans(mesh):
    """(node span, solve-order span): the half-bandwidths of the grounded
    node block in mesh order and of the grounded system in solve order,
    read from the mesh's CEM pattern."""
    pattern = mesh.cem_pattern
    size = mesh.n_nodes + mesh.n_electrodes
    rows = pattern.indices
    cols = np.repeat(np.arange(size), np.diff(pattern.indptr))
    grounded = (rows > 0) & (cols > 0)
    nodes = grounded & (rows < mesh.n_nodes) & (cols < mesh.n_nodes)
    position = np.empty(size, dtype=int)
    position[pattern.order] = np.arange(size - 1)
    solve = position[rows[grounded]] - position[cols[grounded]]
    return (int(np.abs(rows[nodes] - cols[nodes]).max()),
            int(np.abs(solve).max()))


def test_block_width_is_the_half_bandwidth_of_the_generation_meshes():
    # one layer plus two rings less one node, then one layer's electrodes
    # placed among the nodes; the factor holds (b + 1) n doubles in band
    # storage, so these widths pin its memory
    for geom, spec, width in [
            (TankGeometry(tank_height=16.0),
             RefinementSpec(near=1.2, far=12.0, growth=2.2, seed=5), 127),
            (TankGeometry(), RefinementSpec(near=0.3, seed=1), 287)]:
        mesh = build_mesh(geom, spec)
        system = assemble_system(mesh, homogeneous_field(mesh, SIGMA_REF))
        epl = geom.electrodes_per_layer
        assert _spans(mesh) == (width, width + epl)
        assert system._factor.shape == (width + epl + 1,
                                        mesh.n_nodes - 1 + mesh.n_electrodes)


def test_electrodes_in_the_middle_of_tall_patches_keep_the_band_narrow():
    # near the probe the elements are small enough that every patch is two
    # element layers tall: an electrode numbered after its patch's last
    # node would reach 874 positions back to the first, while from the
    # middle of the patch the band grows by one layer's electrodes only
    geom = TankGeometry(tank_height=16.0)
    mesh = build_mesh(geom, RefinementSpec(near=0.19, far=12.0, growth=2.2,
                                           seed=5))
    assert mesh.n_nodes == 14688
    assert _spans(mesh) == (527, 527 + geom.electrodes_per_layer)


def test_zero_pivot_raises_singular_system_error(tiny_mesh, tiny_system):
    # an all-zero row and column in the reduced matrix; built by hand, since
    # assembly's connectivity check would reject it before any factorization
    matrix = tiny_system.matrix.tolil()
    matrix[5, :] = 0.0
    matrix[:, 5] = 0.0
    broken = SparseSystem(mesh=tiny_mesh, matrix=matrix.tocsc())
    rhs = np.zeros((matrix.shape[0], 1))
    rhs[tiny_mesh.n_nodes], rhs[tiny_mesh.n_nodes + 1] = 1.0, -1.0
    with pytest.raises(SingularSystemError, match="factorization.*node 5 "):
        broken.solve(rhs)


def test_electrode_without_admittance_raises_singular_system_error(
        tiny_mesh, tiny_system):
    # electrode 3 cut off, its coupling and its diagonal zeroed: its pivot
    # is the first that is not positive, and the error names it
    matrix = tiny_system.matrix.tolil()
    e = tiny_mesh.n_nodes + 3
    matrix[e, :] = 0.0
    matrix[:, e] = 0.0
    broken = SparseSystem(mesh=tiny_mesh, matrix=matrix.tocsc())
    rhs = np.zeros((matrix.shape[0], 1))
    rhs[tiny_mesh.n_nodes], rhs[tiny_mesh.n_nodes + 1] = 1.0, -1.0
    with pytest.raises(SingularSystemError,
                       match="factorization.*electrode 3 "):
        broken.solve(rhs)


def test_solve_takes_columns_only(tiny_system):
    rhs = np.zeros(tiny_system.matrix.shape[0])
    with pytest.raises(DimensionError, match="matrix"):
        tiny_system.solve(rhs)
    with pytest.raises(DimensionError, match="matrix"):
        tiny_system.solve(rhs[1:, None])


def test_reciprocity(tiny_mesh, tiny_schedule, tiny_solutions):
    u_el = tiny_solutions[tiny_mesh.n_nodes:, :]
    pairs = tiny_schedule.pairs
    t = u_el[pairs[:, 0], :] - u_el[pairs[:, 1], :]
    rel = np.abs(t - t.T) / np.maximum(np.abs(t), np.abs(t.T))
    assert rel.max() < 1e-8


def test_current_conservation(tiny_system, tiny_solutions):
    currents = tiny_system.electrode_currents(tiny_solutions)
    assert np.abs(currents.sum(axis=0)).max() <= 1e-12  # amplitude is 1 here


def test_contrast_field_conserves_current_and_matches_dense(tiny_mesh,
                                                            tiny_schedule):
    # an inclusion next to the electrodes, twice the background conductivity
    target = TargetSpec(center=(2.5, 0.0, 0.0), semi_axes=(1.0, 1.5, 2.0))
    sigma = rasterize_target(tiny_mesh, target)
    assert 0 < np.count_nonzero(sigma == target.sigma_in) < sigma.size
    system = assemble_system(tiny_mesh, sigma)
    u = solve_injections(system, tiny_schedule, 1.0)
    currents = system.electrode_currents(u)
    assert np.abs(currents.sum(axis=0)).max() <= 1e-12
    keep = np.arange(u.shape[0]) != 0
    dense = system.matrix.toarray()[keep][:, keep]
    rhs = np.zeros_like(u)
    n = tiny_mesh.n_nodes
    for d, (plus, minus) in enumerate(tiny_schedule.pairs):
        rhs[n + plus, d], rhs[n + minus, d] = 1.0, -1.0
    expect = sla.solve(dense, rhs[keep], assume_a="pos")
    assert np.abs(u[keep] - expect).max() <= 1e-12 * np.abs(expect).max()


def test_conductivity_scaling_law(tiny_mesh, tiny_schedule):
    # scaling the medium means scaling both the bulk conductivity and the
    # electrode interface conductance; voltages then scale by 1/k
    pat = StimPattern()
    a = assemble_system(tiny_mesh, homogeneous_field(tiny_mesh, SIGMA_REF))
    b = assemble_system(tiny_mesh, homogeneous_field(tiny_mesh, 2.0 * SIGMA_REF),
                        contact_impedance=DEFAULT_CONTACT_IMPEDANCE / 2.0)
    fa = solve_forward(a, pat, tiny_schedule).values
    fb = solve_forward(b, pat, tiny_schedule).values
    assert np.abs(fb - fa / 2.0).max() <= 1e-10 * np.abs(fa).max()


def test_frame_linearity_in_amplitude(tiny_system, tiny_schedule):
    fa = solve_forward(tiny_system, StimPattern(amplitude=5e-6), tiny_schedule).values
    fb = solve_forward(tiny_system, StimPattern(amplitude=1e-5), tiny_schedule).values
    assert np.abs(fb - 2.0 * fa).max() <= 1e-12 * np.abs(fb).max()


def test_baseline_frame_regression(tiny_system, tiny_schedule):
    frame = solve_forward(tiny_system, StimPattern(), tiny_schedule)
    digest = hashlib.sha256(
        np.ascontiguousarray(frame.values, dtype="<f8").tobytes()).hexdigest()
    assert digest == TINY_FRAME_SHA256


def test_jacobian_matches_finite_differences(tiny_mesh, tiny_schedule):
    pat = StimPattern()
    sigma = homogeneous_field(tiny_mesh, SIGMA_REF)
    jac = compute_jacobian(tiny_mesh, sigma, pat, tiny_schedule)
    delta = 1e-6 * SIGMA_REF
    rng = np.random.default_rng(11)
    for e in rng.choice(tiny_mesh.n_elements, size=6, replace=False):
        sp, sm = sigma.copy(), sigma.copy()
        sp[e] += delta
        sm[e] -= delta
        vp = solve_forward(assemble_system(tiny_mesh, sp), pat, tiny_schedule).values
        vm = solve_forward(assemble_system(tiny_mesh, sm), pat, tiny_schedule).values
        fd = (vp - vm) / (2.0 * delta)
        col = full_jacobian(jac)[:, e]
        err = np.abs(fd - col)
        ok = (err <= 1e-3 * np.abs(col)) | (err <= 1e-12)
        assert ok.all(), f"element {e}: worst abs {err.max():.3e}"


def _einsum_jacobian(mesh, schedule):
    """One row per measurement by the per-injection einsum, the way the
    Jacobian was computed before reciprocal rows were shared."""
    system = assemble_system(mesh, homogeneous_field(mesh, SIGMA_REF))
    sols = solve_injections(system, schedule, 1.0)
    ge = np.einsum("mfp,mfk->mpk", sols[:mesh.n_nodes][mesh.tets],
                   mesh.shape_gradients)
    blocks = [np.einsum("mk,mpk->pm", ge[:, d, :], ge[:, ret, :])
              for d, ret in enumerate(schedule.retained)]
    expect = np.concatenate(blocks)
    expect *= -StimPattern().amplitude * mesh.volumes[None, :]
    return expect


def _distinct_rows(mesh, schedule):
    """The distinct rows Jd, in order of first use, by the kernel that
    ``compute_jacobian`` runs on each basis block."""
    g = forward._unit_gradients(mesh, homogeneous_field(mesh, SIGMA_REF),
                                schedule)
    first, _ = forward._reciprocal_rows(schedule)
    drive, meas = (a[first] for a in schedule.pair_index)
    return forward._distinct_rows(g, drive, meas,
                                  -StimPattern().amplitude * mesh.volumes)


def test_jacobian_matches_the_einsum_products(tiny_mesh, tiny_schedule,
                                              tiny_jacobian):
    expect = _einsum_jacobian(tiny_mesh, tiny_schedule)
    got = _distinct_rows(tiny_mesh, tiny_schedule)
    assert np.array_equal(got[tiny_jacobian.row_index], expect)


def _assert_reciprocal_pairing(schedule, jac):
    # measurements share a row exactly when they pair the same two
    # electrode pairs, one as drive and the other as measurement
    pair_id = {tuple(pq): i for i, pq in enumerate(schedule.pairs.tolist())}
    row_of = {}
    for k, (d, a, b) in enumerate(schedule.rows.tolist()):
        key = frozenset((d, pair_id[(a, b)]))
        assert row_of.setdefault(key, jac.row_index[k]) == jac.row_index[k]
    assert sorted(row_of.values()) == list(range(jac.basis.shape[0]))
    assert np.array_equal(jac.counts, np.bincount(jac.row_index))


def test_jacobian_holds_each_reciprocal_row_once(tiny_schedule, tiny_jacobian):
    assert tiny_jacobian.basis.shape[0] == 464
    assert np.all(tiny_jacobian.counts == 2)
    _assert_reciprocal_pairing(tiny_schedule, tiny_jacobian)
    rows, pairs = tiny_schedule.rows, tiny_schedule.pairs
    for i in range(464):
        k1, k2 = np.flatnonzero(tiny_jacobian.row_index == i)
        # the twins swap injection and measurement pair
        assert np.array_equal(pairs[rows[k1, 0]], rows[k2, 1:])
        assert np.array_equal(pairs[rows[k2, 0]], rows[k1, 1:])


def test_jacobian_of_a_schedule_with_unpaired_rows(tiny_mesh, lopsided_schedule,
                                                   lopsided_jacobian):
    counts = lopsided_jacobian.counts
    assert set(counts.tolist()) == {1, 2}
    assert counts.sum() == lopsided_schedule.n_measurements == 896
    _assert_reciprocal_pairing(lopsided_schedule, lopsided_jacobian)
    expect = _einsum_jacobian(tiny_mesh, lopsided_schedule)
    got = _distinct_rows(tiny_mesh, lopsided_schedule)
    assert np.array_equal(got[lopsided_jacobian.row_index], expect)


_SCHEDULES = pytest.mark.parametrize(
    "fixtures", [("tiny_schedule", "tiny_jacobian"),
                 ("lopsided_schedule", "lopsided_jacobian")],
    ids=["adjacent", "lopsided"])


@_SCHEDULES
def test_kirchhoff_relations_annihilate_the_distinct_rows(fixtures, tiny_mesh,
                                                          request):
    schedule, jac = (request.getfixturevalue(name) for name in fixtures)
    rel = forward._kirchhoff_relations(schedule, jac.row_index)
    jd = _distinct_rows(tiny_mesh, schedule)
    assert rel.shape[0] > 0
    assert np.abs(rel @ jd).max() <= 1e-13 * np.abs(jd).max()


def test_adjacent_relations_leave_374_independent_rows(tiny_mesh,
                                                       tiny_schedule,
                                                       tiny_jacobian):
    # per drive, one relation on each of the three whole rings it does not
    # touch; each cross-ring block of 64 rows has 16 relations of rank 15
    rel = forward._kirchhoff_relations(tiny_schedule, tiny_jacobian.row_index)
    assert rel.shape == (96, 464)
    assert np.linalg.matrix_rank(rel) == 90
    assert tiny_jacobian.matrix.shape == (374, tiny_mesh.n_elements)
    # the relations are all the rank J loses: an SVD of Jd agrees
    jd = _distinct_rows(tiny_mesh, tiny_schedule)
    assert np.linalg.matrix_rank(jd) == 374
    # a relation stays on one ring, so the basis splits into the 80
    # same-ring rows no relation touches and one block per pair of rings
    blocks = forward._basis_blocks(tiny_schedule, tiny_jacobian.row_index)
    shapes = sorted(n.shape for _, n in blocks)
    assert shapes == [(1, 1)] * 80 + [(64, 49)] * 6


@_SCHEDULES
def test_basis_is_orthonormal_and_reproduces_the_distinct_rows(
        fixtures, tiny_mesh, request):
    schedule, jac = (request.getfixturevalue(name) for name in fixtures)
    n, root = jac.basis, np.sqrt(jac.counts)
    assert np.abs(n.T @ n - np.eye(n.shape[1])).max() <= 1e-13
    # N spans every weighted vector the relations allow, and no other
    rel = forward._kirchhoff_relations(schedule, jac.row_index) / root
    assert n.shape[1] == n.shape[0] - np.linalg.matrix_rank(rel)
    assert np.abs(rel @ n).max() <= 1e-13
    jd = _distinct_rows(tiny_mesh, schedule)
    back = n @ jac.matrix / root[:, None]
    assert np.abs(back - jd).max() <= 1e-13 * np.abs(jd).max()


def test_jacobian_memory_stays_below_the_full_matrix(tiny_mesh, tiny_schedule,
                                                     tiny_jacobian):
    # one row per measurement would take 46 MB on the tiny mesh; the caches
    # of the mesh are warm from the fixture, so only the call is counted.
    # The distinct rows are projected block by block, so the call holds
    # less than its output and all 464 distinct rows (42 MB) beside it
    row = tiny_jacobian.matrix[0].nbytes
    full = tiny_jacobian.row_index.size * row
    output = tiny_jacobian.matrix.nbytes + tiny_jacobian.basis.nbytes
    distinct = tiny_jacobian.basis.shape[0] * row
    sigma = homogeneous_field(tiny_mesh, SIGMA_REF)
    tracemalloc.start()
    try:
        compute_jacobian(tiny_mesh, sigma, StimPattern(), tiny_schedule)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full
    assert peak < output + distinct


def test_jacobian_deterministic(tiny_mesh, tiny_schedule):
    sigma = homogeneous_field(tiny_mesh, SIGMA_REF)
    a = compute_jacobian(tiny_mesh, sigma, StimPattern(), tiny_schedule)
    b = compute_jacobian(tiny_mesh, sigma, StimPattern(), tiny_schedule)
    assert np.array_equal(a.matrix, b.matrix)


def test_jacobian_sensitivity_decays_with_distance(tiny_mesh, tiny_schedule):
    sigma = homogeneous_field(tiny_mesh, SIGMA_REF)
    jac = compute_jacobian(tiny_mesh, sigma, StimPattern(), tiny_schedule)
    colnorm = np.linalg.norm(full_jacobian(jac), axis=0)
    rho = np.hypot(tiny_mesh.centroids[:, 0], tiny_mesh.centroids[:, 1])
    z = tiny_mesh.centroids[:, 2]
    near = np.argmin((rho - 1.0) ** 2 + z ** 2)
    far = np.argmax(rho + np.abs(z))
    assert colnorm[near] > 100.0 * colnorm[far]
    # every element within the imaging region has measurable sensitivity
    region = (rho - tiny_mesh.geometry.probe_radius <= 10.0) & (np.abs(z) <= 10.0)
    assert colnorm[region].min() > 0.0


def test_frame_csv_bytes_match_csv_writer(tiny_system, tiny_schedule,
                                         tmp_path):
    frame = solve_forward(tiny_system, StimPattern(), tiny_schedule)
    path = tmp_path / "frame.csv"
    write_frame_csv(frame, tiny_schedule, path)
    oracle = tmp_path / "oracle.csv"
    with open(oracle, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["injection", "meas_plus", "meas_minus", "volts"])
        for (d, p, m), v in zip(tiny_schedule.rows, frame.values):
            writer.writerow([int(d), int(p), int(m), repr(float(v))])
    assert path.read_bytes() == oracle.read_bytes()


def test_bad_conductivity_rejected(tiny_mesh):
    with pytest.raises(DimensionError):
        assemble_system(tiny_mesh, np.ones(3))
    bad = homogeneous_field(tiny_mesh, SIGMA_REF)
    bad[7] = -1.0
    with pytest.raises(ValueError):
        assemble_system(tiny_mesh, bad)


def test_disconnected_system_rejected(tiny_mesh):
    nodes = np.vstack([tiny_mesh.nodes, [[50.0, 50.0, 50.0]]])
    orphaned = Mesh(geometry=tiny_mesh.geometry, nodes=nodes, tets=tiny_mesh.tets,
                    electrodes=tiny_mesh.electrodes)
    # the verdict is kept with the mesh, and a second call still refuses
    for _ in range(2):
        with pytest.raises(SingularSystemError):
            assemble_system(orphaned, homogeneous_field(orphaned, SIGMA_REF))
