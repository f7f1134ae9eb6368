import hashlib

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.sparse.linalg import splu

from eitprobe.errors import DimensionError, SingularSystemError
from eitprobe.forward import (DEFAULT_CONTACT_IMPEDANCE, SparseSystem,
                              StimPattern, assemble_system, compute_jacobian,
                              homogeneous_field, read_frame_csv, solve_forward,
                              solve_injections, write_frame_csv)
from eitprobe.mesh import Mesh

SIGMA_REF = 0.15

# Recorded once from the tiny-mesh homogeneous solve; guards the whole
# forward chain (grid, assembly, ordering, factorization) bit-for-bit. The
# factorization is SuperLU's symmetric mode: MMD_AT_PLUS_A ordering with
# diagonal pivots (diag_pivot_thresh=0), then one refinement step.
TINY_FRAME_SHA256 = "74d167ff7b6c9857724bd1d06241502ffaf64410c7d56665f08628d67eeeb27d"


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


def test_sparse_solution_matches_dense_lu(tiny_mesh, tiny_system):
    n = tiny_mesh.n_nodes
    rhs = np.zeros((tiny_system.matrix.shape[0], 2))
    rhs[n + 0, 0], rhs[n + 1, 0] = 1.0, -1.0
    rhs[n + 9, 1], rhs[n + 10, 1] = 1.0, -1.0
    dense = tiny_system.matrix.toarray()
    keep = np.arange(dense.shape[0]) != tiny_system.ground_index
    lu = sla.lu_factor(dense[keep][:, keep])
    xd = np.zeros_like(rhs)
    xd[keep] = sla.lu_solve(lu, rhs[keep])
    xs = tiny_system.solve(rhs)
    assert np.linalg.norm(xd - xs) / np.linalg.norm(xd) < 1e-10


def test_solve_matches_dense_oracle(tiny_mesh, tiny_system, tiny_schedule):
    # the grounded system is SPD, so a dense Cholesky solve is an oracle
    n = tiny_mesh.n_nodes
    amp = StimPattern().amplitude
    rhs = np.zeros((tiny_system.matrix.shape[0], tiny_schedule.n_injections))
    for d, (plus, minus) in enumerate(tiny_schedule.pairs):
        rhs[n + plus, d], rhs[n + minus, d] = amp, -amp
    keep = np.arange(rhs.shape[0]) != tiny_system.ground_index
    dense = tiny_system.matrix.toarray()[keep][:, keep]
    u = np.zeros_like(rhs)
    u[keep] = sla.solve(dense, rhs[keep], assume_a="pos")
    u_el = u[n:]
    rows = tiny_schedule.rows
    expect = u_el[rows[:, 1], rows[:, 0]] - u_el[rows[:, 2], rows[:, 0]]
    got = solve_forward(tiny_system, StimPattern(), tiny_schedule).values
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


def test_factor_fill_no_worse_than_unsymmetric_mmd(tiny_system):
    reduced, factor, _ = tiny_system._reduced
    oracle = splu(reduced, permc_spec="MMD_AT_PLUS_A")
    assert factor.L.nnz + factor.U.nnz <= oracle.L.nnz + oracle.U.nnz


def test_zero_pivot_raises_singular_system_error(tiny_mesh, tiny_system):
    # an all-zero row and column in the reduced matrix; built by hand, since
    # assembly's connectivity check would reject it before any factorization
    matrix = tiny_system.matrix.tolil()
    matrix[5, :] = 0.0
    matrix[:, 5] = 0.0
    broken = SparseSystem(mesh=tiny_mesh, matrix=matrix.tocsc(),
                          ground_index=tiny_system.ground_index)
    rhs = np.zeros(matrix.shape[0])
    rhs[tiny_mesh.n_nodes], rhs[tiny_mesh.n_nodes + 1] = 1.0, -1.0
    with pytest.raises(SingularSystemError, match="factorization"):
        broken.solve(rhs)


def test_reciprocity(tiny_mesh, tiny_schedule, tiny_solutions):
    u_el = tiny_solutions[tiny_mesh.n_nodes:, :]
    pairs = tiny_schedule.pairs
    t = u_el[pairs[:, 0], :] - u_el[pairs[:, 1], :]
    rel = np.abs(t - t.T) / np.maximum(np.abs(t), np.abs(t.T))
    assert rel.max() < 1e-8


def test_current_conservation(tiny_system, tiny_solutions):
    currents = tiny_system.electrode_currents(tiny_solutions)
    assert np.abs(currents.sum(axis=0)).max() <= 1e-12  # amplitude is 1 here


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
        col = jac.matrix[:, e]
        err = np.abs(fd - col)
        ok = (err <= 1e-3 * np.abs(col)) | (err <= 1e-12)
        assert ok.all(), f"element {e}: worst abs {err.max():.3e}"


def test_jacobian_deterministic(tiny_mesh, tiny_schedule):
    sigma = homogeneous_field(tiny_mesh, SIGMA_REF)
    a = compute_jacobian(tiny_mesh, sigma, StimPattern(), tiny_schedule)
    b = compute_jacobian(tiny_mesh, sigma, StimPattern(), tiny_schedule)
    assert np.array_equal(a.matrix, b.matrix)


def test_jacobian_sensitivity_decays_with_distance(tiny_mesh, tiny_schedule):
    sigma = homogeneous_field(tiny_mesh, SIGMA_REF)
    jac = compute_jacobian(tiny_mesh, sigma, StimPattern(), tiny_schedule)
    colnorm = np.linalg.norm(jac.matrix, axis=0)
    rho = np.hypot(tiny_mesh.centroids[:, 0], tiny_mesh.centroids[:, 1])
    z = tiny_mesh.centroids[:, 2]
    near = np.argmin((rho - 1.0) ** 2 + z ** 2)
    far = np.argmax(rho + np.abs(z))
    assert colnorm[near] > 100.0 * colnorm[far]
    # every element within the imaging region has measurable sensitivity
    region = (rho - tiny_mesh.geometry.probe_radius <= 10.0) & (np.abs(z) <= 10.0)
    assert colnorm[region].min() > 0.0


def test_frame_csv_round_trip(tiny_system, tiny_schedule, tmp_path):
    frame = solve_forward(tiny_system, StimPattern(), tiny_schedule)
    path = tmp_path / "frame.csv"
    write_frame_csv(frame, tiny_schedule, path)
    back = read_frame_csv(path, tiny_schedule)
    assert np.array_equal(back.values, frame.values)
    assert back.schedule_id == frame.schedule_id
    header = path.read_text().splitlines()[0]
    assert header == "injection,meas_plus,meas_minus,volts"
    assert len(path.read_text().splitlines()) == 929


def test_frame_csv_rejects_wrong_schedule(tiny_system, tiny_schedule, tmp_path):
    frame = solve_forward(tiny_system, StimPattern(), tiny_schedule)
    path = tmp_path / "frame.csv"
    write_frame_csv(frame, tiny_schedule, path)
    lines = path.read_text().splitlines()
    del lines[5]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DimensionError):
        read_frame_csv(path, tiny_schedule)


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
                    electrodes=tiny_mesh.electrodes, outer_faces=tiny_mesh.outer_faces)
    with pytest.raises(SingularSystemError):
        assemble_system(orphaned, homogeneous_field(orphaned, SIGMA_REF))
