"""Oracle tests for the voxel metrics: point location against brute force
and against a per-element voxelizer loop, ellipsoid surface area against
closed forms, and NADE, |dRES| and SD against voxel sets counted
independently in numpy."""

import dataclasses
import gc
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from eitprobe.datagen import TargetSpec, rasterize_target
from eitprobe.errors import DimensionError
from eitprobe.gn import element_to_nodal
from eitprobe.mesh import Mesh, TankGeometry
from eitprobe.metrics import (DEFAULT_GRID, GridSpec, Voxelizer, _target_box,
                              ellipsoid_surface_area, full_report,
                              get_voxelizer)

COARSE_GRID = GridSpec(dims=16)
# covers the tiny tank's full height at half a probe radius per voxel
FINE_GRID = GridSpec(half_width=8.0, dims=32)
DOMAIN_VOLUME = 4.0 / 3.0 * math.pi * 10.0 ** 3
TILTED = (0.2, -0.1, 0.3, math.sqrt(1.0 - 0.14))


def _centers(spec: GridSpec) -> np.ndarray:
    """(dims**3, 3) voxel centers in C order."""
    h = 2.0 * spec.half_width / spec.dims
    axes = [-spec.half_width + h * (np.arange(spec.dims) + 0.5)] * 3
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


def _locate(mesh, pts: np.ndarray, chunk: int = 128):
    """Brute-force point location over every element.

    Returns each point's depth (the largest, over elements, of the smallest
    barycentric coordinate: positive inside the mesh, negative outside) and
    the barycentric coordinates in the element that attains it.
    """
    depth = np.full(len(pts), -np.inf)
    best_el = np.zeros(len(pts), dtype=np.int64)
    best_bary = np.zeros((len(pts), 4))
    p = mesh.nodes[mesh.tets]
    for lo in range(0, mesh.n_elements, chunk):
        q = p[lo:lo + chunk]
        inv = np.linalg.inv(q[:, 1:] - q[:, :1])          # (c, 3, 3)
        lam = (pts[None] - q[:, :1]) @ inv                # (c, P, 3)
        bary = np.concatenate([1.0 - lam.sum(axis=2, keepdims=True), lam],
                              axis=2)                     # (c, P, 4)
        d = bary.min(axis=2)
        k = d.argmax(axis=0)
        dk = d[k, np.arange(len(pts))]
        better = dk > depth
        depth[better] = dk[better]
        best_el[better] = lo + k[better]
        best_bary[better] = bary[k[better], np.flatnonzero(better)]
    return depth, best_el, best_bary


def _loop_voxelizer(mesh, spec: GridSpec):
    """Per-element voxelizer: each element, in index order, claims the
    still unclaimed voxels of its grid box that it contains. Returns the
    claiming element per voxel (-1 outside), the barycentric coordinates
    there, the inside mask and the claiming element's corner nodes."""
    xs, ys, zs = spec.axes()
    nx, ny, nz = spec.shape
    n_vox = nx * ny * nz
    h = spec.spacing
    origin = spec.origin

    tet_of = np.full(n_vox, -1, dtype=np.int64)
    bary = np.zeros((n_vox, 4))
    nodes = mesh.nodes
    tets = mesh.tets
    v0 = nodes[tets[:, 0]]
    grads_t = mesh.shape_gradients[:, 1:, :].transpose(0, 2, 1)

    lo_idx = np.ceil((nodes[tets].min(axis=1) - origin) / h - 1e-12)
    hi_idx = np.floor((nodes[tets].max(axis=1) - origin) / h + 1e-12)
    lo_idx = np.clip(lo_idx, 0, np.array(spec.shape) - 1).astype(np.int64)
    hi_idx = np.clip(hi_idx, -1, np.array(spec.shape) - 1).astype(np.int64)

    for e in range(mesh.n_elements):
        (x0, y0, z0), (x1, y1, z1) = lo_idx[e], hi_idx[e]
        if x1 < x0 or y1 < y0 or z1 < z0:
            continue
        gx, gy, gz = np.meshgrid(np.arange(x0, x1 + 1),
                                 np.arange(y0, y1 + 1),
                                 np.arange(z0, z1 + 1), indexing="ij")
        flat = ((gx * ny + gy) * nz + gz).ravel()
        flat = flat[tet_of[flat] < 0]
        if flat.size == 0:
            continue
        pts = np.column_stack([xs[flat // (ny * nz)],
                               ys[(flat // nz) % ny],
                               zs[flat % nz]])
        lam = (pts - v0[e]) @ grads_t[e]
        lam0 = 1.0 - lam.sum(axis=1)
        ok = (lam.min(axis=1) >= -1e-12) & (lam0 >= -1e-12)
        if not ok.any():
            continue
        sel = flat[ok]
        tet_of[sel] = e
        bary[sel, 0] = lam0[ok]
        bary[sel, 1:] = lam[ok]

    inside = tet_of >= 0
    return tet_of, bary, inside, tets[np.where(inside, tet_of, 0)]


def _kuhn_mesh(cubes: int, edge: float, seed: int) -> Mesh:
    """Cubes of side ``edge`` filling a cube of ``cubes`` of them per axis
    centred at 0, each split into the six tetrahedra around its main
    diagonal, listed in a shuffled order."""
    ticks = edge * (np.arange(cubes + 1, dtype=np.float64) - cubes / 2.0)
    nodes = np.stack(np.meshgrid(ticks, ticks, ticks, indexing="ij"),
                     axis=-1).reshape(-1, 3)

    def node(i, j, k):
        return (i * (cubes + 1) + j) * (cubes + 1) + k

    tets = []
    for corner in itertools.product(range(cubes), repeat=3):
        for perm in itertools.permutations(range(3)):
            walk = [np.array(corner)]
            for axis in perm:
                walk.append(walk[-1] + np.eye(3, dtype=np.int64)[axis])
            tets.append([node(*v) for v in walk])
    tets = np.array(tets, dtype=np.int32)
    p = nodes[tets]
    flip = np.linalg.det(p[:, 1:] - p[:, :1]) < 0
    tets[flip] = tets[flip][:, [0, 2, 1, 3]]
    tets = tets[np.random.default_rng(seed).permutation(len(tets))]
    return Mesh(geometry=TankGeometry(), nodes=nodes, tets=tets, electrodes=[])


def _traced_peak(build) -> int:
    """Peak bytes traced while ``build()`` runs."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _truth_image(mesh, target: TargetSpec) -> np.ndarray:
    return element_to_nodal(rasterize_target(mesh, target) - target.sigma_bg,
                            mesh)


def _expected(mesh, img, target: TargetSpec, spec: GridSpec) -> dict:
    """NADE, |dRES| and SD from voxel sets counted directly."""
    vals = get_voxelizer(mesh, spec).apply(img).ravel()
    recon = vals >= 0.25 * vals.max()
    body = (_centers(spec) - np.asarray(target.center)) @ target.rotation_matrix()
    q = np.sum((body / np.asarray(target.semi_axes)) ** 2, axis=1)
    truth, roi = q <= 1.0, q <= 4.0
    v = (2.0 * spec.half_width / spec.dims) ** 3
    n_recon, n_truth = np.count_nonzero(recon), np.count_nonzero(truth)
    assert n_recon > 0 and n_truth > 0
    err = np.count_nonzero((recon & roi) ^ truth)
    diameter = 2.0 * mesh.geometry.probe_radius
    res = [np.cbrt(n * v / DOMAIN_VOLUME) for n in (n_recon, n_truth)]
    return {
        "nade": err * v / ellipsoid_surface_area(target.semi_axes) / diameter,
        "delta_res_pct": abs(res[0] - res[1]) * 100.0,
        "sd_pct": 100.0 * np.count_nonzero(recon & ~truth) / n_recon,
    }


def _assert_matches(report, expected: dict) -> None:
    assert not report.worst_case
    for name, value in expected.items():
        assert getattr(report, name) == pytest.approx(value, rel=1e-12, abs=0.0)


@pytest.fixture(scope="module")
def located(tiny_mesh):
    return _locate(tiny_mesh, _centers(COARSE_GRID))


GRIDS = [COARSE_GRID, FINE_GRID, DEFAULT_GRID]


@pytest.fixture(scope="module")
def looped(tiny_mesh):
    return {spec: _loop_voxelizer(tiny_mesh, spec) for spec in GRIDS}


# --- voxelizer -----------------------------------------------------------------


def test_voxelizer_matches_brute_force_location(tiny_mesh, located):
    vox = get_voxelizer(tiny_mesh, COARSE_GRID)
    depth, _el, _bary = located
    clear = np.abs(depth) > 1e-9
    assert clear.mean() > 0.99
    assert np.array_equal(vox.inside[clear], depth[clear] > 0)
    assert 0.3 < vox.inside.mean() < 1.0


def test_voxelizer_interpolates_p1(tiny_mesh, located):
    # P1 interpolation reproduces an affine nodal field exactly
    coef = np.array([0.3, -0.2, 0.5])
    img = tiny_mesh.nodes @ coef + 1.0
    vox = get_voxelizer(tiny_mesh, COARSE_GRID)
    vals = vox.apply(img).ravel()
    pts = _centers(COARSE_GRID)
    assert np.allclose(vals[vox.inside], pts[vox.inside] @ coef + 1.0,
                       rtol=0.0, atol=1e-10)
    assert np.all(vals[~vox.inside] == 0.0)

    depth, el, bary = located
    ok = vox.inside & (depth > 1e-9)
    brute = np.einsum("pk,pk->p", bary, img[tiny_mesh.tets[el]])
    assert np.allclose(vals[ok], brute[ok], rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("spec", GRIDS, ids=lambda g: f"{g.dims}^3")
def test_voxelizer_matches_the_element_loop(tiny_mesh, looped, spec):
    tet_of, bary, inside, corner_nodes = looped[spec]
    vox = get_voxelizer(tiny_mesh, spec)
    assert np.array_equal(vox.inside, inside)
    assert vox.matrix.shape == (spec.dims ** 3, tiny_mesh.n_nodes)
    assert np.array_equal(np.diff(vox.matrix.indptr), 4 * inside)

    # each inside voxel interpolates from the lowest-indexed element that
    # contains it, the one the loop lets claim it first, corner by corner
    assert np.array_equal(vox.matrix.indices.reshape(-1, 4),
                          tiny_mesh.tets[tet_of[inside]])

    rng = np.random.default_rng(11)
    for img in (rng.standard_normal(tiny_mesh.n_nodes),
                tiny_mesh.nodes @ np.array([0.3, -0.2, 0.5]) + 1.0):
        loop = np.where(inside, np.einsum("vk,vk->v", bary, img[corner_nodes]),
                        0.0)
        assert np.allclose(vox.apply(img).ravel(), loop, rtol=0.0,
                           atol=1e-14 * np.abs(img).max())


def test_voxelizer_takes_the_lowest_element_on_shared_faces():
    # voxel centers sit at a quarter and three quarters of each cube's side,
    # so every one lies on faces or the diagonal its tetrahedra share; with
    # a side of 0.7 some fall a rounding error outside some of those
    mesh = _kuhn_mesh(4, edge=0.7, seed=3)
    spec = GridSpec(half_width=1.4, dims=8)
    p = mesh.nodes[mesh.tets]
    lam = np.einsum("ekc,vec->vek", mesh.shape_gradients[:, 1:],
                    _centers(spec)[:, None] - p[None, :, 0])
    bary = np.concatenate([1.0 - lam.sum(axis=2, keepdims=True), lam], axis=2)
    holds = bary.min(axis=2) >= -1e-12                        # (voxel, element)
    assert np.all(holds.sum(axis=1) > 1)
    lowest = holds.argmax(axis=1)

    vox = Voxelizer(mesh, spec)
    assert vox.inside.all()
    assert np.array_equal(vox.matrix.indices.reshape(-1, 4), mesh.tets[lowest])
    tet_of, _bary, inside, _corner_nodes = _loop_voxelizer(mesh, spec)
    assert inside.all() and np.array_equal(tet_of, lowest)


def test_voxelizer_build_peaks_no_higher_than_the_element_loop(tiny_mesh):
    tiny_mesh.shape_gradients  # cached on the mesh, outside both traces
    loop = _traced_peak(lambda: _loop_voxelizer(tiny_mesh, DEFAULT_GRID))
    built = _traced_peak(lambda: Voxelizer(tiny_mesh, DEFAULT_GRID))
    assert built <= loop


def test_voxelizer_is_freed_with_its_mesh(tiny_mesh):
    # a fresh Mesh object over the same arrays, so only this test holds it
    mesh = dataclasses.replace(tiny_mesh)
    vox = weakref.ref(get_voxelizer(mesh, COARSE_GRID))
    assert get_voxelizer(mesh, COARSE_GRID) is vox()
    del mesh
    gc.collect()
    assert vox() is None


# --- surface area --------------------------------------------------------------


@pytest.mark.parametrize("r", [0.5, 1.0, 2.7])
def test_sphere_area(r):
    assert ellipsoid_surface_area((r, r, r)) == pytest.approx(4.0 * math.pi * r * r,
                                                             rel=1e-12)


@pytest.mark.parametrize("a,c", [(1.0, 2.0), (0.5, 3.0), (2.0, 2.1)])
def test_prolate_spheroid_area(a, c):
    e = math.sqrt(1.0 - (a / c) ** 2)
    exact = 2.0 * math.pi * a * a * (1.0 + c / (a * e) * math.asin(e))
    for axes in [(a, a, c), (a, c, a), (c, a, a)]:
        assert ellipsoid_surface_area(axes) == pytest.approx(exact, rel=1e-10)


@pytest.mark.parametrize("a,c", [(2.0, 1.0), (3.0, 0.5), (2.1, 2.0)])
def test_oblate_spheroid_area(a, c):
    e = math.sqrt(1.0 - (c / a) ** 2)
    exact = 2.0 * math.pi * a * a * (1.0 + (1.0 - e * e) / e * math.atanh(e))
    for axes in [(a, a, c), (a, c, a), (c, a, a)]:
        assert ellipsoid_surface_area(axes) == pytest.approx(exact, rel=1e-10)


# --- figures of merit ----------------------------------------------------------


TARGETS = [
    TargetSpec(center=(4.5, 1.0, 0.5), semi_axes=(1.5, 2.0, 2.5)),
    TargetSpec(center=(-3.0, -4.0, -1.5), semi_axes=(1.0, 1.5, 2.0), quat=TILTED),
    TargetSpec(center=(0.5, 6.0, 3.0), semi_axes=(2.0, 2.0, 2.0)),
]


# the x = 8 face and the z = -8 face of FINE_GRID each cut into the target
CLIPPED = [
    TargetSpec(center=(7.8, 1.0, 0.5), semi_axes=(1.5, 2.0, 2.5)),
    TargetSpec(center=(0.5, -1.0, -7.7), semi_axes=(2.0, 1.5, 1.0), quat=TILTED),
]
# long axis along (1, 1, 1), so its box is widest off the body axes
_TILT = math.acos(1.0 / math.sqrt(3.0)) / 2.0
DIAGONAL = TargetSpec(center=(-1.0, 0.5, 0.0), semi_axes=(0.6, 0.8, 3.5),
                      quat=(-math.sin(_TILT) / math.sqrt(2.0),
                            math.sin(_TILT) / math.sqrt(2.0), 0.0,
                            math.cos(_TILT)))


# (image source, scored target): each target against its own truth image,
# then a miss, where no quarter-peak voxel of the truth image of TARGETS[0]
# lies in the region of interest of TARGETS[2]
SCORED = ([(t, t) for t in TARGETS + CLIPPED + [DIAGONAL]]
          + [(TARGETS[0], TARGETS[2])])


@pytest.mark.parametrize("source, target", SCORED,
                         ids=[f"target{i}" for i in range(len(SCORED) - 1)]
                         + ["miss"])
def test_report_matches_counted_voxel_sets(tiny_mesh, source, target):
    images = {
        "truth": _truth_image(tiny_mesh, source),
        # its quarter-peak set is spread over the grid, so it straddles the
        # edge of the target's box
        "random": np.random.default_rng(7).standard_normal(tiny_mesh.n_nodes),
    }
    reports = {}
    for kind, img in images.items():
        report = full_report(tiny_mesh, img, target, spec=FINE_GRID,
                             method=kind, case_id="c0")
        assert (report.method, report.case_id) == (kind, "c0")
        _assert_matches(report, _expected(tiny_mesh, img, target, FINE_GRID))
        assert report.sd_pct > 0.0
        reports[kind] = report
    if source is not target:
        # a miss scores exactly like a blank image
        blank = full_report(tiny_mesh, np.zeros(tiny_mesh.n_nodes), target,
                            spec=FINE_GRID)
        assert reports["truth"].nade == blank.nade
        assert reports["truth"].sd_pct == 100.0


@pytest.mark.parametrize("target", TARGETS)
def test_report_invariant_under_image_scaling(tiny_mesh, target):
    img = _truth_image(tiny_mesh, target)
    base = full_report(tiny_mesh, img, target, spec=FINE_GRID)
    for k in (0.5, 3.0, 4.0):
        assert full_report(tiny_mesh, k * img, target, spec=FINE_GRID) == base


def test_empty_image_scores_worst_case(tiny_mesh):
    target = TARGETS[0]
    report = full_report(tiny_mesh, np.zeros(tiny_mesh.n_nodes), target,
                         spec=FINE_GRID)
    body = (_centers(FINE_GRID) - np.asarray(target.center)) @ target.rotation_matrix()
    n_truth = np.count_nonzero(
        np.sum((body / np.asarray(target.semi_axes)) ** 2, axis=1) <= 1.0)
    v = (2.0 * FINE_GRID.half_width / FINE_GRID.dims) ** 3
    assert report.worst_case
    assert report.nade == n_truth * v / ellipsoid_surface_area(target.semi_axes) / 2.0
    assert report.delta_res_pct == pytest.approx(
        np.cbrt(n_truth * v / DOMAIN_VOLUME) * 100.0, rel=1e-12)
    assert report.sd_pct == 100.0


def test_report_uses_the_mesh_probe(big_probe_mesh):
    # the bore has radius 1.5; a ball of radius 2 at x = 5 sits 1.5 off it,
    # and would sit 2.0 off the default probe
    ball = TargetSpec(center=(5.0, 0.0, 0.0), semi_axes=(2.0, 2.0, 2.0))
    report = full_report(big_probe_mesh, np.zeros(big_probe_mesh.n_nodes), ball,
                         spec=FINE_GRID)
    assert report.distance == pytest.approx(1.5, abs=1e-9)

    # NADE is normalized by the probe diameter, here 3
    target = TargetSpec(center=(5.0, 1.0, 0.5), semi_axes=(1.5, 2.0, 2.5))
    img = _truth_image(big_probe_mesh, target)
    report = full_report(big_probe_mesh, img, target, spec=FINE_GRID)
    _assert_matches(report, _expected(big_probe_mesh, img, target, FINE_GRID))


@pytest.mark.parametrize("target", TARGETS + CLIPPED + [DIAGONAL])
def test_target_form_is_the_full_grid_form_in_its_box(target):
    full = target.form(_centers(FINE_GRID)).reshape(FINE_GRID.shape)
    box, boxed = _target_box(target, FINE_GRID)
    assert np.array_equal(boxed, full[box])
    outside = np.ones(FINE_GRID.shape, dtype=bool)
    outside[box] = False
    assert np.all(full[outside] > 4.0)
    assert boxed.size < 0.5 * full.size


def test_target_outside_the_grid_has_empty_truth(tiny_mesh):
    outside = TargetSpec(center=(20.0, 0.0, 0.0), semi_axes=(1.0, 1.5, 2.0))
    img = _truth_image(tiny_mesh, TARGETS[0])
    report = full_report(tiny_mesh, img, outside, spec=FINE_GRID)
    vals = get_voxelizer(tiny_mesh, FINE_GRID).apply(img)
    n_recon = np.count_nonzero(vals >= 0.25 * vals.max())
    v = (2.0 * FINE_GRID.half_width / FINE_GRID.dims) ** 3
    assert _target_box(outside, FINE_GRID)[1].size == 0
    assert not report.worst_case
    assert report.nade == 0.0
    assert report.delta_res_pct == pytest.approx(
        np.cbrt(n_recon * v / DOMAIN_VOLUME) * 100.0, rel=1e-12)
    assert report.sd_pct == 100.0


def test_report_refuses_bad_inputs(tiny_mesh):
    img = _truth_image(tiny_mesh, TARGETS[0])
    for bad in ({"dims": 4}, {"half_width": 0.0}):
        with pytest.raises(ValueError):
            GridSpec(**bad)
    with pytest.raises(DimensionError):
        full_report(tiny_mesh, img[:-1], TARGETS[0], spec=FINE_GRID)
