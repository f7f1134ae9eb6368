import math

import numpy as np
import pytest

from eitprobe.errors import GeometryError, MeshingError
from eitprobe.mesh import (RefinementSpec, TankGeometry, build_mesh,
                           elements_in_ellipsoid, mesh_to_json_bytes,
                           validate_mesh)

# Recorded once from the default desk-scale build; guards against silent
# changes to the grading logic.
DESK_NODE_COUNT = 5520
DESK_TET_COUNT = 28512


class _Ellipsoid:
    def __init__(self, center, semi_axes, rot):
        self.center = np.asarray(center, dtype=float)
        self.semi_axes = np.asarray(semi_axes, dtype=float)
        self._rot = np.asarray(rot, dtype=float)

    def rotation_matrix(self):
        return self._rot


def _rot_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def test_default_geometry_is_valid():
    TankGeometry().validate()


def test_narrow_tank_rejected():
    with pytest.raises(GeometryError):
        TankGeometry(tank_radius=15.0).validate()


def test_oversize_electrode_arc_rejected():
    sector_arc = 2.0 * math.pi / 8.0
    with pytest.raises(GeometryError, match="arc"):
        TankGeometry(electrode_size=(sector_arc * 1.01, 0.2)).validate()


def test_oversize_electrode_height_rejected():
    with pytest.raises(GeometryError, match="height"):
        TankGeometry(electrode_size=(0.2, 1.05)).validate()


def test_electrode_count_must_be_32():
    with pytest.raises(GeometryError):
        TankGeometry(layers=3).validate()


def test_every_patch_nonempty(tiny_mesh):
    assert len(tiny_mesh.electrodes) == 32
    for patch in tiny_mesh.electrodes:
        assert patch.shape[0] >= 1


def test_desk_node_count_in_band(desk_mesh):
    assert 2000 <= desk_mesh.n_nodes <= 8000
    assert desk_mesh.n_nodes == DESK_NODE_COUNT
    assert desk_mesh.n_elements == DESK_TET_COUNT


def test_positive_volumes(tiny_mesh):
    assert np.all(tiny_mesh.volumes > 0)


def test_volume_sum_matches_annular_tank(desk_mesh):
    g = desk_mesh.geometry
    expect = math.pi * (g.tank_radius ** 2 - g.probe_radius ** 2) * g.tank_height
    rel = abs(desk_mesh.volumes.sum() - expect) / expect
    assert rel < 0.02


def test_edge_length_grows_with_radius(desk_mesh):
    rho = np.hypot(desk_mesh.centroids[:, 0], desk_mesh.centroids[:, 1])
    edges = desk_mesh.element_mean_edge
    bins = np.linspace(1.0, desk_mesh.geometry.tank_radius, 12)
    idx = np.digitize(rho, bins)
    meds = [np.median(edges[idx == k]) for k in range(1, 12) if np.any(idx == k)]
    for a, b in zip(meds, meds[1:]):
        assert b >= a / 2.0


def test_build_deterministic(tiny_geom):
    a = build_mesh(tiny_geom, RefinementSpec(near=1.2, far=12.0, growth=2.2))
    b = build_mesh(tiny_geom, RefinementSpec(near=1.2, far=12.0, growth=2.2))
    assert mesh_to_json_bytes(a) == mesh_to_json_bytes(b)
    assert a.mesh_id == b.mesh_id


def test_seeded_jitter_changes_mesh(tiny_geom):
    a = build_mesh(tiny_geom, RefinementSpec(near=1.2, far=12.0, growth=2.2, seed=0))
    b = build_mesh(tiny_geom, RefinementSpec(near=1.2, far=12.0, growth=2.2, seed=7))
    assert a.mesh_id != b.mesh_id
    # jitter must leave the walls and electrode patches intact
    assert validate_mesh(b).ok


def test_jittered_mesh_bytes_pinned(tiny_mesh_alt):
    # seed 5 jitters the angular, z and radial grids; pins every jitter path
    assert tiny_mesh_alt.mesh_id == (
        "5e3f1784d9d0da33d2d6e82cb4b4ea613a66ca3c39c4efa2fba2ae8eb4319ff1")


def test_validation_clean_mesh(tiny_mesh):
    rep = validate_mesh(tiny_mesh)
    assert rep.ok, str(rep)


def test_validation_flags_inverted_element(tiny_mesh):
    tets = tiny_mesh.tets.copy()
    tets[5] = tets[5][[0, 1, 3, 2]]
    broken = type(tiny_mesh)(geometry=tiny_mesh.geometry, nodes=tiny_mesh.nodes,
                             tets=tets, electrodes=tiny_mesh.electrodes,
                             outer_faces=tiny_mesh.outer_faces)
    rep = validate_mesh(broken)
    inverted = [i for i in rep.issues if i.kind == "inverted_element"]
    assert len(inverted) == 1
    assert inverted[0].index == 5


def test_validation_flags_empty_patch(tiny_mesh):
    patches = [p.copy() for p in tiny_mesh.electrodes]
    patches[11] = patches[11][:0]
    broken = type(tiny_mesh)(geometry=tiny_mesh.geometry, nodes=tiny_mesh.nodes,
                             tets=tiny_mesh.tets, electrodes=patches,
                             outer_faces=tiny_mesh.outer_faces)
    rep = validate_mesh(broken)
    empty = [i for i in rep.issues if i.kind == "empty_patch"]
    assert len(empty) == 1
    assert empty[0].index == 11
    assert "11" in empty[0].detail


def test_boundary_faces_partition(tiny_mesh):
    # every boundary face must lie on exactly one wall class; validate_mesh
    # reports any face that does not
    rep = validate_mesh(tiny_mesh)
    assert not [i for i in rep.issues if i.kind == "unclassified_boundary"]
    g = tiny_mesh.geometry
    bfaces = tiny_mesh.boundary_faces
    rho = np.hypot(tiny_mesh.nodes[:, 0], tiny_mesh.nodes[:, 1])
    on_probe = np.all(np.abs(rho[bfaces] - g.probe_radius) < 1e-9, axis=1)
    on_outer = np.all(np.abs(rho[bfaces] - g.tank_radius) < 1e-9 * g.tank_radius, axis=1)
    on_cap = np.all(np.abs(np.abs(tiny_mesh.nodes[bfaces, 2]) - g.tank_height / 2)
                    < 1e-9 * g.tank_height, axis=1)
    assert np.all(on_probe.astype(int) + on_outer.astype(int) + on_cap.astype(int) == 1)
    patch_faces = sum(p.shape[0] for p in tiny_mesh.electrodes)
    assert patch_faces <= on_probe.sum()


def test_interior_faces_shared_by_two(tiny_mesh):
    faces, owners = tiny_mesh.interior_faces
    assert np.all(owners >= 0)
    assert np.all(owners[:, 0] != owners[:, 1])
    n_bnd = tiny_mesh.boundary_faces.shape[0]
    # each tet contributes 4 faces; every face is either interior (2 owners)
    # or boundary (1 owner)
    assert 2 * faces.shape[0] + n_bnd == 4 * tiny_mesh.n_elements


def test_elements_in_ellipsoid_far_away_empty(tiny_mesh):
    far = _Ellipsoid([200.0, 0.0, 0.0], [2.0, 2.0, 2.0], np.eye(3))
    assert elements_in_ellipsoid(tiny_mesh, far).size == 0


def test_elements_in_ellipsoid_enclosing_full(tiny_mesh):
    g = tiny_mesh.geometry
    r = 2.0 * (g.tank_radius + g.tank_height)
    dom = _Ellipsoid([0.0, 0.0, 0.0], [r, r, r], np.eye(3))
    assert elements_in_ellipsoid(tiny_mesh, dom).size == tiny_mesh.n_elements


def test_elements_in_ellipsoid_matches_bruteforce(tiny_mesh):
    rng = np.random.default_rng(42)
    for _ in range(5):
        center = np.array([rng.uniform(2, 20), rng.uniform(-8, 8), rng.uniform(-4, 4)])
        axes = rng.uniform(2.0, 7.0, size=3)
        rot = _rot_z(rng.uniform(0, 2 * math.pi))
        tgt = _Ellipsoid(center, axes, rot)
        got = set(elements_in_ellipsoid(tiny_mesh, tgt).tolist())
        expect = set()
        for idx in range(tiny_mesh.n_elements):
            c = tiny_mesh.centroids[idx]
            d = c - center
            # inverse rotation applied explicitly, component by component
            q0 = rot[0, 0] * d[0] + rot[1, 0] * d[1] + rot[2, 0] * d[2]
            q1 = rot[0, 1] * d[0] + rot[1, 1] * d[1] + rot[2, 1] * d[2]
            q2 = rot[0, 2] * d[0] + rot[1, 2] * d[1] + rot[2, 2] * d[2]
            val = (q0 / axes[0]) ** 2 + (q1 / axes[1]) ** 2 + (q2 / axes[2]) ** 2
            if val <= 1.0:
                expect.add(idx)
        assert got == expect


def test_degenerate_refinement_rejected():
    with pytest.raises(MeshingError):
        RefinementSpec(near=2.0, far=1.0).validate()
    with pytest.raises(MeshingError):
        RefinementSpec(near=0.4, far=8.0, growth=0.9).validate()


@pytest.mark.parametrize("seed", [None, 1.5, -1])
def test_seed_must_be_a_nonnegative_integer(seed):
    with pytest.raises(MeshingError, match="seed"):
        RefinementSpec(seed=seed).validate()
    RefinementSpec(seed=np.int64(3)).validate()
