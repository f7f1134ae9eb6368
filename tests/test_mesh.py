import dataclasses
import itertools
import math

import numpy as np
import pytest

from eitprobe.errors import GeometryError, MeshingError
from eitprobe.mesh import RefinementSpec, TankGeometry, build_mesh

# Recorded once from the default desk-scale build; guards against silent
# changes to the grading logic.
DESK_NODE_COUNT = 5520
DESK_TET_COUNT = 28512


def test_default_geometry_is_valid():
    TankGeometry()


def test_narrow_tank_rejected():
    with pytest.raises(GeometryError):
        TankGeometry(tank_radius=15.0)


def test_oversize_electrode_arc_rejected():
    sector_arc = 2.0 * math.pi / 8.0
    with pytest.raises(GeometryError, match="arc"):
        TankGeometry(electrode_size=(sector_arc * 1.01, 0.2))


def test_oversize_electrode_height_rejected():
    with pytest.raises(GeometryError, match="height"):
        TankGeometry(electrode_size=(0.2, 1.05))


def test_electrode_count_must_be_32():
    with pytest.raises(GeometryError):
        TankGeometry(layers=3)


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
    p = desk_mesh.nodes[desk_mesh.tets]
    edges = np.mean([np.linalg.norm(p[:, a] - p[:, b], axis=1)
                     for a, b in itertools.combinations(range(4), 2)], axis=0)
    bins = np.linspace(1.0, desk_mesh.geometry.tank_radius, 12)
    idx = np.digitize(rho, bins)
    meds = [np.median(edges[idx == k]) for k in range(1, 12) if np.any(idx == k)]
    for a, b in zip(meds, meds[1:]):
        assert b >= a / 2.0


def test_build_deterministic(tiny_geom):
    a = build_mesh(tiny_geom, RefinementSpec(near=1.2, far=12.0, growth=2.2))
    b = build_mesh(tiny_geom, RefinementSpec(near=1.2, far=12.0, growth=2.2))
    assert a.mesh_id == b.mesh_id
    assert a.geometry == b.geometry
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.tets, b.tets)
    assert len(a.electrodes) == len(b.electrodes)
    for pa, pb in zip(a.electrodes, b.electrodes):
        assert np.array_equal(pa, pb)


def test_seeded_jitter_changes_mesh(tiny_geom):
    a = build_mesh(tiny_geom, RefinementSpec(near=1.2, far=12.0, growth=2.2, seed=0))
    b = build_mesh(tiny_geom, RefinementSpec(near=1.2, far=12.0, growth=2.2, seed=7))
    # test_mesh_holds_its_invariants checks that jitter leaves the walls
    # and electrode patches intact
    assert a.mesh_id != b.mesh_id


def test_jittered_mesh_bytes_pinned(tiny_mesh_alt):
    # seed 5 jitters the angular, z and radial grids; pins every jitter path
    assert tiny_mesh_alt.mesh_id == (
        "c128836f8b84ea51e3dbfdf7fcce33edd1a686dd9318ff2a2bcbe2a93a25a2d4")


def test_mesh_id_covers_every_field(tiny_mesh):
    def id_with(**changes):
        return dataclasses.replace(tiny_mesh, **changes).mesh_id

    assert id_with() == tiny_mesh.mesh_id
    nodes = tiny_mesh.nodes.copy()
    nodes[7, 2] = np.nextafter(nodes[7, 2], np.inf)
    assert id_with(nodes=nodes) != tiny_mesh.mesh_id
    tets = tiny_mesh.tets.copy()
    tets[3, [1, 2]] = tets[3, [2, 1]]
    assert id_with(tets=tets) != tiny_mesh.mesh_id
    # the same faces, one of them moved from patch 0 to patch 1
    electrodes = list(tiny_mesh.electrodes)
    electrodes[0], electrodes[1] = (
        electrodes[0][:-1], np.concatenate([electrodes[1], electrodes[0][-1:]]))
    assert id_with(electrodes=electrodes) != tiny_mesh.mesh_id
    geometry = dataclasses.replace(tiny_mesh.geometry, tank_radius=36.0)
    assert id_with(geometry=geometry) != tiny_mesh.mesh_id


def _wall_nodes(mesh, radius):
    rho = np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1])
    return np.abs(rho - radius) <= 1e-9 * radius


def _face_set(faces):
    return {tuple(f) for f in np.sort(faces, axis=1).tolist()}


@pytest.mark.parametrize("name", ["tiny_mesh", "tiny_mesh_alt"])
def test_mesh_holds_its_invariants(request, name):
    # what the pipeline does not check at run time holds by construction:
    # the plain mesh and a jittered one both satisfy it
    mesh = request.getfixturevalue(name)
    g = mesh.geometry
    assert np.array_equal(np.unique(mesh.tets), np.arange(mesh.n_nodes))
    on_probe = _wall_nodes(mesh, g.probe_radius)
    patches = [_face_set(p) for p in mesh.electrodes]
    for patch in mesh.electrodes:
        assert np.all(on_probe[patch])
    assert len(set().union(*patches)) == sum(len(p) for p in patches)
    bfaces = mesh.boundary_faces
    on_outer = np.all(_wall_nodes(mesh, g.tank_radius)[bfaces], axis=1)
    assert on_outer.any()


def test_boundary_faces_partition(tiny_mesh):
    # every boundary face must lie on exactly one wall class
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


def test_degenerate_refinement_rejected():
    with pytest.raises(MeshingError):
        RefinementSpec(near=2.0, far=1.0)
    with pytest.raises(MeshingError):
        RefinementSpec(near=0.4, far=8.0, growth=0.9)


@pytest.mark.parametrize("seed", [None, 1.5, -1])
def test_seed_must_be_a_nonnegative_integer(seed):
    with pytest.raises(MeshingError, match="seed"):
        RefinementSpec(seed=seed)
    RefinementSpec(seed=np.int64(3))
