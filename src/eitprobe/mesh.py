"""Graded tetrahedral meshes for an open-domain probe tank.

All geometry is expressed in probe-radius units: the probe surface is the
cylinder rho = 1 (for the default ``probe_radius``) and the tank wall is
rho = ``tank_radius``. The tank is tall and wide enough that its walls act
as an open-domain truncation rather than a physical boundary.

Construction is a layered extrusion: a structured graded annulus grid
(electrode-conforming in angle, geometrically graded in radius) is extruded
along z through a graded level set, each prism is split into three
tetrahedra with the minimum-vertex diagonal rule so shared quad faces agree
between neighbours. The grid conforms exactly to the electrode patch
rectangles, so each patch is a fixed set of whole boundary faces.

A ``Mesh`` owns its geometry, faces included: face areas and the
interior-face difference operator shared by the TV term and the GN prior.
It takes no targets; ``TargetSpec.form`` decides what lies inside one.
Its ``mesh_id`` is the sha256 of the canonical JSON of its geometry,
nodes, tets and electrode patches.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.sparse import coo_matrix, csc_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import GeometryError, MeshingError
from .ioutil import hash_of

# jitter moves a free grid entry by up to this fraction of its smaller gap
_JITTER_FRAC = 0.15


@dataclass(frozen=True)
class TankGeometry:
    """Probe-in-tank geometry, lengths in probe-radius units.

    The probe is a cylindrical bore of radius ``probe_radius`` through the
    full tank height; target distances and placement (``datagen``) measure
    to this bore. ``probe_height`` is the span of the electrode-bearing
    section, over which the electrode rings are evenly distributed, and
    the band of random target heights. ``electrode_size`` is (arc length,
    height) of each rectangular patch.
    """

    probe_radius: float = 1.0
    probe_height: float = 4.0
    tank_radius: float = 35.0
    tank_height: float = 30.0
    layers: int = 4
    electrodes_per_layer: int = 8
    electrode_size: tuple[float, float] = (0.2, 0.2)

    def __post_init__(self) -> None:
        if not all(0 < v < math.inf for v in (self.probe_radius, self.probe_height,
                                              self.tank_radius, self.tank_height)):
            raise GeometryError("all lengths must be positive and finite")
        if not all(isinstance(v, (int, np.integer))
                   for v in (self.layers, self.electrodes_per_layer)):
            raise GeometryError(
                "layers and electrodes_per_layer must be integers "
                f"(got {self.layers!r} and {self.electrodes_per_layer!r})")
        if self.tank_radius < 20.0 * self.probe_radius:
            raise GeometryError(
                "tank_radius must be at least 20 probe radii for the open-domain "
                f"approximation (got {self.tank_radius / self.probe_radius:.3g})")
        if self.layers * self.electrodes_per_layer != 32:
            raise GeometryError(
                "layers * electrodes_per_layer must equal 32 "
                f"(got {self.layers} * {self.electrodes_per_layer})")
        if len(self.electrode_size) != 2:
            raise GeometryError(
                "electrode_size must be (arc length, height) "
                f"(got {self.electrode_size!r})")
        arc, height = self.electrode_size
        if not (arc > 0 and height > 0):
            raise GeometryError("electrode_size components must be positive and finite")
        sector_arc = 2.0 * math.pi * self.probe_radius / self.electrodes_per_layer
        if arc >= sector_arc:
            raise GeometryError(
                f"electrode arc {arc:.4g} must be below the sector arc "
                f"{sector_arc:.4g} or patches on a ring would overlap")
        ring_spacing = self.probe_height / self.layers
        if height >= ring_spacing:
            raise GeometryError(
                f"electrode height {height:.4g} must be below the ring spacing "
                f"{ring_spacing:.4g} or patches on adjacent rings would overlap")
        if self.ring_centers[-1] + height / 2.0 >= self.tank_height / 2.0:
            raise GeometryError("electrode section does not fit inside the tank")

    @property
    def ring_centers(self) -> np.ndarray:
        """z coordinates of the electrode ring centers, bottom to top."""
        spacing = self.probe_height / self.layers
        offsets = (np.arange(self.layers) - (self.layers - 1) / 2.0) * spacing
        return offsets

    def electrode_layer(self, electrode: int) -> int:
        return electrode // self.electrodes_per_layer

    def electrode_azimuth(self, electrode: int) -> float:
        """Azimuth of the patch center for a global electrode index."""
        within = electrode % self.electrodes_per_layer
        return 2.0 * math.pi * within / self.electrodes_per_layer


@dataclass(frozen=True)
class RefinementSpec:
    """Target edge lengths (probe-radius units) and grading of the mesh.

    ``near`` is the target edge length at the probe wall, ``far`` the cap
    in the far field; spacings grow geometrically by ``growth`` between
    them. A nonzero ``seed`` jitters the free (non-electrode, non-wall)
    grid coordinates so two specs with different seeds never share element
    boundaries, which keeps simulation and reconstruction meshes distinct.
    """

    near: float = 0.4
    far: float = 8.0
    growth: float = 1.7
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0 < self.near < math.inf and 0 < self.far < math.inf):
            raise MeshingError("edge-length targets must be positive and finite")
        if self.near > self.far:
            raise MeshingError("near edge target must not exceed far edge target")
        if not 1.0 < self.growth < math.inf:
            raise MeshingError("growth must exceed 1 and be finite")
        # an unseeded generator would jitter differently on every build
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise MeshingError(
                f"seed must be a non-negative integer (got {self.seed!r})")


@dataclass(eq=False)
class Mesh:
    """Tetrahedral mesh with electrode patch face sets.

    ``nodes`` is (n_nodes, 3) float64, ``tets`` (n_elements, 4) int32 with
    positive signed volumes. ``electrodes[k]`` is an (m_k, 3) int32 array of
    boundary face node triples forming patch k. ``mesh_id`` hashes exactly
    these four fields.
    """

    geometry: TankGeometry
    nodes: np.ndarray
    tets: np.ndarray
    electrodes: list[np.ndarray]

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.tets.shape[0]

    @property
    def n_electrodes(self) -> int:
        return len(self.electrodes)

    @cached_property
    def mesh_id(self) -> str:
        return hash_of({
            "geometry": asdict(self.geometry),
            "nodes": self.nodes.ravel().tolist(),
            "tets": self.tets.ravel().tolist(),
            "electrodes": [p.ravel().tolist() for p in self.electrodes],
        })

    @cached_property
    def volumes(self) -> np.ndarray:
        return _signed_volumes(self.nodes, self.tets)

    @cached_property
    def centroids(self) -> np.ndarray:
        return self.nodes[self.tets].mean(axis=1)

    @cached_property
    def shape_gradients(self) -> np.ndarray:
        """(n_elements, 4, 3) gradients of the P1 shape functions."""
        p = self.nodes[self.tets]                       # (M, 4, 3)
        e = p[:, 1:, :] - p[:, :1, :]                   # (M, 3, 3) edge matrix
        inv = np.linalg.inv(e)                          # rows: gradients of phi_1..3
        g123 = inv.transpose(0, 2, 1)
        g0 = -g123.sum(axis=1, keepdims=True)
        return np.concatenate([g0, g123], axis=1)

    @cached_property
    def cem_pattern(self) -> CemPattern:
        """The conductivity-free part of the complete-electrode-model
        system on this mesh, computed once and shared by every assembly."""
        return _cem_pattern(self)

    @cached_property
    def averaging_map(self) -> csr_matrix:
        """Sparse nodes-by-elements map to the volume-weighted mean of the
        elements incident to each node; a node in no element maps to zero."""
        flat = self.tets.ravel()
        weights = np.repeat(self.volumes, 4)
        wsum = np.bincount(flat, weights=weights, minlength=self.n_nodes)
        cols = np.repeat(np.arange(self.n_elements), 4)
        return csr_matrix((weights / wsum[flat], (flat, cols)),
                          shape=(self.n_nodes, self.n_elements))

    @cached_property
    def _faces(self):
        return _face_table(self.tets)

    @cached_property
    def interior_faces(self) -> tuple[np.ndarray, np.ndarray]:
        """(faces, owners): faces (F, 3) sorted node triples shared by exactly
        two elements, owners (F, 2) the element pair."""
        faces, owners, counts = self._faces
        mask = counts == 2
        return faces[mask], owners[mask, :2]

    @cached_property
    def boundary_faces(self) -> np.ndarray:
        faces, _owners, counts = self._faces
        return faces[counts == 1]

    @cached_property
    def face_difference(self) -> csr_matrix:
        """Interior-face difference operator, (n_interior_faces, n_elements):
        per face +w on its first owner and -w on its second, with w the
        shared-face area over the distance between the owners' centroids."""
        faces, owners = self.interior_faces
        dist = np.linalg.norm(
            self.centroids[owners[:, 0]] - self.centroids[owners[:, 1]], axis=1)
        w = _face_areas(self.nodes, faces) / dist
        n_f = faces.shape[0]
        rows = np.repeat(np.arange(n_f), 2)
        data = np.column_stack([w, -w]).ravel()
        return coo_matrix((data, (rows, owners.ravel())),
                          shape=(n_f, self.n_elements)).tocsr()


class CemPattern(NamedTuple):
    """Sparsity and conductivity-free values of the complete-electrode-model
    system; the unknowns are the nodal potentials, then one potential per
    electrode. The entries, in pattern order, are the 16 element stiffness
    entries of each element (row-major), then per electrode patch the
    boundary mass of each face, the two coupling blocks and the electrode
    diagonal. ``indptr`` and ``indices`` are the canonical CSC structure of
    their sum: sorted, one position per distinct (row, column), symmetric.
    ``slot`` maps each entry to its CSC position, so assembly is one fixed
    scatter. Each kernel is exactly symmetric, and so is every electrode
    block, so the sums a scatter forms at (i, j) and at (j, i) add the same
    values in the same order: the assembled matrix is exactly symmetric.

    ``order`` is the solve order of the grounded system, the unknown at
    each position of its band factor: nodes 1 to n - 1 in mesh order (node
    0 is the ground), with electrode k's unknown inserted at the middle of
    its patch's node numbers, (min + max) / 2. An electrode couples to every
    node of its patch. Numbered after the patch's last node it would reach
    back over the whole patch, which on a patch two element layers tall is
    wider than the node band; from the middle it reaches half as far. So
    the system's band is the node band plus the electrodes placed between
    two coupled nodes, one layer's worth: 135 on the tiny meshes, 295 on
    the desk generation mesh, and 535 on a tiny tank meshed at near = 0.19,
    where numbering after the last node gives 874. Every array is
    read-only."""

    kernels: np.ndarray         # (n_elements, 4, 4) grad phi_i . grad phi_j
    electrode_values: np.ndarray  # electrode-term entries at unit admittance
    indptr: np.ndarray          # int32 CSC column starts
    indices: np.ndarray         # int32 CSC row of every position
    slot: np.ndarray            # int32 CSC position of every entry
    order: np.ndarray           # unknown at each solve position, ground out
    n_components: int           # connected components of the system graph


def _face_areas(nodes: np.ndarray, faces: np.ndarray) -> np.ndarray:
    p = nodes[faces]
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    return 0.5 * np.linalg.norm(cross, axis=1)


def _cem_pattern(mesh: Mesh) -> CemPattern:
    n = mesh.n_nodes
    grads = mesh.shape_gradients
    kernels = np.einsum("eik,ejk->eij", grads, grads)
    # exactly symmetric, so that assembly needs no averaging (see CemPattern)
    kernels = (kernels + kernels.transpose(0, 2, 1)) * 0.5
    shape = (mesh.n_elements, 4, 4)
    rows = [np.broadcast_to(mesh.tets[:, :, None], shape).ravel()]
    cols = [np.broadcast_to(mesh.tets[:, None, :], shape).ravel()]
    vals = []
    # boundary mass: int phi_i phi_j over each patch face
    mass = (np.ones((3, 3)) + np.eye(3)) / 12.0
    for k, patch in enumerate(mesh.electrodes):
        fa = _face_areas(mesh.nodes, patch)
        fi = np.broadcast_to(patch[:, :, None], (len(patch), 3, 3))
        fj = np.broadcast_to(patch[:, None, :], (len(patch), 3, 3))
        # coupling: -int phi_i against the electrode dof
        w = np.repeat(fa / 3.0, 3)
        pidx = patch.ravel()
        eidx = np.full(pidx.shape, n + k)
        rows += [fi.ravel(), pidx, eidx, [n + k]]
        cols += [fj.ravel(), eidx, pidx, [n + k]]
        vals += [(mass[None, :, :] * fa[:, None, None]).ravel(), -w, -w,
                 [fa.sum()]]
    size = n + mesh.n_electrodes
    key = (np.concatenate(cols).astype(np.int64) * size
           + np.concatenate(rows))
    # sorted keys are the canonical CSC order: by column, then by row
    key, slot = np.unique(key, return_inverse=True)
    col, row = np.divmod(key, size)
    indptr = np.searchsorted(col, np.arange(size + 1)).astype(np.int32)
    indices = row.astype(np.int32)
    graph = csc_matrix((np.ones(key.size), indices, indptr), shape=(size, size))
    n_components, _ = connected_components(graph, directed=False)
    # sort keys, twice a node number: node i at 2i, electrode k at the
    # min + max of its patch; a stable sort puts it after a node it ties
    middle = [p.min() + p.max() for p in mesh.electrodes]
    key = np.concatenate([2 * np.arange(1, n), np.array(middle, dtype=int)])
    order = np.arange(1, size)[np.argsort(key, kind="stable")]
    pattern = CemPattern(kernels=kernels,
                         electrode_values=np.concatenate(vals),
                         indptr=indptr, indices=indices,
                         slot=slot.astype(np.int32), order=order,
                         n_components=int(n_components))
    for a in (pattern.kernels, pattern.electrode_values, indptr, indices,
              pattern.slot, order):
        a.flags.writeable = False
    return pattern


def _signed_volumes(nodes: np.ndarray, tets: np.ndarray) -> np.ndarray:
    p = nodes[tets]
    e = p[:, 1:, :] - p[:, :1, :]
    return np.linalg.det(e) / 6.0


def _face_table(tets: np.ndarray):
    """All distinct faces with their owner elements and multiplicity."""
    m = tets.shape[0]
    combos = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    faces = np.concatenate([tets[:, c] for c in combos], axis=0)
    faces = np.sort(faces, axis=1)
    owners = np.tile(np.arange(m), 4)
    order = np.lexsort(faces.T[::-1])
    faces = faces[order]
    owners = owners[order]
    new = np.ones(len(faces), dtype=bool)
    new[1:] = np.any(faces[1:] != faces[:-1], axis=1)
    group = np.cumsum(new) - 1
    n_groups = group[-1] + 1 if len(group) else 0
    counts = np.bincount(group, minlength=n_groups)
    uniq = faces[new]
    owner_pairs = np.full((n_groups, 2), -1, dtype=np.int64)
    first = np.where(new)[0]
    owner_pairs[:, 0] = owners[first]
    second_mask = counts >= 2
    owner_pairs[second_mask, 1] = owners[first[second_mask] + 1]
    if np.any(counts > 2):
        bad = int(np.argmax(counts > 2))
        raise MeshingError(f"face {uniq[bad].tolist()} owned by {counts[bad]} elements")
    return uniq, owner_pairs, counts


# --- grid construction -------------------------------------------------------


def _graded_spacings(span: float, near: float, far: float, growth: float) -> np.ndarray:
    """Geometric spacings covering ``span``, snapped so they sum exactly."""
    spacings = []
    total = 0.0
    k = 0
    while total < span - 1e-12:
        s = min(far, near * growth ** k)
        spacings.append(min(s, span - total))
        total += spacings[-1]
        k += 1
    if len(spacings) >= 2 and spacings[-1] < 0.35 * spacings[-2]:
        last = spacings.pop()
        spacings[-1] += last
    return np.asarray(spacings)


def _jitter(values: np.ndarray, free: np.ndarray, rng: np.random.Generator,
            period: float | None = None) -> np.ndarray:
    """Perturb the entries flagged ``free`` by +-_JITTER_FRAC of the local gap.

    With a ``period`` the values wrap around, so the end entries' gaps span
    the seam; without one the end entries stay fixed.
    """
    if period is None:
        ext = np.concatenate([values[:1], values, values[-1:]])
    else:
        ext = np.concatenate([[values[-1] - period], values, [values[0] + period]])
    gaps = np.diff(ext)
    u = rng.uniform(-1.0, 1.0, size=len(values))
    step = _JITTER_FRAC * np.minimum(gaps[:-1], gaps[1:]) * u
    return np.where(free, values + step, values)


def _angular_grid(geom: TankGeometry, density: RefinementSpec,
                  rng: np.random.Generator | None):
    """Angles (radians, strictly increasing, length n_theta covering 2*pi)
    plus per-electrode-column (j_lo, j_hi) grid index spans."""
    epl = geom.electrodes_per_layer
    sector = 2.0 * math.pi / epl
    w = geom.electrode_size[0] / geom.probe_radius
    gap = sector - w
    n_el = max(1, math.ceil(geom.electrode_size[0] / density.near))
    n_gap = max(1, math.ceil(gap * geom.probe_radius / density.near))

    thetas: list[float] = []
    free: list[bool] = []
    spans = []
    for e in range(epl):
        start = e * sector - w / 2.0
        j_lo = len(thetas)
        for t in range(n_el):
            thetas.append(start + w * t / n_el)
            free.append(False)
        thetas.append(start + w)
        free.append(False)
        spans.append((j_lo, len(thetas) - 1))
        # gap interior points; the gap's far edge is the next electrode's start
        for t in range(1, n_gap):
            thetas.append(start + w + gap * t / n_gap)
            free.append(True)
    arr = np.asarray(thetas)
    free_arr = np.asarray(free)
    if rng is not None:
        arr = _jitter(arr, free_arr, rng, period=2.0 * math.pi)
    if np.any(np.diff(arr) <= 0):
        raise MeshingError("angular grid is not strictly increasing")
    return arr, spans


def _z_grid(geom: TankGeometry, density: RefinementSpec,
            rng: np.random.Generator | None):
    """z levels (strictly increasing) plus per-ring (k_lo, k_hi) index spans."""
    h = geom.electrode_size[1]
    centers = geom.ring_centers
    n_eh = max(1, math.ceil(h / density.near))

    levels: list[float] = []
    free: list[bool] = []
    ring_spans: list[tuple[int, int]] = []

    def push(z: float, is_free: bool) -> None:
        levels.append(z)
        free.append(is_free)

    half = geom.tank_height / 2.0
    # bottom section: graded downward from the first ring's lower edge, so
    # the fine spacing sits next to the electrodes and the cap gets the
    # coarse end of the ladder
    z0 = centers[0] - h / 2.0
    bottom = _graded_spacings(z0 + half, density.near, density.far, density.growth)
    descending = z0 - np.cumsum(bottom)
    descending[-1] = -half
    push(-half, False)
    for z in descending[::-1][1:]:
        push(z, True)

    # electrode section: ring slabs and the gaps between them
    for li, zc in enumerate(centers):
        lo, hi = zc - h / 2.0, zc + h / 2.0
        k_lo = len(levels)
        push(lo, False)
        for t in range(1, n_eh):
            push(lo + h * t / n_eh, False)
        push(hi, False)
        ring_spans.append((k_lo, len(levels) - 1))
        nxt = centers[li + 1] - h / 2.0 if li + 1 < len(centers) else None
        if nxt is not None:
            gap = nxt - hi
            n_g = max(1, math.ceil(gap / density.near))
            for t in range(1, n_g):
                push(hi + gap * t / n_g, True)

    # top section: graded from the last ring's upper edge to the cap
    z1 = centers[-1] + h / 2.0
    top = _graded_spacings(half - z1, density.near, density.far, density.growth)
    acc_t = z1
    for s in top[:-1]:
        acc_t += s
        push(acc_t, True)
    push(half, False)

    arr = np.asarray(levels)
    free_arr = np.asarray(free)
    if rng is not None:
        arr = _jitter(arr, free_arr, rng)
    if np.any(np.diff(arr) <= 0):
        raise MeshingError("z grid is not strictly increasing")
    return arr, ring_spans


def _radial_grid(geom: TankGeometry, density: RefinementSpec,
                 rng: np.random.Generator | None) -> np.ndarray:
    spac = _graded_spacings(geom.tank_radius - geom.probe_radius,
                            density.near, density.far, density.growth)
    radii = np.concatenate([[geom.probe_radius],
                            geom.probe_radius + np.cumsum(spac)])
    radii[-1] = geom.tank_radius
    if rng is not None:
        free = np.ones(len(radii), dtype=bool)
        free[0] = free[-1] = False
        radii = _jitter(radii, free, rng)
    if np.any(np.diff(radii) <= 0):
        raise MeshingError("radial grid is not strictly increasing")
    return radii


# --- prism subdivision -------------------------------------------------------


def _split_prisms(tris: np.ndarray, offset_bottom: int, offset_top: int) -> np.ndarray:
    """Split extruded prisms into 3 tets each with the min-vertex diagonal
    rule, which keeps shared quad faces compatible between neighbours."""
    t = tris.shape[0]
    m = np.argmin(tris, axis=1)
    idx = (m[:, None] + np.arange(3)[None, :]) % 3
    rolled = np.take_along_axis(tris, idx, axis=1)
    a = rolled[:, 0] + offset_bottom
    b = rolled[:, 1] + offset_bottom
    c = rolled[:, 2] + offset_bottom
    ta = rolled[:, 0] + offset_top
    tb = rolled[:, 1] + offset_top
    tc = rolled[:, 2] + offset_top
    lo = rolled[:, 1] < rolled[:, 2]
    tets = np.empty((t, 3, 4), dtype=np.int64)
    # diagonal on the (b, c) quad face runs through min(b, c)
    tets[lo, 0] = np.stack([a, b, c, tc], axis=1)[lo]
    tets[lo, 1] = np.stack([a, b, tc, tb], axis=1)[lo]
    tets[lo, 2] = np.stack([a, tb, tc, ta], axis=1)[lo]
    hi = ~lo
    tets[hi, 0] = np.stack([a, b, c, tb], axis=1)[hi]
    tets[hi, 1] = np.stack([a, tb, c, tc], axis=1)[hi]
    tets[hi, 2] = np.stack([a, tb, tc, ta], axis=1)[hi]
    return tets.reshape(-1, 4)


def _annulus_triangles(n_r: int, n_t: int) -> np.ndarray:
    """Structured triangulation of the annulus grid (ring-major node ids)."""
    tris = []
    for i in range(n_r - 1):
        j = np.arange(n_t)
        jp = (j + 1) % n_t
        n00 = i * n_t + j
        n01 = i * n_t + jp
        n11 = (i + 1) * n_t + jp
        n10 = (i + 1) * n_t + j
        corners = np.stack([n00, n01, n11, n10], axis=1)
        mn = corners.min(axis=1)
        use_a = (mn == n00) | (mn == n11)
        tri1 = np.where(use_a[:, None],
                        np.stack([n00, n01, n11], axis=1),
                        np.stack([n01, n11, n10], axis=1))
        tri2 = np.where(use_a[:, None],
                        np.stack([n00, n11, n10], axis=1),
                        np.stack([n01, n10, n00], axis=1))
        tris.append(tri1)
        tris.append(tri2)
    return np.concatenate(tris, axis=0)


def build_mesh(geom: TankGeometry, density: RefinementSpec) -> Mesh:
    """Build the graded probe-tank mesh.

    Deterministic for fixed (geom, density): the same inputs always produce
    a byte-identical mesh. Raises MeshingError if refinement produces a
    degenerate grid or empty patch; both configs refuse bad values when
    they are built.
    """
    rng = np.random.default_rng(density.seed) if density.seed != 0 else None

    thetas, el_spans = _angular_grid(geom, density, rng)
    radii = _radial_grid(geom, density, rng)
    zlevels, ring_spans = _z_grid(geom, density, rng)

    n_t, n_r, n_z = len(thetas), len(radii), len(zlevels)
    n_plane = n_r * n_t

    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    ring_xy = np.empty((n_r, n_t, 2))
    ring_xy[:, :, 0] = radii[:, None] * cos_t[None, :]
    ring_xy[:, :, 1] = radii[:, None] * sin_t[None, :]
    nodes = np.empty((n_z * n_plane, 3))
    plane = ring_xy.reshape(n_plane, 2)
    for k in range(n_z):
        s = k * n_plane
        nodes[s:s + n_plane, :2] = plane
        nodes[s:s + n_plane, 2] = zlevels[k]

    tris = _annulus_triangles(n_r, n_t)
    slabs = []
    for k in range(n_z - 1):
        slabs.append(_split_prisms(tris, k * n_plane, (k + 1) * n_plane))
    tets = np.concatenate(slabs, axis=0)

    vol = _signed_volumes(nodes, tets)
    neg = vol < 0
    tets[neg] = tets[neg][:, [0, 1, 3, 2]]
    if np.any(np.abs(vol) < 1e-14):
        raise MeshingError("degenerate (zero-volume) element produced")
    tets = np.ascontiguousarray(tets, dtype=np.int32)

    # classify boundary faces by structured index, then collect patches
    faces, _owners, counts = _face_table(tets)
    bfaces = faces[counts == 1]
    f_r = (bfaces // n_t) % n_r        # ring index per face node
    f_z = bfaces // n_plane            # level index per face node
    f_j = bfaces % n_t                 # angular index per face node
    on_probe = np.all(f_r == 0, axis=1)

    electrodes = []
    for e in range(32):
        layer = geom.electrode_layer(e)
        within = e % geom.electrodes_per_layer
        j_lo, j_hi = el_spans[within]
        k_lo, k_hi = ring_spans[layer]
        in_j = np.all((f_j >= j_lo) & (f_j <= j_hi), axis=1)
        in_k = np.all((f_z >= k_lo) & (f_z <= k_hi), axis=1)
        sel = on_probe & in_j & in_k
        patch = np.ascontiguousarray(bfaces[sel], dtype=np.int32)
        if patch.shape[0] == 0:
            raise MeshingError(f"electrode {e} received no boundary faces; "
                               "refine the grid or enlarge the patch")
        electrodes.append(patch)

    return Mesh(geometry=geom, nodes=nodes, tets=tets, electrodes=electrodes)
