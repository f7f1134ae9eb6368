"""Voxel-space figures of merit for nodal reconstruction images.

A nodal image is sampled onto a regular voxel grid by P1 interpolation
inside the containing tetrahedron, thresholded at a quarter of the peak
signed value, and compared against the analytically voxelized truth
ellipsoid. Three numbers summarize the comparison: NADE (symmetric
difference volume inside a 2x region of interest, divided by the truth
surface area and the probe diameter), |dRES| (difference of the cube-root
volume fractions, in percent) and SD (fraction of the reconstruction
lying outside the truth, in percent). The probe size comes from the
mesh's geometry.

The frozen ``GridSpec`` is the only grid geometry: a cube centred on the
middle of the probe. The geometry comes from its owners: barycentric
coordinates from ``Mesh.shape_gradients``, the truth and the region of
interest from ``TargetSpec.form``.

A ``Voxelizer`` holds one sparse nodes-to-voxels interpolation matrix,
built by array-wide point-in-element tests over groups of elements with
boxes of one size, so voxelizing an image is one sparse product.
Voxelizers are cached per mesh object and grid; the cache holds the mesh
weakly, so a voxelizer is freed with its mesh.

``full_report`` scores an image in one counting pass. The truth and the
region of interest lie inside the voxel box around the target's doubled
ellipsoid, so the form is evaluated there only, and every figure comes
from four integer counts: the reconstruction over the whole grid, and the
truth, the error set and the hit set in the box. Independently coded
counting oracles must therefore match the figures exactly, and positive
rescaling of the input image cannot move them.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.special import ellipeinc, ellipkinc

from .datagen import SampleBounds, TargetSpec, target_probe_distance
from .errors import DimensionError
from .mesh import Mesh

# sphere of the default placement bound
V_DOMAIN = 4.0 / 3.0 * math.pi * SampleBounds().max_distance ** 3
# candidate voxels per chunk of the voxelizer build; caps its working set
# at a few arrays of this many rows
_CHUNK_VOXELS = 1 << 14


@dataclass(frozen=True)
class GridSpec:
    """Uniform cubic voxel grid: ``dims`` voxels per axis spanning a cube
    of half-width ``half_width`` around the origin."""

    half_width: float = 14.0
    dims: int = 64

    def __post_init__(self) -> None:
        if not 0 < self.half_width < math.inf:
            raise ValueError("half_width must be positive and finite")
        if not isinstance(self.dims, (int, np.integer)) or self.dims < 8:
            raise ValueError("grid needs an integer of at least 8 voxels per "
                             f"axis (got {self.dims!r})")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.dims

    @property
    def origin(self) -> float:
        """Coordinate of the first voxel center, the same on every axis."""
        return -self.half_width + 0.5 * self.spacing

    @property
    def shape(self) -> tuple:
        return (self.dims, self.dims, self.dims)

    def axes(self) -> tuple:
        """Per-axis voxel center coordinates."""
        centers = self.origin + self.spacing * np.arange(self.dims)
        return (centers, centers, centers)


DEFAULT_GRID = GridSpec()


class Voxelizer:
    """Precomputed P1 interpolation from one mesh's nodes onto one grid.

    ``inside`` flags the voxels whose center lies in some element, and
    ``matrix`` is an n_vox-by-n_nodes CSR matrix with the four barycentric
    weights of the containing element on each inside voxel's row and an
    empty row elsewhere, so applying it to an image is one sparse product.

    The build groups the elements by the extent of their grid box and
    tests each group chunk by chunk on the voxels in the boxes. The
    barycentrics are separable over the axes, lambda = A_x[ix] + A_y[iy] +
    A_z[iz], with every coordinate down to -1e-12 counting as inside. A
    voxel on a face or an edge shared by several elements takes the
    lowest-indexed one.
    """

    def __init__(self, mesh: Mesh, spec: GridSpec):
        self.spec = spec
        axes = spec.axes()
        n = spec.dims
        h = spec.spacing
        tets = mesh.tets
        corners = mesh.nodes[tets]
        v0 = corners[:, 0]
        # lambda_k = (p - v0) . grad phi_k for k = 1..3, as (k, element, axis)
        grads = mesh.shape_gradients[:, 1:, :].transpose(1, 0, 2)

        def barycentric(els, ix, iy, iz):
            """lambda_1..3 (leading axis) of elements ``els`` at the voxels
            (ix, iy, iz), one separable term per axis, all broadcast."""
            t = [(axes[a][i] - v0[els, a]) * grads[:, els, a]
                 for a, i in enumerate((ix, iy, iz))]
            return t[0] + t[1] + t[2]

        lo = np.ceil((corners.min(axis=1) - spec.origin) / h - 1e-12)
        hi = np.floor((corners.max(axis=1) - spec.origin) / h + 1e-12)
        lo = np.maximum(lo, 0).astype(np.int64)
        hi = np.minimum(hi, n - 1).astype(np.int64)
        live = np.flatnonzero(np.all(hi >= lo, axis=1))
        extents, group = np.unique(hi[live] - lo[live] + 1, axis=0,
                                   return_inverse=True)
        members = np.split(live[np.argsort(group, kind="stable")],
                           np.cumsum(np.bincount(group))[:-1])

        owner = np.full(n ** 3, mesh.n_elements, dtype=np.int64)
        for ext, group_els in zip(extents, members):
            step = max(1, _CHUNK_VOXELS // int(ext.prod()))
            for c in range(0, len(group_els), step):
                els = group_els[c:c + step, None, None, None]
                # (chunk, ex, ey, ez) once broadcast
                ix = lo[els, 0] + np.arange(ext[0])[:, None, None]
                iy = lo[els, 1] + np.arange(ext[1])[:, None]
                iz = lo[els, 2] + np.arange(ext[2])
                lam = barycentric(els, ix, iy, iz)
                ok = ((lam.min(axis=0) >= -1e-12)
                      & (1.0 - lam.sum(axis=0) >= -1e-12))
                np.minimum.at(owner, ((ix * n + iy) * n + iz)[ok],
                              np.broadcast_to(els, ok.shape)[ok])

        self.inside = owner < mesh.n_elements
        vox = np.flatnonzero(self.inside)
        owner = owner[vox]
        # the owners' weights, recomputed in chunks rather than kept per
        # candidate, so the build holds no dense (n_vox, 3) array
        weights = np.empty((len(vox), 4))
        for c in range(0, len(vox), _CHUNK_VOXELS):
            rows = slice(c, c + _CHUNK_VOXELS)
            lam = barycentric(owner[rows], *np.unravel_index(vox[rows],
                                                             spec.shape))
            weights[rows, 0] = 1.0 - lam.sum(axis=0)
            weights[rows, 1:] = lam.T
        indptr = np.zeros(n ** 3 + 1, dtype=np.int64)
        np.cumsum(self.inside, out=indptr[1:])
        indptr *= 4
        self.matrix = csr_matrix((weights.ravel(), tets[owner].ravel(), indptr),
                                 shape=(n ** 3, mesh.n_nodes))

    def apply(self, img: np.ndarray) -> np.ndarray:
        return (self.matrix @ img).reshape(self.spec.shape)


# mesh -> {GridSpec: Voxelizer}; an entry goes when its mesh is freed
_VOXELIZERS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def get_voxelizer(mesh: Mesh, spec: GridSpec = DEFAULT_GRID) -> Voxelizer:
    per_grid = _VOXELIZERS.setdefault(mesh, {})
    if spec not in per_grid:
        per_grid[spec] = Voxelizer(mesh, spec)
    return per_grid[spec]


def ellipsoid_surface_area(semi_axes) -> float:
    """Exact triaxial ellipsoid surface area via Legendre integrals."""
    a, b, c = sorted((float(v) for v in semi_axes), reverse=True)
    if a - c < 1e-12 * a:
        return 4.0 * math.pi * a * c
    phi = math.acos(c / a)
    m = (a * a * (b * b - c * c)) / (b * b * (a * a - c * c))
    sin_phi = math.sin(phi)
    return (2.0 * math.pi * c * c
            + (2.0 * math.pi * a * b / sin_phi)
            * (ellipeinc(phi, m) * sin_phi ** 2
               + ellipkinc(phi, m) * math.cos(phi) ** 2))


def _target_box(target: TargetSpec, spec: GridSpec) -> tuple:
    """The voxel box that holds every voxel where ``target.form`` is at
    most 4, as a tuple of slices, and the form's values on that box.

    The doubled ellipsoid reaches 2 * sqrt(sum_k (R[a, k] * s_k)**2) from
    its center along axis a; the box adds one voxel to that on each side
    and is clipped to the grid, so it may be empty.
    """
    h = spec.spacing
    scaled = target.rotation_matrix() * np.asarray(target.semi_axes)
    reach = 2.0 * np.sqrt(np.sum(scaled ** 2, axis=1)) + h
    center = np.asarray(target.center, dtype=np.float64)
    lo = np.ceil((center - reach - spec.origin) / h)
    hi = np.floor((center + reach - spec.origin) / h) + 1
    box = tuple(slice(int(a), int(b)) for a, b in
                zip(np.clip(lo, 0, spec.dims), np.clip(hi, 0, spec.dims)))
    return box, target.form(np.stack(np.meshgrid(
        *(ax[b] for ax, b in zip(spec.axes(), box)), indexing="ij"), axis=-1))


@dataclass(frozen=True)
class ErrorReport:
    """One case's figures of merit."""

    method: str
    case_id: str
    distance: float
    nade: float
    delta_res_pct: float
    sd_pct: float
    worst_case: bool = False


def full_report(mesh: Mesh, img: np.ndarray, target: TargetSpec,
                spec: GridSpec = DEFAULT_GRID, method: str = "",
                case_id: str = "") -> ErrorReport:
    """Voxelize, threshold and score one reconstruction.

    The image goes through the mesh's cached voxelizer (one sparse
    product), and the reconstruction is the voxels at or above a quarter
    of its peak. Truth (form <= 1) and the 2x region of interest (form <=
    4) are taken on the target's box alone. Four counts then give every
    figure: the reconstruction, the truth, the symmetric difference of the
    reconstruction within the region of interest and the truth (NADE's
    error volume, over the truth's surface area and the probe diameter),
    and the reconstruction within the truth (SD's spurious share is the
    rest of the reconstruction). |dRES| compares the cube roots of the
    reconstruction's and the truth's shares of ``V_DOMAIN``.

    An image with no positive contrast gives the empty reconstruction: it
    misses the whole truth, its SD is pinned at 100 and it is tagged
    ``worst_case`` so sweeps can count such cases.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.shape != (mesh.n_nodes,):
        raise DimensionError("image length does not match the mesh")
    values = get_voxelizer(mesh, spec).apply(img)
    peak = float(values.max())
    recon = (values >= 0.25 * peak if peak > 0.0
             else np.zeros(spec.shape, dtype=bool))
    box, q = _target_box(target, spec)
    truth, seen = q <= 1.0, recon[box]
    n_recon = int(np.count_nonzero(recon))
    n_truth = int(np.count_nonzero(truth))
    n_err = int(np.count_nonzero((seen & (q <= 4.0)) ^ truth))
    n_hit = int(np.count_nonzero(seen & truth))

    geom = mesh.geometry
    h = spec.spacing
    res_r, res_t = ((n * h ** 3 / V_DOMAIN) ** (1.0 / 3.0)
                    for n in (n_recon, n_truth))
    return ErrorReport(
        method=method, case_id=case_id,
        distance=target_probe_distance(target, geom),
        nade=(((n_err * h ** 3) / ellipsoid_surface_area(target.semi_axes))
              / (2.0 * geom.probe_radius)),
        delta_res_pct=abs(res_r - res_t) * 100.0,
        sd_pct=100.0 if n_recon == 0 else 100.0 * (n_recon - n_hit) / n_recon,
        worst_case=n_recon == 0)
