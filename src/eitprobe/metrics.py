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
middle of the probe. Whatever lives on a grid is a plain array of
``spec.shape``: float for a voxelized image, bool for a thresholded
reconstruction or a rasterized ellipsoid. The scorers take such arrays
together with their spec and raise ``DimensionError`` on a shape mismatch.
The geometry comes from its owners: barycentric coordinates from
``Mesh.shape_gradients``, the truth and the region of interest from
``TargetSpec.form``.

Voxelizers are cached per mesh object and grid; the cache holds the mesh
weakly, so a voxelizer is freed with its mesh.

All metric values reduce to integer voxel counts pushed through one
arithmetic expression, so independently coded counting oracles must match
them exactly, and positive rescaling of the input image cannot move them.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np
from scipy.special import ellipeinc, ellipkinc

from .datagen import SampleBounds, TargetSpec, target_probe_distance
from .errors import DimensionError, EmptyImageError
from .mesh import Mesh

# sphere of the default placement bound
V_DOMAIN = 4.0 / 3.0 * math.pi * SampleBounds().max_distance ** 3


@dataclass(frozen=True)
class GridSpec:
    """Uniform cubic voxel grid: ``dims`` voxels per axis spanning a cube
    of half-width ``half_width`` around the origin."""

    half_width: float = 14.0
    dims: int = 64

    def validate(self) -> None:
        if not self.half_width > 0:
            raise ValueError("half_width must be positive")
        if self.dims < 8:
            raise ValueError("grid needs at least 8 voxels per axis")

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


def _check_shape(shape: tuple, *volumes: np.ndarray) -> None:
    if any(v.shape != shape for v in volumes):
        raise DimensionError("volumes live on different grids")


class Voxelizer:
    """Precomputed voxel-to-tetrahedron interpolation for one mesh/grid
    pairing; building it walks every element once, applying it to an
    image is a single gather."""

    def __init__(self, mesh: Mesh, spec: GridSpec):
        spec.validate()
        self.mesh_id = mesh.mesh_id
        self.spec = spec
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
        # lambda_k = (p - v0) . grad phi_k for k = 1..3
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

        self.tet_of = tet_of
        self.bary = bary
        self.inside = tet_of >= 0
        self.corner_nodes = tets[np.where(self.inside, tet_of, 0)]

    def apply(self, img: np.ndarray) -> np.ndarray:
        vals = np.einsum("vk,vk->v", self.bary, img[self.corner_nodes])
        return np.where(self.inside, vals, 0.0).reshape(self.spec.shape)


# mesh -> {GridSpec: Voxelizer}; an entry goes when its mesh is freed
_VOXELIZERS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def get_voxelizer(mesh: Mesh, spec: GridSpec = DEFAULT_GRID) -> Voxelizer:
    per_grid = _VOXELIZERS.setdefault(mesh, {})
    if spec not in per_grid:
        per_grid[spec] = Voxelizer(mesh, spec)
    return per_grid[spec]


def voxelize(mesh: Mesh, img: np.ndarray,
             spec: GridSpec = DEFAULT_GRID) -> np.ndarray:
    """Sample a nodal image onto the grid; outside-mesh voxels are zero."""
    img = np.asarray(img, dtype=np.float64)
    if img.shape != (mesh.n_nodes,):
        raise DimensionError("image length does not match the mesh")
    return get_voxelizer(mesh, spec).apply(img)


def threshold_quarter(values: np.ndarray) -> np.ndarray:
    """Voxels at or above a quarter of the peak value."""
    peak = float(values.max())
    if peak <= 0.0:
        raise EmptyImageError("image has no positive contrast")
    return values >= 0.25 * peak


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


def nade(recon: np.ndarray, truth: np.ndarray, roi: np.ndarray,
         spec: GridSpec, target, probe_diameter: float) -> float:
    """Normalized average distance error against the analytic truth.

    Error volume is the symmetric difference between the reconstruction
    restricted to the 2x concentric region of interest ``roi`` and the
    voxelized ``truth``; it is divided by the truth surface area, then by
    the probe diameter.
    """
    _check_shape(spec.shape, recon, truth, roi)
    err = int(np.count_nonzero((recon & roi) ^ truth))
    h = spec.spacing
    return ((err * h ** 3) / ellipsoid_surface_area(target.semi_axes)) / probe_diameter


def delta_res(recon: np.ndarray, truth: np.ndarray, spec: GridSpec,
              domain_volume: float = V_DOMAIN) -> float:
    """Cube-root volume-fraction difference, in percent."""
    _check_shape(spec.shape, recon, truth)
    h = spec.spacing
    res_r = (int(np.count_nonzero(recon)) * h ** 3 / domain_volume) ** (1.0 / 3.0)
    res_t = (int(np.count_nonzero(truth)) * h ** 3 / domain_volume) ** (1.0 / 3.0)
    return abs(res_r - res_t) * 100.0


def shape_deformation(recon: np.ndarray, truth: np.ndarray) -> float:
    """Share of the reconstruction lying outside the truth, in percent."""
    _check_shape(recon.shape, truth)
    n_recon = int(np.count_nonzero(recon))
    if n_recon == 0:
        raise EmptyImageError("empty reconstruction")
    spurious = int(np.count_nonzero(recon & ~truth))
    return 100.0 * spurious / n_recon


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
                case_id: str = "",
                domain_volume: float = V_DOMAIN) -> ErrorReport:
    """Voxelize, threshold and score one reconstruction.

    A reconstruction with no positive contrast cannot be thresholded; it
    scores as the empty reconstruction (the whole truth missed, SD pinned
    at 100) and is tagged so sweeps can count such cases.
    """
    geom = mesh.geometry
    distance = target_probe_distance(target, geom)
    values = voxelize(mesh, img, spec)
    q = target.form(np.stack(np.meshgrid(*spec.axes(), indexing="ij"), axis=-1))
    truth, roi = q <= 1.0, q <= 4.0
    try:
        recon = threshold_quarter(values)
    except EmptyImageError:
        recon = np.zeros(spec.shape, dtype=bool)
    worst_case = not recon.any()
    return ErrorReport(
        method=method, case_id=case_id, distance=distance,
        nade=nade(recon, truth, roi, spec, target, 2.0 * geom.probe_radius),
        delta_res_pct=delta_res(recon, truth, spec, domain_volume),
        sd_pct=100.0 if worst_case else shape_deformation(recon, truth),
        worst_case=worst_case)
