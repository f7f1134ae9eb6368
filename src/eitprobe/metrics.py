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

The frozen ``GridSpec`` is the only grid geometry, and the key of the
voxelizer cache. Whatever lives on a grid is a plain array of
``spec.shape``: float for a voxelized image, bool for a thresholded
reconstruction or a rasterized ellipsoid. The scorers take such arrays
together with their spec and raise ``DimensionError`` on a shape mismatch.

All metric values reduce to integer voxel counts pushed through one
arithmetic expression, so independently coded counting oracles must match
them exactly, and positive rescaling of the input image cannot move them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ellipeinc, ellipkinc

from .datagen import SampleBounds, target_probe_distance
from .errors import DimensionError, EmptyImageError
from .mesh import Mesh

# sphere of the default placement bound
V_DOMAIN = 4.0 / 3.0 * math.pi * SampleBounds().max_distance ** 3


@dataclass(frozen=True)
class GridSpec:
    """Uniform cubic voxel grid: ``dims`` voxels per axis spanning a cube
    of half-width ``half_width`` around ``center``."""

    half_width: float = 14.0
    dims: int = 64
    center: tuple = (0.0, 0.0, 0.0)

    def validate(self) -> None:
        if not self.half_width > 0:
            raise ValueError("half_width must be positive")
        if self.dims < 8:
            raise ValueError("grid needs at least 8 voxels per axis")
        if len(self.center) != 3:
            raise ValueError("center must be a 3-vector")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.dims

    @property
    def origin(self) -> tuple:
        h = self.spacing
        return tuple(c - self.half_width + 0.5 * h for c in self.center)

    @property
    def shape(self) -> tuple:
        return (self.dims, self.dims, self.dims)

    def axes(self) -> tuple:
        """Per-axis voxel center coordinates."""
        return tuple(o + self.spacing * np.arange(self.dims) for o in self.origin)


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
        edges = np.stack([nodes[tets[:, k]] - v0 for k in (1, 2, 3)], axis=2)
        inv_t = np.linalg.inv(edges).transpose(0, 2, 1)

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
            lam = (pts - v0[e]) @ inv_t[e]
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


_VOXELIZERS: dict = {}


def get_voxelizer(mesh: Mesh, spec: GridSpec = DEFAULT_GRID) -> Voxelizer:
    key = (mesh.mesh_id, spec)
    if key not in _VOXELIZERS:
        _VOXELIZERS[key] = Voxelizer(mesh, spec)
    return _VOXELIZERS[key]


def voxelize(mesh: Mesh, img: np.ndarray,
             spec: GridSpec = DEFAULT_GRID) -> np.ndarray:
    """Sample a nodal image onto the grid; outside-mesh voxels are zero."""
    img = np.asarray(img, dtype=np.float64)
    if img.shape != (mesh.n_nodes,):
        raise DimensionError("image length does not match the mesh")
    return get_voxelizer(mesh, spec).apply(img)


def threshold_quarter(values: np.ndarray, contrast_sign: float = 1.0) -> np.ndarray:
    """Voxels at or above a quarter of the peak signed value."""
    signed = values * (1.0 if contrast_sign >= 0 else -1.0)
    peak = float(signed.max())
    if peak <= 0.0:
        raise EmptyImageError("image has no contrast of the expected sign")
    return signed >= 0.25 * peak


def ellipsoid_form(target, spec: GridSpec) -> np.ndarray:
    """The target's quadratic form at every voxel center: at most 1 inside
    the ellipsoid, at most 4 inside the concentric one of doubled axes."""
    pts = (np.stack(np.meshgrid(*spec.axes(), indexing="ij"), axis=-1)
           - np.asarray(target.center, dtype=np.float64))
    body = pts @ target.rotation_matrix()
    return np.sum((body / np.asarray(target.semi_axes, dtype=np.float64)) ** 2,
                  axis=-1)


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


def full_report(mesh: Mesh, img: np.ndarray, target,
                spec: GridSpec = DEFAULT_GRID, method: str = "",
                case_id: str = "", contrast_sign: float = 1.0,
                domain_volume: float = V_DOMAIN) -> ErrorReport:
    """Voxelize, threshold and score one reconstruction.

    A reconstruction with no contrast of the expected sign cannot be
    thresholded; it scores as the empty reconstruction (the whole truth
    missed, SD pinned at 100) and is tagged so sweeps can count such cases.
    """
    geom = mesh.geometry
    distance = target_probe_distance(target, geom)
    values = voxelize(mesh, img, spec)
    q = ellipsoid_form(target, spec)
    truth, roi = q <= 1.0, q <= 4.0
    try:
        recon = threshold_quarter(values, contrast_sign)
    except EmptyImageError:
        recon = np.zeros(spec.shape, dtype=bool)
    worst_case = not recon.any()
    return ErrorReport(
        method=method, case_id=case_id, distance=distance,
        nade=nade(recon, truth, roi, spec, target, 2.0 * geom.probe_radius),
        delta_res_pct=delta_res(recon, truth, spec, domain_volume),
        sd_pct=100.0 if worst_case else shape_deformation(recon, truth),
        worst_case=worst_case)
