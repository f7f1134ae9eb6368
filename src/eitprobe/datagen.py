"""Randomized ellipsoidal targets, distance-graded noise, dataset packaging.

Targets are ellipsoids dropped around the probe: a uniform azimuth and
height pick the direction, a uniform edge-to-edge distance picks how far
the surface sits from the probe, and a uniform random rotation orients
the body. The edge-to-edge distance between the ellipsoid and the finite
probe cylinder is computed by alternating projections between the two
convex bodies, with an Aitken step that jumps ahead along the path when
its steps shrink geometrically and is kept only when it brings the bodies'
points closer. Each iterate pairs a point of each body, so the pair gap
stays an upper bound, and supporting hyperplanes give a lower bound; a
distance is certified by the two agreeing to 1e-10, and one that is not
raises ``SolverError``. The center radius realizing a requested distance
is found by Brent's method on the bracket [0, hi], which is sound because
the distance is convex in the radius and grows with it once the bodies
part. The radius returned reaches the requested distance, and one
bisection width 2**-48 hi below it falls short.

Measurement noise is zero-mean Gaussian per channel with an SNR that
falls linearly in dB as the measuring pair moves away from the driving
pair along the probe surface (azimuth arc combined with ring offset). No
noise model (``None``) means noiseless frames.

Datasets are directories: a manifest listing the targets, ``v_ref.csv``, and
per sample the raw float64 vectors ``dv.f64``, ``gn_image.f64`` and
``truth.f64``, every byte reproducible from the master seed.
Sample index ``i`` draws from an independent stream seeded with
``master_seed ^ i`` so generation order can never change the output.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy.spatial.transform import Rotation

from .errors import (DimensionError, EitProbeError, ProvenanceError,
                     SolverError)
from .forward import (MeasurementSchedule, StimPattern, VoltageFrame,
                      assemble_system, homogeneous_field, solve_forward,
                      write_frame_csv)
from .gn import ReconstructionMatrix, element_to_nodal, reconstruct_gn
from .ioutil import canonical_json_bytes, read_f64, write_f64
from .mesh import Mesh, TankGeometry

DEFAULT_SEMI_AXES = (4.0, 6.0, 9.0)
DEFAULT_SIGMA_IN = 0.3
DEFAULT_SIGMA_BG = 0.15
# target centers are drawn uniformly in height from [-_Z_BAND, _Z_BAND]
_Z_BAND = 2.0

DATASET_FORMAT = "eitprobe-dataset"
DATASET_VERSION = 2


@dataclass(frozen=True)
class TargetSpec:
    """Rotated ellipsoidal conductivity anomaly in probe-radius units."""

    center: tuple
    semi_axes: tuple = DEFAULT_SEMI_AXES
    quat: tuple = (0.0, 0.0, 0.0, 1.0)   # scalar-last unit quaternion
    sigma_in: float = DEFAULT_SIGMA_IN
    sigma_bg: float = DEFAULT_SIGMA_BG

    def __post_init__(self) -> None:
        if len(self.center) != 3 or len(self.semi_axes) != 3:
            raise ValueError("center and semi_axes must be 3-vectors")
        if not all(map(math.isfinite, (*self.center, *self.quat))):
            raise ValueError("center and quat must be finite")
        if not all(a > 0 and math.isfinite(a) for a in self.semi_axes):
            raise ValueError("semi-axes must be positive and finite")
        if len(self.quat) != 4 or abs(sum(q * q for q in self.quat) - 1.0) > 1e-9:
            raise ValueError("quat must be a unit quaternion (x, y, z, w)")
        if not (0 < self.sigma_in < math.inf and 0 < self.sigma_bg < math.inf):
            raise ValueError("conductivities must be positive and finite")

    def rotation_matrix(self) -> np.ndarray:
        return Rotation.from_quat(self.quat).as_matrix()

    def form(self, points) -> np.ndarray:
        """The ellipsoid's quadratic form over the last axis of ``points``:
        at most 1 inside the ellipsoid, at most 4 inside the concentric one
        of doubled semi-axes. Rasterization and the voxel metrics both
        decide inside from it."""
        body = ((np.asarray(points, dtype=np.float64)
                 - np.asarray(self.center, dtype=np.float64))
                @ self.rotation_matrix())
        q = (body / np.asarray(self.semi_axes, dtype=np.float64)) ** 2
        # bit for bit np.sum over the last axis, without its reduction overhead
        return q[..., 0] + q[..., 1] + q[..., 2]

    @staticmethod
    def from_dict(d: dict) -> "TargetSpec":
        return TargetSpec(center=tuple(d["center"]),
                          semi_axes=tuple(d["semi_axes"]),
                          quat=tuple(d["quat"]),
                          sigma_in=d["sigma_in"], sigma_bg=d["sigma_bg"])


@dataclass(frozen=True)
class SampleBounds:
    """Largest edge-to-edge distance and semi-axes of random targets, placed
    around the mesh's own probe (``TankGeometry``). Center heights within
    ``_Z_BAND`` and the default conductivities are fixed."""

    max_distance: float = 10.0
    semi_axes: tuple = DEFAULT_SEMI_AXES

    def __post_init__(self) -> None:
        if not 0 < self.max_distance < math.inf:
            raise ValueError("max_distance must be positive and finite")
        # every target takes these semi-axes, so they obey a target's rule
        TargetSpec(center=(0.0, 0.0, 0.0), semi_axes=self.semi_axes)


# the kernel's certification width and its iteration cap
_EDGE_TOL = 1e-10
_EDGE_ITERS = 3000
# an extrapolation is tried when the last two displacements of the
# ellipsoid point have a cosine above _AITKEN_COS; its step is capped at
# _AITKEN_MAX displacements
_AITKEN_COS = 0.99
_AITKEN_MAX = 1000.0


def _edge_bounds(rot: np.ndarray, center, semi_axes, radius: float,
                 half_h: float) -> tuple:
    """Extrapolated alternating projections between an ellipsoid and the
    solid finite cylinder; returns ``(lower, upper, iterations)``.

    Each iteration projects the cylinder point onto the ellipsoid and that
    point back onto the cylinder. The pair gap is an upper bound on the
    distance. The supporting hyperplanes of the two bodies normal to the
    pair direction give a lower bound, and so do those normal to its
    horizontal part while the cylinder point lies on the barrel, where the
    cylinder's support function has a kink. Iteration stops when the bounds
    agree to ``_EDGE_TOL``, or after ``_EDGE_ITERS`` iterations with the
    bounds further apart.

    Near a tangential touch plain alternating projections creep along a
    nearly straight path with a step ratio close to one (Bauschke &
    Borwein, *SIAM Review* 38(3), 1996). When the last two displacements
    of the ellipsoid point are nearly parallel and shrinking by a ratio
    rho < 1, an Aitken step jumps rho/(1 - rho) displacements further
    along the path, the sum of its geometric tail, and projects the result
    back onto the ellipsoid (Gearhart & Koshy, *J. Comput. Appl. Math.*
    26(3), 1989). The jump is kept only if the new point lies closer to the
    cylinder than the plain one. Every iterate is thus a point of the
    ellipsoid paired with a point of the cylinder, so the gap stays an
    upper bound; and the support-function bound holds along any direction,
    so the lower bound stays rigorous too. ``iterations`` counts the
    projection pairs, not the trial jumps.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rot.tolist()
    cx, cy, cz = (float(v) for v in center)
    a0, a1, a2 = (float(v) for v in semi_axes)
    a0s, a1s, a2s = a0 * a0, a1 * a1, a2 * a2

    def to_cylinder(x, y, z):
        # the disk x interval splits per component
        rho = math.hypot(x, y)
        scale = radius / rho if rho > radius else 1.0
        return x * scale, y * scale, min(max(z, -half_h), half_h)

    def to_ellipsoid(x, y, z):
        # in the body frame the closest point is w_i a_i^2/(a_i^2 + s); the
        # multiplier equation is smooth, convex and decreasing, so Newton
        # from s = 0 is monotone, and a point inside stays where it is
        dx, dy, dz = x - cx, y - cy, z - cz
        wx = r00 * dx + r10 * dy + r20 * dz
        wy = r01 * dx + r11 * dy + r21 * dz
        wz = r02 * dx + r12 * dy + r22 * dz
        t0, t1, t2 = wx * wx * a0s, wy * wy * a1s, wz * wz * a2s
        s = 0.0
        for _ in range(100):
            d0, d1, d2 = a0s + s, a1s + s, a2s + s
            f = t0 / (d0 * d0) + t1 / (d1 * d1) + t2 / (d2 * d2) - 1.0
            if f < 1e-14:
                break
            fp = -2.0 * (t0 / d0 ** 3 + t1 / d1 ** 3 + t2 / d2 ** 3)
            s -= f / fp
        bx = wx * a0s / (a0s + s)
        by = wy * a1s / (a1s + s)
        bz = wz * a2s / (a2s + s)
        return (cx + r00 * bx + r01 * by + r02 * bz,
                cy + r10 * bx + r11 * by + r12 * bz,
                cz + r20 * bx + r21 * by + r22 * bz)

    def lower(nx, ny, nz):
        # support of the ellipsoid along -n less that of the cylinder along n
        sup_cyl = radius * math.hypot(nx, ny) + half_h * abs(nz)
        ux = r00 * nx + r10 * ny + r20 * nz
        uy = r01 * nx + r11 * ny + r21 * nz
        uz = r02 * nx + r12 * ny + r22 * nz
        min_ell = (nx * cx + ny * cy + nz * cz
                   - math.sqrt((a0 * ux) ** 2 + (a1 * uy) ** 2 + (a2 * uz) ** 2))
        return min_ell - sup_cyl

    px, py, pz = cx, cy, cz
    qx, qy, qz = to_cylinder(px, py, pz)
    ex = ey = ez = 0.0          # the previous displacement of p
    best_lo = -math.inf
    for it in range(1, _EDGE_ITERS + 1):
        bx, by, bz = to_ellipsoid(qx, qy, qz)
        gx, gy, gz = bx - qx, by - qy, bz - qz
        gap = math.sqrt(gx * gx + gy * gy + gz * gz)
        if gap < 1e-12:
            # the projection left a cylinder point in the target where it was
            return 0.0, 0.0, it
        nx, ny, nz = gx / gap, gy / gap, gz / gap
        best_lo = max(best_lo, lower(nx, ny, nz))
        flat = math.hypot(nx, ny)
        if abs(qz) < half_h and 0.0 < flat < 1.0:
            # q is on the barrel, where the cylinder's support has a kink at
            # n_z = 0: a pair direction tilted by t loses about half_h * t
            # of the bound, its horizontal part only second order in t
            best_lo = max(best_lo, lower(nx / flat, ny / flat, 0.0))
        if gap - best_lo <= _EDGE_TOL:
            break

        sx, sy, sz = to_cylinder(bx, by, bz)
        dx, dy, dz = bx - px, by - py, bz - pz
        dd = dx * dx + dy * dy + dz * dz
        de = dx * ex + dy * ey + dz * ez
        ee = ex * ex + ey * ey + ez * ez
        # cosine above _AITKEN_COS and ratio below one, free of divisions
        if de > 0.0 and dd < ee and de * de > _AITKEN_COS ** 2 * dd * ee:
            ratio = math.sqrt(dd / ee)
            k = min(ratio / (1.0 - ratio), _AITKEN_MAX)
            jx, jy, jz = to_ellipsoid(bx + k * dx, by + k * dy, bz + k * dz)
            vx, vy, vz = to_cylinder(jx, jy, jz)
            if ((jx - vx) ** 2 + (jy - vy) ** 2 + (jz - vz) ** 2
                    < (bx - sx) ** 2 + (by - sy) ** 2 + (bz - sz) ** 2):
                bx, by, bz, sx, sy, sz = jx, jy, jz, vx, vy, vz
        ex, ey, ez = dx, dy, dz
        px, py, pz, qx, qy, qz = bx, by, bz, sx, sy, sz
    return best_lo, gap, it


def _distance(rot: np.ndarray, center, semi_axes,
              geom: TankGeometry) -> float:
    """Upper bound of ``_edge_bounds``, zero for overlapping bodies;
    bounds more than ``_EDGE_TOL`` apart raise ``SolverError``."""
    lo, hi, iters = _edge_bounds(rot, center, semi_axes, geom.probe_radius,
                                 geom.probe_height / 2.0)
    if hi - lo > _EDGE_TOL:
        raise SolverError(f"probe distance not certified after {iters} "
                          f"iterations: bounds [{float(lo)!r}, {float(hi)!r}]")
    return hi


def target_probe_distance(target: TargetSpec, geom: TankGeometry) -> float:
    """Edge-to-edge distance between the target ellipsoid and the probe
    cylinder of ``geom``, accurate to 1e-10; overlapping bodies report
    zero. A distance the kernel cannot certify within its iteration cap
    raises ``SolverError`` rather than being recorded."""
    return _distance(target.rotation_matrix(), target.center,
                     target.semi_axes, geom)


def _brent(f, lo: float, hi: float, flo: float, fhi: float,
           xtol: float) -> float:
    """Brent's method (Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 4) on a bracket with f(lo) < 0 <= f(hi): returns
    the end with f >= 0 of a bracket narrower than ``xtol``.

    Each step takes the inverse quadratic or secant estimate from the best
    point when that step is short enough, and bisects otherwise, so the
    bracket never shrinks much slower than by bisection. The algorithm is
    that of ``scipy.optimize.brentq``, which is not used because importing
    ``scipy.optimize`` adds about 8 MB of resident memory to the process.
    """
    # cur: best estimate; blk: last point of the other sign; pre: previous
    xpre, fpre, xcur, fcur = lo, flo, hi, fhi
    xblk = fblk = spre = scur = 0.0
    half = xtol / 2.0
    while True:
        if (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        sbis = (xblk - xcur) / 2.0
        if abs(sbis) < half:
            return xblk if fcur < 0 else xcur
        stry = math.inf
        if abs(spre) > half and abs(fcur) < abs(fpre):
            if xpre == xblk:    # secant; fcur != fpre here
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:               # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                if den != 0.0:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / den
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - half):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > half else math.copysign(half, sbis)
        fcur = f(xcur)


def _place_radius(azimuth: float, z0: float, distance: float, semi_axes,
                  quat, geom: TankGeometry) -> float:
    """Center radius at which the target sits ``distance`` from the probe.

    The distance is convex in the center radius and grows with it once the
    bodies part, so [0, hi] brackets the requested value. Brent's method
    narrows that bracket on the certified distance (``_distance``) to less
    than ``step = hi * 2**-48``, the width 48 bisection steps would leave,
    and returns its upper end r: ``dist(r) >= distance``, while the lower
    end, less than one step below r, has ``dist < distance``. A distance
    the kernel cannot certify raises ``SolverError``.
    """
    rot = Rotation.from_quat(quat).as_matrix()
    ca, sa = math.cos(azimuth), math.sin(azimuth)

    def excess(rho: float) -> float:
        return _distance(rot, (rho * ca, rho * sa, z0), semi_axes,
                         geom) - distance

    f0 = excess(0.0)
    if f0 >= 0.0:
        # even centered on the probe axis the target is that far away
        return 0.0
    # every target point then lies at least distance + 1 off the probe wall
    hi = geom.probe_radius + distance + max(semi_axes) + 1.0
    return _brent(excess, 0.0, hi, f0, excess(hi), hi * 2.0 ** -48)


def sample_target(rng: np.random.Generator, geom: TankGeometry,
                  bounds: SampleBounds = SampleBounds()) -> TargetSpec:
    """Draw one target: uniform azimuth and height around the probe of
    ``geom``, uniform edge-to-edge distance, uniform random orientation."""
    azimuth = rng.uniform(0.0, 2.0 * math.pi)
    z0 = rng.uniform(-_Z_BAND, _Z_BAND)
    distance = rng.uniform(0.0, bounds.max_distance)
    quat = tuple(float(v) for v in Rotation.random(random_state=rng).as_quat())
    rho = _place_radius(azimuth, z0, distance, bounds.semi_axes, quat, geom)
    center = (rho * math.cos(azimuth), rho * math.sin(azimuth), z0)
    return TargetSpec(center=center, semi_axes=bounds.semi_axes, quat=quat)


def rasterize_target(mesh: Mesh, target: TargetSpec) -> np.ndarray:
    """Per-element conductivity: sigma_in inside the ellipsoid, else bg."""
    sigma = np.full(mesh.n_elements, target.sigma_bg)
    sigma[target.form(mesh.centroids) <= 1.0] = target.sigma_in
    return sigma


# --- noise -------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseModel:
    """SNR endpoints for the separation-graded Gaussian noise."""

    snr_near_db: float = 50.0
    snr_far_db: float = 10.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.snr_near_db) and math.isfinite(self.snr_far_db)):
            raise ValueError("SNR endpoints must both be finite")
        if not self.snr_near_db > self.snr_far_db:
            raise ValueError("snr_near_db must exceed snr_far_db")


def pair_separations(schedule: MeasurementSchedule) -> np.ndarray:
    """Separation between drive and measuring pair midpoints per retained
    measurement: azimuth arc at the probe surface combined with the ring
    offset, both in probe radii for the reference probe."""
    az, pairs = schedule.electrode_azimuth, schedule.pairs
    a0, a1 = az[pairs[:, 0]], az[pairs[:, 1]]
    # midpoint on the circle; adjacent electrodes are always less than
    # half a turn apart so the shorter arc is unambiguous
    diff = np.angle(np.exp(1j * (a1 - a0)))
    mid = np.angle(np.exp(1j * (a0 + diff / 2.0)))
    layer = schedule.electrode_layer[pairs[:, 0]].astype(float)
    drive, meas = schedule.pair_index
    dphi = np.abs(np.angle(np.exp(1j * (mid[meas] - mid[drive]))))
    dz = np.abs(layer[meas] - layer[drive])
    return np.hypot(dphi, dz)


def snr_per_measurement(schedule: MeasurementSchedule,
                        nm: NoiseModel) -> np.ndarray:
    """Per-measurement SNR in dB: linear between the endpoints against the
    min-max normalized separation, so the closest pairing gets exactly
    snr_near_db and the farthest exactly snr_far_db."""
    sep = pair_separations(schedule)
    lo, hi = sep.min(), sep.max()
    x = (sep - lo) / (hi - lo) if hi > lo else np.zeros_like(sep)
    return nm.snr_near_db - (nm.snr_near_db - nm.snr_far_db) * x


def add_noise(frame: VoltageFrame, schedule: MeasurementSchedule,
              nm: NoiseModel, rng: np.random.Generator) -> VoltageFrame:
    """Additive zero-mean Gaussian noise, variance v^2 / 10^(SNR/10)."""
    if frame.schedule_id != schedule.schedule_id:
        raise ProvenanceError("frame does not belong to this schedule")
    if frame.values.shape != (schedule.n_measurements,):
        raise DimensionError("frame length does not match the schedule")
    snr = snr_per_measurement(schedule, nm)
    std = np.abs(frame.values) * 10.0 ** (-snr / 20.0)
    values = frame.values + rng.standard_normal(len(std)) * std
    return VoltageFrame(values=values, schedule_id=frame.schedule_id)


# --- dataset -----------------------------------------------------------------


@dataclass(eq=False)
class Sample:
    """One generated case: ground truth on the generation mesh, voltages,
    and the linear reconstruction on the inverse mesh."""

    target: TargetSpec
    distance: float
    v_noisy: VoltageFrame
    gn_image: np.ndarray     # inverse-mesh nodes
    truth_nodal: np.ndarray  # inverse-mesh nodes, contrast above background


def reference_frame(mesh: Mesh, schedule: MeasurementSchedule,
                    pattern: StimPattern, sigma_bg: float) -> VoltageFrame:
    """Forward solve of the homogeneous background."""
    system = assemble_system(mesh, homogeneous_field(mesh, sigma_bg))
    return solve_forward(system, pattern, schedule)


def make_sample(index: int, master_seed: int, gen_mesh: Mesh, inv_mesh: Mesh,
                schedule: MeasurementSchedule, pattern: StimPattern,
                nm: NoiseModel | None, rmat: ReconstructionMatrix,
                bounds: SampleBounds, v_ref: VoltageFrame) -> Sample:
    """Sample ``index`` of the dataset seeded ``master_seed``; with no noise
    model its noisy frame is the clean one."""
    rng = np.random.default_rng(master_seed ^ index)
    target = sample_target(rng, gen_mesh.geometry, bounds)
    sigma = rasterize_target(gen_mesh, target)
    system = assemble_system(gen_mesh, sigma)
    v_clean = solve_forward(system, pattern, schedule)
    v_noisy = v_clean if nm is None else add_noise(v_clean, schedule, nm, rng)
    dv = v_noisy.values - v_ref.values
    gn_image = reconstruct_gn(rmat, dv, inv_mesh)
    truth_sigma = rasterize_target(inv_mesh, target)
    truth_nodal = element_to_nodal(truth_sigma - target.sigma_bg, inv_mesh)
    distance = target_probe_distance(target, gen_mesh.geometry)
    return Sample(target=target, distance=distance, v_noisy=v_noisy,
                  gn_image=gn_image, truth_nodal=truth_nodal)


def _sample_dirname(index: int) -> str:
    return f"samples/sample_{index:05d}"


def gen_dataset(out_dir: str | Path, n: int, gen_mesh: Mesh, inv_mesh: Mesh,
                schedule: MeasurementSchedule, rmat: ReconstructionMatrix,
                noise: NoiseModel | None = None,
                bounds: SampleBounds = SampleBounds(),
                pattern: StimPattern = StimPattern(),
                master_seed: int = 0) -> dict:
    """Generate ``n`` samples into a dataset directory; returns the manifest.

    The forward problem runs on the generation mesh and the reconstruction
    on the inverse mesh; running both on one mesh is refused. With no
    ``noise`` model the frames are noiseless and the manifest's noise null.
    Files are written in the order ``v_ref.csv``, per sample ``dv.f64``,
    ``gn_image.f64``, ``truth.f64``, and ``manifest.json``.
    """
    if n < 1:
        raise ValueError("dataset needs at least one sample")
    if master_seed < 0:
        raise ValueError("master_seed must be nonnegative")
    if gen_mesh.mesh_id == inv_mesh.mesh_id:
        raise ProvenanceError(
            "generation and inverse meshes are identical; reconstruction "
            "would be tested on its own discretization")
    if rmat.mesh_id != inv_mesh.mesh_id:
        raise ProvenanceError("reconstruction matrix mesh does not match "
                              "the inverse mesh")
    if rmat.schedule_id != schedule.schedule_id:
        raise ProvenanceError("reconstruction matrix schedule does not "
                              "match the measurement schedule")

    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    v_ref = reference_frame(gen_mesh, schedule, pattern, DEFAULT_SIGMA_BG)
    write_frame_csv(v_ref, schedule, root / "v_ref.csv")

    targets = []
    for i in range(n):
        try:
            s = make_sample(i, master_seed, gen_mesh, inv_mesh, schedule,
                            pattern, noise, rmat, bounds, v_ref)
        except EitProbeError as exc:
            raise type(exc)(f"sample {i}: {exc}") from exc
        sdir = root / _sample_dirname(i)
        sdir.mkdir(parents=True, exist_ok=True)
        write_f64(sdir / "dv.f64", s.v_noisy.values - v_ref.values)
        write_f64(sdir / "gn_image.f64", s.gn_image)
        write_f64(sdir / "truth.f64", s.truth_nodal)
        targets.append({**asdict(s.target), "distance": s.distance})

    manifest = {
        "format": DATASET_FORMAT,
        "version": DATASET_VERSION,
        "n_samples": n,
        "master_seed": master_seed,
        "generation_mesh_id": gen_mesh.mesh_id,
        "inverse_mesh_id": inv_mesh.mesh_id,
        "schedule_id": schedule.schedule_id,
        "reconstruction_config_hash": rmat.config_hash,
        "amplitude": pattern.amplitude,
        "noise": None if noise is None else asdict(noise),
        "bounds": asdict(bounds),
        "targets": targets,
    }
    data = canonical_json_bytes(manifest)
    (root / "manifest.json").write_bytes(data)
    # as ``load_manifest`` reads it back: the configs' tuples become lists
    return json.loads(data)


def load_manifest(path: str | Path) -> dict:
    doc = json.loads((Path(path) / "manifest.json").read_bytes())
    if doc.get("format") != DATASET_FORMAT:
        raise ValueError("not a dataset directory")
    if doc.get("version") != DATASET_VERSION:
        raise ValueError(f"unsupported dataset version {doc.get('version')}")
    return doc


@dataclass(eq=False)
class DatasetArrays:
    """Stacked per-sample arrays ready for training and evaluation."""

    dv: np.ndarray         # (n, n_measurements) noisy minus reference
    gn_images: np.ndarray  # (n, n_nodes)
    truth: np.ndarray      # (n, n_nodes)
    distances: np.ndarray  # (n,)


def load_training_arrays(path: str | Path,
                         schedule: MeasurementSchedule) -> DatasetArrays:
    """Stack each manifest target's distance and ``.f64`` vectors; a dv must
    hold ``schedule.n_measurements`` values, an image the first's length."""
    root = Path(path)
    manifest = load_manifest(root)
    if manifest["schedule_id"] != schedule.schedule_id:
        raise ProvenanceError("dataset was generated for another schedule")
    if not manifest["targets"]:
        raise DimensionError("dataset holds no samples")
    samples = [[read_f64(root / _sample_dirname(i) / name)
                for name in ("dv.f64", "gn_image.f64", "truth.f64")]
               for i in range(len(manifest["targets"]))]
    want = [schedule.n_measurements] + 2 * [samples[0][1].size]
    for i, arrays in enumerate(samples):
        if (sizes := [a.size for a in arrays]) != want:
            raise DimensionError(f"{_sample_dirname(i)}: sizes {sizes}, not {want}")
    dv, gn, truth = (np.array(v) for v in zip(*samples))
    distances = np.array([t["distance"] for t in manifest["targets"]])
    return DatasetArrays(dv=dv, gn_images=gn, truth=truth, distances=distances)
