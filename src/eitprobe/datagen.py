"""Randomized ellipsoidal targets, distance-graded noise, dataset packaging.

Targets are ellipsoids dropped around the probe: a uniform azimuth and
height pick the direction, a uniform edge-to-edge distance picks how far
the surface sits from the probe, and a uniform random rotation orients
the body. The edge-to-edge distance between the ellipsoid and the finite
probe cylinder is computed by alternating projections between the two
convex bodies; the center radius realizing a requested distance is found
by bisection, which is sound because translating the ellipsoid radially
away from the probe can only grow the distance.

Measurement noise is zero-mean Gaussian per channel with an SNR that
falls linearly in dB as the measuring pair moves away from the driving
pair along the probe surface (azimuth arc combined with ring offset).

Datasets are directories: a manifest, one reference frame, and per-sample
target/voltage/image files, every byte reproducible from the master seed.
Sample index ``i`` draws from an independent stream seeded with
``master_seed ^ i`` so generation order can never change the output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial.transform import Rotation

from .errors import DimensionError, EitProbeError, ProvenanceError
from .forward import (MeasurementSchedule, StimPattern, VoltageFrame,
                      assemble_system, solve_forward, write_frame_csv,
                      read_frame_csv)
from .gn import ReconstructionMatrix, element_to_nodal, reconstruct_gn
from .ioutil import canonical_json_bytes, read_f64, write_f64
from .mesh import Mesh, TankGeometry, elements_in_ellipsoid

DEFAULT_SEMI_AXES = (4.0, 6.0, 9.0)
DEFAULT_SIGMA_IN = 0.3
DEFAULT_SIGMA_BG = 0.15

DATASET_FORMAT = "eitprobe-dataset"
DATASET_VERSION = 1


@dataclass(frozen=True)
class TargetSpec:
    """Rotated ellipsoidal conductivity anomaly in probe-radius units."""

    center: tuple
    semi_axes: tuple = DEFAULT_SEMI_AXES
    quat: tuple = (0.0, 0.0, 0.0, 1.0)   # scalar-last unit quaternion
    sigma_in: float = DEFAULT_SIGMA_IN
    sigma_bg: float = DEFAULT_SIGMA_BG

    def validate(self) -> None:
        if len(self.center) != 3 or len(self.semi_axes) != 3:
            raise ValueError("center and semi_axes must be 3-vectors")
        if not all(a > 0 and math.isfinite(a) for a in self.semi_axes):
            raise ValueError("semi-axes must be positive and finite")
        if len(self.quat) != 4 or abs(sum(q * q for q in self.quat) - 1.0) > 1e-9:
            raise ValueError("quat must be a unit quaternion (x, y, z, w)")
        if not (self.sigma_in > 0 and self.sigma_bg > 0):
            raise ValueError("conductivities must be positive")

    def rotation_matrix(self) -> np.ndarray:
        return Rotation.from_quat(self.quat).as_matrix()

    def to_dict(self) -> dict:
        return {
            "center": [float(v) for v in self.center],
            "semi_axes": [float(v) for v in self.semi_axes],
            "quat": [float(v) for v in self.quat],
            "sigma_in": float(self.sigma_in),
            "sigma_bg": float(self.sigma_bg),
        }

    @staticmethod
    def from_dict(d: dict) -> "TargetSpec":
        return TargetSpec(center=tuple(d["center"]),
                          semi_axes=tuple(d["semi_axes"]),
                          quat=tuple(d["quat"]),
                          sigma_in=d["sigma_in"], sigma_bg=d["sigma_bg"])


@dataclass(frozen=True)
class SampleBounds:
    """Placement envelope for random targets; the probe they are placed
    around is the mesh's own (``TankGeometry``)."""

    max_distance: float = 10.0
    z_band: float = 2.0
    semi_axes: tuple = DEFAULT_SEMI_AXES
    sigma_in: float = DEFAULT_SIGMA_IN
    sigma_bg: float = DEFAULT_SIGMA_BG

    def validate(self) -> None:
        if not self.max_distance > 0:
            raise ValueError("max_distance must be positive")
        if self.z_band < 0:
            raise ValueError("z_band must be nonnegative")
        if not all(a > 0 for a in self.semi_axes):
            raise ValueError("semi-axes must be positive")

    def to_dict(self) -> dict:
        return {
            "max_distance": self.max_distance,
            "z_band": self.z_band,
            "semi_axes": list(self.semi_axes),
            "sigma_in": self.sigma_in,
            "sigma_bg": self.sigma_bg,
        }


def _edge_distance(rot: np.ndarray, center, semi_axes, radius: float,
                   half_h: float, threshold: float | None = None) -> float:
    """Alternating-projection distance kernel between an ellipsoid and the
    solid finite cylinder.

    The pair gap is an upper bound on the true distance and the supporting
    hyperplane along the pair direction gives a lower bound; iteration
    stops when they agree to 1e-10. With ``threshold`` set, the loop also
    exits as soon as the bounds settle which side of the threshold the
    distance falls on, so comparing the result against the threshold stays
    exact while far-from-threshold queries return after a few steps.
    """
    r00, r01, r02 = rot[0]
    r10, r11, r12 = rot[1]
    r20, r21, r22 = rot[2]
    cx, cy, cz = (float(v) for v in center)
    a0, a1, a2 = (float(v) for v in semi_axes)
    a0s, a1s, a2s = a0 * a0, a1 * a1, a2 * a2

    px, py, pz = cx, cy, cz
    best_lo = -math.inf
    gap = math.inf
    for _ in range(3000):
        # closest point of the solid cylinder (disk x interval splits
        # per component)
        rho = math.hypot(px, py)
        scale = radius / rho if rho > radius else 1.0
        qx, qy, qz = px * scale, py * scale, min(max(pz, -half_h), half_h)

        # closest point of the solid ellipsoid, in its body frame
        dx, dy, dz = qx - cx, qy - cy, qz - cz
        wx = r00 * dx + r10 * dy + r20 * dz
        wy = r01 * dx + r11 * dy + r21 * dz
        wz = r02 * dx + r12 * dy + r22 * dz
        if (wx / a0) ** 2 + (wy / a1) ** 2 + (wz / a2) ** 2 <= 1.0:
            return 0.0  # a cylinder point lies inside the target
        t0, t1, t2 = wx * wx * a0s, wy * wy * a1s, wz * wz * a2s
        # KKT point x_i = w_i a_i^2/(a_i^2 + s); the multiplier equation is
        # smooth, convex and decreasing, so Newton from s = 0 is monotone
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
        px = cx + r00 * bx + r01 * by + r02 * bz
        py = cy + r10 * bx + r11 * by + r12 * bz
        pz = cz + r20 * bx + r21 * by + r22 * bz

        gx, gy, gz = px - qx, py - qy, pz - qz
        gap = math.sqrt(gx * gx + gy * gy + gz * gz)
        if gap < 1e-12:
            return 0.0
        nx, ny, nz = gx / gap, gy / gap, gz / gap
        # support of the cylinder along n and of the ellipsoid along -n
        sup_cyl = radius * math.hypot(nx, ny) + half_h * abs(nz)
        ux = r00 * nx + r10 * ny + r20 * nz
        uy = r01 * nx + r11 * ny + r21 * nz
        uz = r02 * nx + r12 * ny + r22 * nz
        min_ell = (nx * cx + ny * cy + nz * cz
                   - math.sqrt((a0 * ux) ** 2 + (a1 * uy) ** 2 + (a2 * uz) ** 2))
        best_lo = max(best_lo, min_ell - sup_cyl)
        if gap - best_lo <= 1e-10:
            break
        if threshold is not None and (gap < threshold or best_lo > threshold):
            break
    return 0.0 if gap < 1e-12 else gap


def target_probe_distance(target: TargetSpec, geom: TankGeometry) -> float:
    """Edge-to-edge distance between the target ellipsoid and the probe
    cylinder of ``geom``, accurate to 1e-10; overlapping bodies report
    zero."""
    return _edge_distance(target.rotation_matrix(), target.center,
                          target.semi_axes, geom.probe_radius,
                          geom.probe_height / 2.0)


def _place_radius(azimuth: float, z0: float, distance: float, semi_axes,
                  quat, geom: TankGeometry) -> float:
    """Center radius at which the target sits ``distance`` from the probe.

    Radial translation away from the probe can only grow the distance, so
    bisection brackets the requested value.
    """
    rot = Rotation.from_quat(quat).as_matrix()
    ca, sa = math.cos(azimuth), math.sin(azimuth)

    def dist_at(rho: float) -> float:
        return _edge_distance(rot, (rho * ca, rho * sa, z0), semi_axes,
                              geom.probe_radius, geom.probe_height / 2.0,
                              threshold=distance)

    hi = geom.probe_radius + distance + max(semi_axes) + 1.0
    for _ in range(60):
        if dist_at(hi) >= distance:
            break
        hi *= 1.5
    lo = 0.0
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        if dist_at(mid) < distance:
            lo = mid
        else:
            hi = mid
    return hi


def sample_target(rng: np.random.Generator, geom: TankGeometry,
                  bounds: SampleBounds = SampleBounds()) -> TargetSpec:
    """Draw one target: uniform azimuth and height around the probe of
    ``geom``, uniform edge-to-edge distance, uniform random orientation."""
    bounds.validate()
    azimuth = rng.uniform(0.0, 2.0 * math.pi)
    z0 = rng.uniform(-bounds.z_band, bounds.z_band)
    distance = rng.uniform(0.0, bounds.max_distance)
    quat = tuple(float(v) for v in Rotation.random(random_state=rng).as_quat())
    rho = _place_radius(azimuth, z0, distance, bounds.semi_axes, quat, geom)
    center = (rho * math.cos(azimuth), rho * math.sin(azimuth), z0)
    return TargetSpec(center=center, semi_axes=bounds.semi_axes, quat=quat,
                      sigma_in=bounds.sigma_in, sigma_bg=bounds.sigma_bg)


def rasterize_target(mesh: Mesh, target: TargetSpec) -> np.ndarray:
    """Per-element conductivity: sigma_in inside the ellipsoid, else bg."""
    target.validate()
    sigma = np.full(mesh.n_elements, target.sigma_bg)
    sigma[elements_in_ellipsoid(mesh, target)] = target.sigma_in
    return sigma


# --- noise -------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseModel:
    """SNR endpoints for the separation-graded Gaussian noise."""

    snr_near_db: float = 50.0
    snr_far_db: float = 10.0

    @property
    def disabled(self) -> bool:
        return math.isinf(self.snr_near_db) and math.isinf(self.snr_far_db)

    def validate(self) -> None:
        if self.disabled:
            return
        if not (math.isfinite(self.snr_near_db) and math.isfinite(self.snr_far_db)):
            raise ValueError("SNR endpoints must both be finite or both inf")
        if not self.snr_near_db > self.snr_far_db:
            raise ValueError("snr_near_db must exceed snr_far_db")

    def to_dict(self) -> dict | None:
        if self.disabled:
            return None
        return {"snr_near_db": self.snr_near_db, "snr_far_db": self.snr_far_db}


NOISE_OFF = NoiseModel(math.inf, math.inf)


def pair_separations(schedule: MeasurementSchedule) -> np.ndarray:
    """Separation between drive and measuring pair midpoints per retained
    measurement: azimuth arc at the probe surface combined with the ring
    offset, both in probe radii for the reference probe."""
    mid, layer = schedule.pair_midpoints
    drive = np.repeat(np.arange(schedule.n_injections), schedule.n_retained)
    meas = np.concatenate([schedule.retained[d]
                           for d in range(schedule.n_injections)])
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
    nm.validate()
    if frame.schedule_id != schedule.schedule_id:
        raise ProvenanceError("frame does not belong to this schedule")
    if frame.values.shape != (schedule.n_measurements,):
        raise DimensionError("frame length does not match the schedule")
    if nm.disabled:
        return frame.copy()
    snr = snr_per_measurement(schedule, nm)
    std = np.abs(frame.values) * 10.0 ** (-snr / 20.0)
    values = frame.values + rng.standard_normal(len(std)) * std
    return VoltageFrame(values=values, schedule_id=frame.schedule_id)


# --- dataset -----------------------------------------------------------------


@dataclass(eq=False)
class Sample:
    """One generated case: ground truth on the generation mesh, voltages,
    and the linear reconstruction on the inverse mesh."""

    index: int
    target: TargetSpec
    distance: float
    v_clean: VoltageFrame
    v_noisy: VoltageFrame
    gn_image: np.ndarray     # inverse-mesh nodes
    truth_nodal: np.ndarray  # inverse-mesh nodes, contrast above background


def reference_frame(mesh: Mesh, schedule: MeasurementSchedule,
                    pattern: StimPattern, sigma_bg: float) -> VoltageFrame:
    """Forward solve of the homogeneous background."""
    system = assemble_system(mesh, np.full(mesh.n_elements, sigma_bg))
    return solve_forward(system, pattern, schedule)


def make_sample(index: int, master_seed: int, gen_mesh: Mesh, inv_mesh: Mesh,
                schedule: MeasurementSchedule, pattern: StimPattern,
                nm: NoiseModel, rmat: ReconstructionMatrix,
                bounds: SampleBounds, v_ref: VoltageFrame) -> Sample:
    rng = np.random.default_rng(master_seed ^ index)
    target = sample_target(rng, gen_mesh.geometry, bounds)
    sigma = rasterize_target(gen_mesh, target)
    system = assemble_system(gen_mesh, sigma)
    v_clean = solve_forward(system, pattern, schedule)
    v_noisy = add_noise(v_clean, schedule, nm, rng)
    dv = v_noisy.values - v_ref.values
    gn_image = reconstruct_gn(rmat, dv, inv_mesh)
    truth_sigma = rasterize_target(inv_mesh, target)
    truth_nodal = element_to_nodal(truth_sigma - target.sigma_bg, inv_mesh)
    distance = target_probe_distance(target, gen_mesh.geometry)
    return Sample(index=index, target=target, distance=distance,
                  v_clean=v_clean, v_noisy=v_noisy, gn_image=gn_image,
                  truth_nodal=truth_nodal)


def _sample_dirname(index: int) -> str:
    return f"samples/sample_{index:05d}"


def gen_dataset(out_dir: str | Path, n: int, gen_mesh: Mesh, inv_mesh: Mesh,
                schedule: MeasurementSchedule, rmat: ReconstructionMatrix,
                noise: NoiseModel | None = None,
                bounds: SampleBounds = SampleBounds(),
                pattern: StimPattern = StimPattern(),
                master_seed: int = 0,
                allow_inverse_crime: bool = False) -> dict:
    """Generate ``n`` samples into a dataset directory; returns the manifest.

    The forward problem runs on the generation mesh and the reconstruction
    on the inverse mesh; running both on one mesh is refused unless
    explicitly overridden.
    """
    if n < 1:
        raise ValueError("dataset needs at least one sample")
    if master_seed < 0:
        raise ValueError("master_seed must be nonnegative")
    bounds.validate()
    pattern.validate()
    nm = noise if noise is not None else NOISE_OFF
    nm.validate()
    if gen_mesh.mesh_id == inv_mesh.mesh_id and not allow_inverse_crime:
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
    v_ref = reference_frame(gen_mesh, schedule, pattern, bounds.sigma_bg)
    write_frame_csv(v_ref, schedule, root / "v_ref.csv")

    names = []
    for i in range(n):
        try:
            s = make_sample(i, master_seed, gen_mesh, inv_mesh, schedule,
                            pattern, nm, rmat, bounds, v_ref)
        except EitProbeError as exc:
            raise type(exc)(f"sample {i}: {exc}") from exc
        rel = _sample_dirname(i)
        sdir = root / rel
        sdir.mkdir(parents=True, exist_ok=True)
        doc = s.target.to_dict()
        doc["distance"] = s.distance
        doc["index"] = s.index
        (sdir / "target.json").write_bytes(canonical_json_bytes(doc))
        write_frame_csv(s.v_clean, schedule, sdir / "v_clean.csv")
        write_frame_csv(s.v_noisy, schedule, sdir / "v_noisy.csv")
        write_f64(sdir / "gn_image.f64", s.gn_image)
        write_f64(sdir / "truth.f64", s.truth_nodal)
        names.append(rel)

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
        "noise": nm.to_dict(),
        "bounds": bounds.to_dict(),
        "samples": names,
    }
    (root / "manifest.json").write_bytes(canonical_json_bytes(manifest))
    return manifest


def load_manifest(path: str | Path) -> dict:
    root = Path(path)
    doc = json.loads((root / "manifest.json").read_bytes())
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
    """Read a dataset directory back into stacked arrays."""
    root = Path(path)
    manifest = load_manifest(root)
    if manifest["schedule_id"] != schedule.schedule_id:
        raise ProvenanceError("dataset was generated for another schedule")
    v_ref = read_frame_csv(root / "v_ref.csv", schedule)
    dv, gn, truth, dist = [], [], [], []
    for rel in manifest["samples"]:
        sdir = root / rel
        doc = json.loads((sdir / "target.json").read_bytes())
        v_noisy = read_frame_csv(sdir / "v_noisy.csv", schedule)
        dv.append(v_noisy.values - v_ref.values)
        gn.append(read_f64(sdir / "gn_image.f64"))
        truth.append(read_f64(sdir / "truth.f64"))
        dist.append(doc["distance"])
    return DatasetArrays(dv=np.array(dv), gn_images=np.array(gn),
                         truth=np.array(truth), distances=np.array(dist))
