"""Randomized ellipsoidal targets, distance-graded noise, dataset packaging.

Targets are ellipsoids dropped around the probe: a uniform azimuth and a
height uniform over the electrode section pick the direction, a uniform
edge-to-edge distance to the probe's bore picks how far the surface sits,
and a uniform random rotation orients the body. The bore is the cylinder
the mesh has through the whole tank, so the distance is that of the
z-axis from the ellipsoid's shadow ellipse on the xy-plane less the bore
radius. Both that distance and the center radius that realizes a requested
one are bisections on monotone closed-form functions of the shadow,
halved until no double lies between the ends.

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

from .errors import DimensionError, EitProbeError, ProvenanceError
from .forward import (MeasurementSchedule, StimPattern, VoltageFrame,
                      assemble_system, homogeneous_field, solve_forward,
                      write_frame_csv)
from .gn import ReconstructionMatrix, element_to_nodal, reconstruct_gn
from .ioutil import canonical_json_bytes, read_f64, write_f64
from .mesh import Mesh, TankGeometry

DEFAULT_SEMI_AXES = (4.0, 6.0, 9.0)
DEFAULT_SIGMA_IN = 0.3
DEFAULT_SIGMA_BG = 0.15

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
    around the mesh's own probe bore (``TankGeometry``). Center heights span
    its electrode section; the default conductivities are fixed."""

    max_distance: float = 10.0
    semi_axes: tuple = DEFAULT_SEMI_AXES

    def __post_init__(self) -> None:
        if not 0 < self.max_distance < math.inf:
            raise ValueError("max_distance must be positive and finite")
        # every target takes these semi-axes, so they obey a target's rule
        TargetSpec(center=(0.0, 0.0, 0.0), semi_axes=self.semi_axes)


def _shadow(rot: np.ndarray, semi_axes) -> tuple:
    """The shadow on the xy-plane of an ellipsoid of rotation ``rot``: the
    eigenvalues ``b0 >= b1`` of its shape matrix S = (R diag(a^2) R')_xy,
    and the cosine and sine of ``b0``'s axis angle. About its center the
    shadow is x'S^-1 x <= 1, an ellipse of semi-axes sqrt(b0), sqrt(b1)."""
    (r00, r01, r02), (r10, r11, r12), _ = rot.tolist()
    a0s, a1s, a2s = (float(v) ** 2 for v in semi_axes)
    s00 = r00 * r00 * a0s + r01 * r01 * a1s + r02 * r02 * a2s
    s01 = r00 * r10 * a0s + r01 * r11 * a1s + r02 * r12 * a2s
    s11 = r10 * r10 * a0s + r11 * r11 * a1s + r12 * r12 * a2s
    mid, half = (s00 + s11) / 2.0, math.hypot((s00 - s11) / 2.0, s01)
    phi = math.atan2(2.0 * s01, s00 - s11) / 2.0
    return mid + half, mid - half, math.cos(phi), math.sin(phi)


def _distance(rot: np.ndarray, cx: float, cy: float, semi_axes,
              radius: float) -> float:
    """Distance between an ellipsoid centered over (cx, cy) and the bore of
    ``radius`` about the z-axis: the axis's distance from the shadow less
    ``radius``, or zero.

    In the shadow's principal frame the axis sits at w; outside the shadow
    its nearest shadow point is b_i w_i/(b_i + s) at the root of
    sum b_i w_i^2/(b_i + s)^2 = 1 (Eberly, *Distance from a Point to an
    Ellipse, an Ellipsoid, or a Hyperellipsoid*, 2013). The sum falls in s
    and is below 1 at s = sqrt(sum b_i w_i^2), so halving [0, that s] until
    no double lies between its ends brackets the root as closely as doubles
    can; the distance is taken at the upper end.
    """
    b0, b1, c, sn = _shadow(rot, semi_axes)
    w0, w1 = -c * cx - sn * cy, sn * cx - c * cy
    if w0 * w0 / b0 + w1 * w1 / b1 <= 1.0:
        return 0.0      # the axis runs through the shadow
    lo, hi = 0.0, math.sqrt(b0 * w0 * w0 + b1 * w1 * w1)
    while lo < (s := (lo + hi) / 2.0) < hi:
        if b0 * (w0 / (b0 + s)) ** 2 + b1 * (w1 / (b1 + s)) ** 2 > 1.0:
            lo = s
        else:
            hi = s
    return max(hi * math.hypot(w0 / (b0 + hi), w1 / (b1 + hi)) - radius, 0.0)


def target_probe_distance(target: TargetSpec, geom: TankGeometry) -> float:
    """Edge-to-edge distance between the target ellipsoid and the probe bore
    of ``geom``, to rounding (``_distance``); a target that reaches into the
    bore reports zero."""
    cx, cy, _ = target.center
    return _distance(target.rotation_matrix(), cx, cy, target.semi_axes,
                     geom.probe_radius)


def _place_radius(azimuth: float, distance: float, semi_axes, quat,
                  geom: TankGeometry) -> float:
    """Center radius at which the target sits ``distance`` from the probe
    bore, whatever its height.

    The axis must then lie at D = probe radius + ``distance`` from the
    shadow, on its parallel curve q(f) = e(f) + D n(f) about the shadow's
    center, where e(f) is the shadow point of outward normal n(f) at angle
    f. Since q(f).n(f) = e(f).n(f) + D > 0, the polar angle of q grows with
    f and stays within a quarter turn of it. So halving f over
    [psi - pi/2, psi + pi/2], psi the direction of the axis seen from the
    center, until no double lies between the ends finds the point of q at
    polar angle psi, and the center radius is |q| there.
    """
    b0, b1, c, sn = _shadow(Rotation.from_quat(quat).as_matrix(), semi_axes)
    big_d = geom.probe_radius + distance
    # the unit vector from the center to the axis, in the shadow's frame
    ca, sa = math.cos(azimuth), math.sin(azimuth)
    u0, u1 = -c * ca - sn * sa, sn * ca - c * sa
    psi = math.atan2(u1, u0)

    def point(f: float) -> tuple:
        n0, n1 = math.cos(f), math.sin(f)
        h = math.sqrt(b0 * n0 * n0 + b1 * n1 * n1)
        return b0 * n0 / h + big_d * n0, b1 * n1 / h + big_d * n1

    lo, hi = psi - math.pi / 2.0, psi + math.pi / 2.0
    while lo < (f := (lo + hi) / 2.0) < hi:
        q0, q1 = point(f)
        if u0 * q1 - u1 * q0 < 0.0:
            lo = f
        else:
            hi = f
    return math.hypot(*point(hi))


def sample_target(rng: np.random.Generator, geom: TankGeometry,
                  bounds: SampleBounds = SampleBounds()) -> TargetSpec:
    """Draw one target: uniform azimuth around the probe of ``geom``, height
    uniform over its electrode section (``probe_height``), uniform
    edge-to-edge distance to its bore, uniform random orientation."""
    azimuth = rng.uniform(0.0, 2.0 * math.pi)
    z0 = rng.uniform(-geom.probe_height / 2.0, geom.probe_height / 2.0)
    distance = rng.uniform(0.0, bounds.max_distance)
    quat = tuple(float(v) for v in Rotation.random(random_state=rng).as_quat())
    rho = _place_radius(azimuth, distance, bounds.semi_axes, quat, geom)
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
    model its noisy frame is the clean one. A ``v_ref`` of another schedule
    raises ProvenanceError."""
    if v_ref.schedule_id != schedule.schedule_id:
        raise ProvenanceError("reference frame does not belong to this "
                              "schedule")
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
