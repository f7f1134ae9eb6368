"""Tests for target sampling, the probe-distance kernel, rasterization,
the separation-graded noise model and dataset packaging."""

import dataclasses
import hashlib
import json
import math
import shutil

import numpy as np
import pytest
from scipy.spatial.transform import Rotation
from scipy.stats import kstest

from eitprobe import datagen
from eitprobe.datagen import (DATASET_FORMAT, NoiseModel, SampleBounds,
                              TargetSpec, add_noise, gen_dataset,
                              load_manifest, load_training_arrays, make_sample,
                              pair_separations, rasterize_target,
                              reference_frame, sample_target,
                              snr_per_measurement, target_probe_distance)
from eitprobe.errors import DimensionError, ProvenanceError
from eitprobe.forward import (MeasurementSchedule, StimPattern, VoltageFrame,
                              assemble_system, solve_forward)
from eitprobe.gn import element_to_nodal
from eitprobe.ioutil import canonical_json_bytes
from eitprobe.mesh import TankGeometry
from eitprobe.metrics import full_report

IDENTITY_QUAT = (0.0, 0.0, 0.0, 1.0)
# the default probe: a bore of radius 1, an electrode section 4 high
GEOM = TankGeometry()
TINY_BOUNDS = SampleBounds(max_distance=3.0, semi_axes=(1.0, 1.5, 2.0))


@pytest.fixture(scope="module")
def draws():
    """1,000 default targets and their distances, plus every placement
    (the arguments and result of ``_place_radius``) and the number of
    ``_distance`` calls the placements made."""
    rng = np.random.default_rng(42)
    bounds = SampleBounds()
    placements = []
    calls = 0

    def place(*args):
        r = place_radius(*args)
        placements.append((*args, r))
        return r

    def distance(*args):
        nonlocal calls
        calls += 1
        return kernel(*args)

    place_radius, kernel = datagen._place_radius, datagen._distance
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(datagen, "_distance", distance)
        mp.setattr(datagen, "_place_radius", place)
        targets = [sample_target(rng, GEOM, bounds) for _ in range(1000)]
    dist = np.array([target_probe_distance(t, GEOM) for t in targets])
    return targets, dist, placements, calls


@pytest.fixture(scope="module")
def bench_stream():
    """The first 300 targets of the bench's training stream (2**41) and the
    first 60 of its held-out stream (2**40), placed with the default
    bounds."""
    train = [sample_target(np.random.default_rng(2 ** 41 ^ i), GEOM)
             for i in range(300)]
    held = [sample_target(np.random.default_rng(2 ** 40 ^ i), GEOM)
            for i in range(60)]
    return train, held


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory, tiny_mesh, tiny_mesh_alt, tiny_schedule,
                 tiny_rmat):
    root = tmp_path_factory.mktemp("ds") / "noisy"
    manifest = gen_dataset(root, 3, tiny_mesh_alt, tiny_mesh, tiny_schedule,
                           tiny_rmat, noise=NoiseModel(),
                           bounds=TINY_BOUNDS, master_seed=7)
    return root, manifest


def _quat_matrix(q):
    x, y, z, w = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def _fibonacci_sphere(n):
    i = np.arange(n) + 0.5
    phi = math.pi * (1 + 5 ** 0.5) * i
    z = 1 - 2 * i / n
    r = np.sqrt(1 - z * z)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def _surface_net(target, n=20000):
    """``n`` points of the target's surface, a Fibonacci net of the unit
    sphere stretched by the semi-axes and rotated."""
    body = _fibonacci_sphere(n) * target.semi_axes
    return np.asarray(target.center) + body @ _quat_matrix(target.quat).T


def _shadow_configs(n, seed):
    """``n`` random ellipsoid/bore configurations (rotation, center's x and
    y, semi-axes, bore radius) and, for every fourth, its exact distance.

    Three in four lie where they fall, overlapping or apart. Every fourth
    is built near-tangent: a random boundary point y of the shadow ellipse
    (x'S^-1 x = 1 about the shadow's center, S the xy block of
    R diag(a^2) R') is put at radius r + gap on the axis's side, along its
    outward normal S^-1 y. The nearest shadow point of the axis is then y,
    so the distance is exactly the gap, drawn from [0, 0.08]."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        radius = rng.uniform(0.5, 2.0)
        axes = rng.uniform(0.3, 10.0, size=3)
        rot = Rotation.random(random_state=rng).as_matrix()
        if i % 4 == 0:
            shape = (rot * axes ** 2 @ rot.T)[:2, :2]
            theta = rng.uniform(0.0, 2.0 * math.pi)
            y = np.linalg.cholesky(shape) @ (math.cos(theta), math.sin(theta))
            normal = np.linalg.solve(shape, y)
            gap = rng.uniform(0.0, 0.08)
            cxy = -(y + (radius + gap) * normal / np.linalg.norm(normal))
            exact = gap
        else:
            rho = rng.uniform(0.0, radius + axes.max() + 10.0)
            azimuth = rng.uniform(0.0, 2.0 * math.pi)
            cxy = rho * np.array([math.cos(azimuth), math.sin(azimuth)])
            exact = None
        out.append((rot, cxy, tuple(axes), radius, exact))
    return out


def _sampled_shadow_distance(rot, cxy, axes, radius, n=20000):
    """Distance from the bore to ``n`` evenly spaced points (in the
    parameter) of the shadow ellipse's boundary, zero if the axis lies in
    the shadow; with the largest spacing of the points along the
    boundary."""
    shape = (rot * np.square(axes) @ rot.T)[:2, :2]
    if cxy @ np.linalg.solve(shape, cxy) <= 1.0:
        return 0.0, 0.0
    root = np.linalg.cholesky(shape)
    theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    pts = cxy[:, None] + root @ np.vstack([np.cos(theta), np.sin(theta)])
    # |d/dtheta root (cos, sin)| is at most root's largest singular value
    spacing = 2.0 * math.pi / n * np.linalg.norm(root, 2)
    return max(np.hypot(pts[0], pts[1]).min() - radius, 0.0), spacing


def _placed_distance(azimuth, axes, quat, geom, rho):
    """``_distance`` of a target placed at center radius ``rho``, with the
    rotation taken as the placement takes it, so that both round alike."""
    return datagen._distance(Rotation.from_quat(quat).as_matrix(),
                             rho * math.cos(azimuth), rho * math.sin(azimuth),
                             axes, geom.probe_radius)


class TestTargetSampling:
    def test_fixed_seed_identical(self):
        a = sample_target(np.random.default_rng(5), GEOM)
        b = sample_target(np.random.default_rng(5), GEOM)
        assert a == b

    def test_all_draws_within_bound(self, draws):
        _, dist, _, _ = draws
        assert np.all(dist <= 10.0 + 1e-8)
        assert np.all(dist >= 0.0)

    def test_distance_distribution_uniform(self, draws):
        _, dist, _, _ = draws
        stat = kstest(dist / 10.0, "uniform").statistic
        assert stat < 0.05

    def test_height_band_and_rotation(self, draws):
        targets, _, _, _ = draws
        for t in targets[:50]:
            assert abs(t.center[2]) <= 2.0
            assert abs(sum(q * q for q in t.quat) - 1.0) < 1e-9
            r = t.rotation_matrix()
            assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_placement_brackets_the_requested_distance(self, draws):
        # measured by ``_distance``, the placed target sits at the requested
        # distance to within rounding
        _, _, placements, _ = draws
        assert len(placements) == 1000
        for azimuth, want, axes, quat, geom, r in placements:
            assert _placed_distance(azimuth, axes, quat, geom, r) == \
                pytest.approx(want, abs=1e-13)

    def test_bench_stream_placements_pinned(self, bench_stream):
        # the first 60 training and 7 held-out targets the bench draws
        train, held = bench_stream
        digest = hashlib.sha256(canonical_json_bytes(
            [dataclasses.asdict(t) for t in train[:60] + held[:7]])).hexdigest()
        assert digest == ("70d2b2f121a9368765b9d9db7ebe1c2a"
                          "0afb15a52f5f7466cf38979ee3119511")

    def test_no_bench_stream_target_reaches_into_the_bore(self, bench_stream):
        # a net point inside the bore proves an intrusion; placed against
        # the electrode section alone, 4 of these 360 cut up to 0.33 deep
        train, held = bench_stream
        inside = [i for i, t in enumerate(train + held)
                  if target_probe_distance(t, GEOM) > 0.0
                  and np.hypot(*_surface_net(t)[:, :2].T).min()
                  < GEOM.probe_radius - 1e-9]
        assert not inside

    def test_height_band_follows_the_probe(self, big_probe_mesh):
        # centers lie along the electrode section of the geometry's probe
        geom = big_probe_mesh.geometry
        rng = np.random.default_rng(6)
        z = np.array([sample_target(rng, geom, TINY_BOUNDS).center[2]
                      for _ in range(100)])
        assert np.all(np.abs(z) <= geom.probe_height / 2.0)
        assert np.any(np.abs(z) > 2.0)

    def test_placement_needs_few_kernel_calls(self, draws):
        # the parallel curve gives the center radius without measuring
        _, _, placements, calls = draws
        assert len(placements) == 1000
        assert calls == 0

    @pytest.mark.parametrize("probe, axes", [
        ("big_probe_mesh", TINY_BOUNDS.semi_axes),
        (None, (0.3, 1.0, 10.0)),
    ], ids=["wide_probe", "needle"])
    def test_placement_off_the_default_probe(self, request, probe, axes):
        # placement realizes the distance on a wider bore and for a needle
        # whose shadow is up to 33 times longer than wide, by ``_distance``
        # and by the independent shadow-sampling oracle; the first draws
        # sit at or next to contact
        geom = GEOM if probe is None else request.getfixturevalue(probe).geometry
        rng = np.random.default_rng(17)
        wants = np.r_[0.0, rng.uniform(0.0, 1e-3, 9), rng.uniform(0.0, 3.0, 70)]
        for want in wants:
            azimuth = rng.uniform(0.0, 2.0 * math.pi)
            quat = tuple(Rotation.random(random_state=rng).as_quat())
            rho = datagen._place_radius(azimuth, want, axes, quat, geom)
            assert _placed_distance(azimuth, axes, quat, geom, rho) == \
                pytest.approx(want, abs=1e-13)
            cxy = rho * np.array([math.cos(azimuth), math.sin(azimuth)])
            est, spacing = _sampled_shadow_distance(
                Rotation.from_quat(quat).as_matrix(), cxy, axes,
                geom.probe_radius)
            assert want <= est + 1e-10
            assert est - want <= spacing / 2.0

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            sample_target(np.random.default_rng(0), GEOM,
                          SampleBounds(max_distance=0.0))

    def test_spec_roundtrip_and_validation(self):
        t = TargetSpec(center=(1.5, -2.0, 0.25), semi_axes=(1.0, 2.0, 3.0),
                       quat=IDENTITY_QUAT)
        assert TargetSpec.from_dict(dataclasses.asdict(t)) == t
        with pytest.raises(ValueError):
            TargetSpec(center=(0, 0, 0), semi_axes=(1, -1, 1),
                       quat=IDENTITY_QUAT)
        with pytest.raises(ValueError):
            TargetSpec(center=(0, 0, 0), quat=(0, 0, 0, 2.0))


class TestDistanceKernel:
    def test_analytic_cases(self):
        cases = [
            # x-extreme of an axis-aligned ellipsoid faces the barrel
            (((8.0, 0, 0), (4.0, 6.0, 9.0)), 3.0),
            (((5.0, 0, 0), (2.0, 2.0, 2.0)), 2.0),
            # the bore runs through the whole tank: a sphere on the axis
            # above the electrode section reaches into it
            (((0.0, 0, 6.0), (1.0, 1.0, 1.0)), 0.0),
            # and the sphere off the section's top rim faces the barrel
            (((3.0, 0, 4.0), (1.0, 1.0, 1.0)), 1.0),
            (((0.5, 0, 0.5), (1.0, 1.0, 1.0)), 0.0),
        ]
        for (center, axes), want in cases:
            t = TargetSpec(center=center, semi_axes=axes, quat=IDENTITY_QUAT)
            assert target_probe_distance(t, GEOM) == pytest.approx(want, abs=1e-9)

    def test_matches_surface_sampling_oracle(self, draws):
        # sampling the ellipsoid surface can only overestimate the true
        # minimum, and a dense net comes close to it
        targets, dist, _, _ = draws
        for t, d in zip(targets[:8], dist[:8]):
            rho = np.hypot(*_surface_net(t)[:, :2].T)
            est = max(rho.min() - GEOM.probe_radius, 0.0)
            assert est >= d - 1e-9
            assert est - d < 0.05

    def test_matches_shadow_sampling_oracle(self):
        # sampling the shadow's boundary can only overestimate the distance
        # from the axis, by at most half the points' spacing; the kernel's
        # bisection brackets Eberly's root to adjacent doubles
        configs = _shadow_configs(512, seed=11)
        dist = []
        for rot, cxy, axes, radius, exact in configs:
            d = datagen._distance(rot, *cxy, axes, radius)
            est, spacing = _sampled_shadow_distance(rot, cxy, axes, radius)
            assert d <= est + 1e-10
            assert est - d <= spacing / 2.0
            if exact is not None:
                assert d == pytest.approx(exact, abs=1e-10)
            dist.append(d)
        dist = np.array(dist)
        assert np.sum(dist == 0.0) >= 50
        assert np.sum((dist > 0.0) & (dist < 0.1)) >= 100
        assert np.sum(dist > 1.0) >= 200

    def test_monotone_along_ray(self):
        prev = 0.0
        for rho in (2.0, 4.0, 7.0, 11.0):
            t = TargetSpec(center=(rho, 0.5, 1.0), semi_axes=(1.0, 1.5, 2.0),
                           quat=IDENTITY_QUAT)
            d = target_probe_distance(t, GEOM)
            assert d >= prev
            prev = d


class TestRasterize:
    def test_far_target_uniform_background(self, tiny_mesh):
        t = TargetSpec(center=(500.0, 0, 0), semi_axes=(1.0, 1.0, 1.0),
                       quat=IDENTITY_QUAT)
        sigma = rasterize_target(tiny_mesh, t)
        assert np.all(sigma == t.sigma_bg)

    def test_enclosing_target_uniform_inclusion(self, tiny_mesh):
        t = TargetSpec(center=(0.0, 0, 0), semi_axes=(200.0, 200.0, 200.0),
                       quat=IDENTITY_QUAT)
        sigma = rasterize_target(tiny_mesh, t)
        assert np.all(sigma == t.sigma_in)

    def test_matches_centroid_oracle(self, tiny_mesh):
        rng = np.random.default_rng(3)
        for _ in range(5):
            t = sample_target(rng, GEOM, TINY_BOUNDS)
            sigma = rasterize_target(tiny_mesh, t)
            rot = _quat_matrix(t.quat)
            body = (tiny_mesh.centroids - np.asarray(t.center)) @ rot
            inside = np.sum((body / np.asarray(t.semi_axes)) ** 2, axis=1) <= 1.0
            want = np.where(inside, t.sigma_in, t.sigma_bg)
            assert np.array_equal(sigma, want)
            assert np.array_equal(t.form(tiny_mesh.centroids) <= 1.0, inside)

    def test_form_far_away_is_outside(self, tiny_mesh):
        far = TargetSpec(center=(200.0, 0.0, 0.0), semi_axes=(2.0, 2.0, 2.0))
        assert np.all(far.form(tiny_mesh.centroids) > 1.0)

    def test_form_enclosing_is_inside(self, tiny_mesh):
        g = tiny_mesh.geometry
        r = 2.0 * (g.tank_radius + g.tank_height)
        dom = TargetSpec(center=(0.0, 0.0, 0.0), semi_axes=(r, r, r))
        assert np.all(dom.form(tiny_mesh.centroids) <= 1.0)

    def test_form_matches_component_oracle(self, tiny_mesh):
        rng = np.random.default_rng(42)
        for _ in range(5):
            center = np.array([rng.uniform(2, 20), rng.uniform(-8, 8),
                               rng.uniform(-4, 4)])
            axes = rng.uniform(2.0, 7.0, size=3)
            half = rng.uniform(0, 2 * math.pi) / 2.0
            # a rotation about z
            t = TargetSpec(center=tuple(center), semi_axes=tuple(axes),
                           quat=(0.0, 0.0, math.sin(half), math.cos(half)))
            rot = t.rotation_matrix()
            form = t.form(tiny_mesh.centroids)
            expect = set()
            for idx in range(tiny_mesh.n_elements):
                d = tiny_mesh.centroids[idx] - center
                # inverse rotation applied explicitly, component by component
                q0 = rot[0, 0] * d[0] + rot[1, 0] * d[1] + rot[2, 0] * d[2]
                q1 = rot[0, 1] * d[0] + rot[1, 1] * d[1] + rot[2, 1] * d[2]
                q2 = rot[0, 2] * d[0] + rot[1, 2] * d[1] + rot[2, 2] * d[2]
                val = (q0 / axes[0]) ** 2 + (q1 / axes[1]) ** 2 + (q2 / axes[2]) ** 2
                assert form[idx] == pytest.approx(val, rel=1e-12)
                if val <= 1.0:
                    expect.add(idx)
            assert expect
            assert set(np.flatnonzero(form <= 1.0).tolist()) == expect
            inside = rasterize_target(tiny_mesh, t) == t.sigma_in
            assert set(np.flatnonzero(inside).tolist()) == expect

    def test_form_matches_the_summed_reference(self):
        # rasterization and the voxel truth are pinned to this sum's bits
        rng = np.random.default_rng(8)
        for shape in ((257, 3), (9, 7, 5, 3)):
            for _ in range(4):
                t = sample_target(rng, GEOM, TINY_BOUNDS)
                p = rng.uniform(-12.0, 12.0, size=shape)
                c = np.asarray(t.center)
                a = np.asarray(t.semi_axes)
                expect = np.sum(((p - c) @ t.rotation_matrix() / a) ** 2,
                                axis=-1)
                got = t.form(p)
                assert got.shape == shape[:-1]
                assert np.array_equal(got, expect)


class TestNoise:
    def test_endpoints_exact(self, tiny_schedule):
        sep = pair_separations(tiny_schedule)
        snr = snr_per_measurement(tiny_schedule, NoiseModel())
        assert snr[np.argmin(sep)] == 50.0
        assert snr[np.argmax(sep)] == 10.0
        assert snr.min() == 10.0 and snr.max() == 50.0

    def test_monotone_in_separation(self, tiny_schedule):
        sep = pair_separations(tiny_schedule)
        snr = snr_per_measurement(tiny_schedule, NoiseModel())
        order = np.argsort(sep)
        assert np.all(np.diff(snr[order]) <= 1e-12)

    def test_deterministic(self, tiny_schedule):
        vals = 1e-5 * np.random.default_rng(1).uniform(0.5, 2.0,
                                                       tiny_schedule.n_measurements)
        frame = VoltageFrame(values=vals, schedule_id=tiny_schedule.schedule_id)
        a = add_noise(frame, tiny_schedule, NoiseModel(), np.random.default_rng(9))
        b = add_noise(frame, tiny_schedule, NoiseModel(), np.random.default_rng(9))
        assert np.array_equal(a.values, b.values)

    def test_monte_carlo_snr(self, tiny_schedule):
        n = tiny_schedule.n_measurements
        rng = np.random.default_rng(2)
        vals = 1e-5 * rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
        frame = VoltageFrame(values=vals, schedule_id=tiny_schedule.schedule_id)
        nm = NoiseModel()
        reps = 10_000
        noise = np.empty((reps, n))
        gen = np.random.default_rng(11)
        for r in range(reps):
            noise[r] = add_noise(frame, tiny_schedule, nm, gen).values - vals
        est_snr = 10.0 * np.log10(vals ** 2 / noise.var(axis=0))
        want = snr_per_measurement(tiny_schedule, nm)
        assert np.max(np.abs(est_snr - want)) < 0.5

    def test_independent_across_measurements(self, tiny_schedule):
        n = tiny_schedule.n_measurements
        vals = 1e-5 * np.ones(n)
        frame = VoltageFrame(values=vals, schedule_id=tiny_schedule.schedule_id)
        nm = NoiseModel()
        reps = 10_000
        rows = np.array([0, 100, 250, 400, 600, 900])
        gen = np.random.default_rng(21)
        noise = np.empty((reps, len(rows)))
        for r in range(reps):
            noise[r] = (add_noise(frame, tiny_schedule, nm, gen).values
                        - vals)[rows]
        cov = np.cov(noise, rowvar=False)
        sig = np.abs(vals[rows]) * 10.0 ** (-snr_per_measurement(tiny_schedule, nm)[rows] / 20.0)
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                assert abs(cov[i, j]) < 3.0 * sig[i] * sig[j] / math.sqrt(reps)

    def test_validation(self, tiny_schedule):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            NoiseModel(10.0, 50.0)
        with pytest.raises(ValueError):
            NoiseModel(math.inf, 10.0)
        with pytest.raises(ValueError):
            NoiseModel(math.inf, math.inf)
        frame = VoltageFrame(values=np.zeros(tiny_schedule.n_measurements),
                             schedule_id="elsewhere")
        with pytest.raises(ProvenanceError):
            add_noise(frame, tiny_schedule, NoiseModel(), rng)


class TestDataset:
    def test_rerun_is_byte_identical(self, tmp_path, tiny_mesh, tiny_mesh_alt,
                                     tiny_schedule, tiny_rmat, tiny_dataset):
        root_a, _ = tiny_dataset
        root_b = tmp_path / "again"
        gen_dataset(root_b, 3, tiny_mesh_alt, tiny_mesh, tiny_schedule,
                    tiny_rmat, noise=NoiseModel(), bounds=TINY_BOUNDS,
                    master_seed=7)
        files_a = sorted(p.relative_to(root_a) for p in root_a.rglob("*")
                         if p.is_file())
        files_b = sorted(p.relative_to(root_b) for p in root_b.rglob("*")
                         if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (root_a / rel).read_bytes() == (root_b / rel).read_bytes()

    def test_noiseless_clean_equals_noisy(self, tmp_path, tiny_mesh,
                                          tiny_mesh_alt, tiny_schedule,
                                          tiny_rmat):
        root = tmp_path / "clean"
        manifest = gen_dataset(root, 2, tiny_mesh_alt, tiny_mesh,
                               tiny_schedule, tiny_rmat, noise=None,
                               bounds=TINY_BOUNDS, master_seed=1)
        assert manifest["noise"] is None
        pattern = StimPattern()
        v_ref = reference_frame(tiny_mesh_alt, tiny_schedule, pattern,
                                datagen.DEFAULT_SIGMA_BG)
        data = load_training_arrays(root, tiny_schedule)
        for i in range(2):
            s = make_sample(i, 1, tiny_mesh_alt, tiny_mesh, tiny_schedule,
                            pattern, None, tiny_rmat, TINY_BOUNDS, v_ref)
            system = assemble_system(
                tiny_mesh_alt, rasterize_target(tiny_mesh_alt, s.target))
            v_clean = solve_forward(system, pattern, tiny_schedule)
            assert np.array_equal(s.v_noisy.values, v_clean.values)
            assert np.array_equal(data.dv[i], v_clean.values - v_ref.values)

    def test_reference_frame_of_another_schedule_refused(
            self, tiny_mesh, tiny_mesh_alt, tiny_schedule, tiny_rmat):
        v_ref = VoltageFrame(values=np.zeros(tiny_schedule.n_measurements),
                             schedule_id="elsewhere")
        with pytest.raises(ProvenanceError, match="reference frame"):
            make_sample(0, 1, tiny_mesh_alt, tiny_mesh, tiny_schedule,
                        StimPattern(), None, tiny_rmat, TINY_BOUNDS, v_ref)

    def test_inverse_crime_guard(self, tmp_path, tiny_mesh, tiny_schedule,
                                 tiny_rmat):
        with pytest.raises(ProvenanceError, match="identical"):
            gen_dataset(tmp_path / "crime", 1, tiny_mesh, tiny_mesh,
                        tiny_schedule, tiny_rmat, bounds=TINY_BOUNDS)

    def test_matrix_provenance(self, tmp_path, tiny_mesh, tiny_mesh_alt,
                               tiny_schedule, tiny_rmat):
        with pytest.raises(ProvenanceError, match="inverse mesh"):
            gen_dataset(tmp_path / "x", 1, tiny_mesh, tiny_mesh_alt,
                        tiny_schedule, tiny_rmat, bounds=TINY_BOUNDS)
        shifted = MeasurementSchedule(
            pairs=tiny_schedule.pairs, retained=tiny_schedule.retained,
            electrode_layer=tiny_schedule.electrode_layer,
            electrode_azimuth=tiny_schedule.electrode_azimuth + 1e-3)
        with pytest.raises(ProvenanceError, match="schedule"):
            gen_dataset(tmp_path / "y", 1, tiny_mesh_alt, tiny_mesh,
                        shifted, tiny_rmat, bounds=TINY_BOUNDS)

    def test_distance_is_measured_to_the_mesh_probe(self, tmp_path, tiny_mesh,
                                                    big_probe_mesh,
                                                    tiny_schedule, tiny_rmat):
        wide = big_probe_mesh
        manifest = gen_dataset(tmp_path, 1, wide, tiny_mesh, tiny_schedule,
                               tiny_rmat, bounds=TINY_BOUNDS)
        doc = manifest["targets"][0]
        t = TargetSpec.from_dict(doc)
        truth = element_to_nodal(rasterize_target(wide, t) - t.sigma_bg, wide)
        assert doc["distance"] == full_report(wide, truth, t).distance

    def test_manifest_and_arrays(self, tiny_dataset, tiny_mesh, tiny_mesh_alt,
                                 tiny_schedule):
        root, manifest = tiny_dataset
        assert load_manifest(root) == manifest
        assert manifest["generation_mesh_id"] == tiny_mesh_alt.mesh_id
        assert manifest["inverse_mesh_id"] == tiny_mesh.mesh_id
        assert manifest["noise"] == {"snr_near_db": 50.0, "snr_far_db": 10.0}
        data = load_training_arrays(root, tiny_schedule)
        n = manifest["n_samples"]
        assert data.dv.shape == (n, tiny_schedule.n_measurements)
        assert data.gn_images.shape == (n, tiny_mesh.n_nodes)
        assert data.truth.shape == (n, tiny_mesh.n_nodes)
        assert np.all(np.isfinite(data.gn_images))
        assert np.all(data.dv != 0.0, axis=1).any()
        assert np.all(data.distances >= 0.0)
        assert np.all(data.distances <= TINY_BOUNDS.max_distance + 1e-8)
        # truth images are contrast above background
        assert data.truth.min() >= 0.0
        assert data.truth.max() <= 0.15 + 1e-12
        assert data.truth.max() > 0.0

    def test_target_json_consistent(self, tiny_dataset, tiny_mesh_alt):
        root, manifest = tiny_dataset
        doc = manifest["targets"][0]
        t = TargetSpec.from_dict(doc)
        assert doc["distance"] == pytest.approx(
            target_probe_distance(t, tiny_mesh_alt.geometry), abs=1e-9)

    def test_write_order_and_sample_files(self, tmp_path, tiny_mesh,
                                          tiny_mesh_alt, tiny_schedule,
                                          tiny_rmat, monkeypatch):
        # the benchmark times a sample by the modification times of v_ref.csv
        # and each sample's truth.f64, so this order is part of the format
        root = tmp_path / "order"
        written = []

        def recording(writer, path_arg):
            def write(*args):
                written.append(args[path_arg].relative_to(root).as_posix())
                writer(*args)
            return write

        monkeypatch.setattr(datagen, "write_f64",
                            recording(datagen.write_f64, 0))
        monkeypatch.setattr(datagen, "write_frame_csv",
                            recording(datagen.write_frame_csv, 2))
        gen_dataset(root, 2, tiny_mesh_alt, tiny_mesh, tiny_schedule,
                    tiny_rmat, noise=NoiseModel(), bounds=TINY_BOUNDS)
        files = ("dv.f64", "gn_image.f64", "truth.f64")
        assert written == ["v_ref.csv"] + [f"samples/sample_{i:05d}/{f}"
                                           for i in range(2) for f in files]
        for i in range(2):
            sdir = root / "samples" / f"sample_{i:05d}"
            assert {p.name for p in sdir.iterdir()} == set(files)

    def test_short_dv_names_the_sample(self, tmp_path, tiny_dataset,
                                       tiny_schedule):
        root = tmp_path / "copy"
        shutil.copytree(tiny_dataset[0], root)
        path = root / "samples" / "sample_00001" / "dv.f64"
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DimensionError, match="sample_00001"):
            load_training_arrays(root, tiny_schedule)

    def test_old_version_refused(self, tmp_path, tiny_schedule):
        (tmp_path / "manifest.json").write_text(
            json.dumps({"format": DATASET_FORMAT, "version": 1}))
        with pytest.raises(ValueError, match="unsupported dataset version"):
            load_training_arrays(tmp_path, tiny_schedule)

    def test_empty_dataset_refused(self, tmp_path, tiny_dataset,
                                   tiny_schedule):
        root = tmp_path / "copy"
        shutil.copytree(tiny_dataset[0], root)
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["targets"] = []
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DimensionError, match="no samples"):
            load_training_arrays(root, tiny_schedule)

    def test_load_with_wrong_schedule(self, tiny_dataset, tiny_schedule):
        root, _ = tiny_dataset
        shifted = MeasurementSchedule(
            pairs=tiny_schedule.pairs, retained=tiny_schedule.retained,
            electrode_layer=tiny_schedule.electrode_layer,
            electrode_azimuth=tiny_schedule.electrode_azimuth + 1e-3)
        with pytest.raises(ProvenanceError):
            load_training_arrays(root, shifted)
