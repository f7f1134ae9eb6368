"""Workloads, phases, checks and metrics of the eitprobe benchmark.

Each run builds one world (set-up), then runs the paper's pipeline on it as
timed phases:

1. ``datagen``: ``gen_dataset`` writes noisy samples.
2. ``load``: ``load_training_arrays`` reads them back.
3. ``train.direct`` / ``train.postproc``: both RBF modes train on them.
4. ``evaluate``: the held-out cases go through GN, TV-PDIPM and both RBF
   modes, and every image is scored with ``full_report``. Before the first
   case and after each, a ``samples`` phase (a timing pass) runs
   ``gen_dataset`` again on the first ``pass_samples`` samples of the
   training set.

The inputs are a fixed scene: the training samples are the first
``n_train`` samples of the stream ``TRAIN_SEED`` and the held-out cases the
first ``n_eval`` of ``EVAL_SEED``, built during set-up. On the time one run
may take, drawing either from ``--seed`` moves the figures more than any
bound could allow: a different training set moved mean RBF NADE by 18 %
across five seeds on the tiny world, and PDIPM needs from 2 to 100 Newton
steps depending on the frame. So quality and iteration counts compare case
by case between two commits, and only timings vary between runs. ``--seed``
is recorded with the result.

End-to-end metrics (``--trace 0``): ``setup_s`` is the median time of
``setups`` set-ups; ``samples_per_s`` the number of samples the timed
phases generate divided by their summed times (the reference frame each
``gen_dataset`` call computes first is not counted); ``cases_per_s`` the
held-out cases divided by the evaluate phase; ``nade.*`` and ``sd.*``
means over the held-out cases. Load and training take 0.05 s
on the desk and 0.3 s on the tiny world, and on a shared machine their time
spread by 29 to 49 % of the median over ten runs, so they are per-layer
metrics only (``datagen.load_s``, ``rbf.train_s.*``).

The timing passes spread the measured sample generation over the whole
run, because a shared machine's speed drifts. On a 2-core host, one sparse
factorization of the desk generation mesh, timed four times in a row by
each of two processes taking turns, read the same within a turn but
anywhere from 0.65 to 0.97 s from one turn to the next, in both processes
alike. One block of samples measures whichever window it lands in.

With ``trace`` set, set-up runs once under the span recorder and the timed
phases run twice, untraced and then traced, to give the per-layer metrics
and the tracing overhead; see ``layer_metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from eitprobe import datagen, forward, gn, mesh, metrics, pdipm, rbf
from eitprobe.errors import EitProbeError

import spans

SIGMA_BG = 0.15
# sample i of a dataset draws from stream ``master_seed ^ i``; these two
# master seeds differ in a bit no sample index reaches, so the training and
# held-out streams never meet
TRAIN_SEED = 2 ** 41
EVAL_SEED = 2 ** 40
MAX_SEED = 2 ** 31
METHODS = ("gn", "tv", "rbf_direct", "rbf_postproc")
STOP_REASONS = ("tol", "max_iters", "line_search")
# tolerance of tests/test_forward.py::test_current_conservation (unit drive)
CONSERVATION_TOL = 1e-12


@dataclass(frozen=True)
class World:
    geom: mesh.TankGeometry
    inv_spec: mesh.RefinementSpec
    gen_spec: mesh.RefinementSpec


DESK = World(mesh.TankGeometry(), mesh.RefinementSpec(),
             mesh.RefinementSpec(near=0.3, seed=1))
# the tiny_mesh / tiny_mesh_alt world of tests/conftest.py
TINY = World(mesh.TankGeometry(tank_height=16.0),
             mesh.RefinementSpec(near=1.2, far=12.0, growth=2.2),
             mesh.RefinementSpec(near=1.2, far=12.0, growth=2.2, seed=5))


@dataclass(frozen=True)
class Workload:
    name: str
    world: World
    n_train: int      # samples gen_dataset writes in the datagen phase
    n_eval: int       # held-out cases, scored for every method
    hidden: int       # RBF hidden units
    pass_samples: int  # samples each timing pass generates
    setups: int       # set-ups per untraced run; setup_s is their median
    tv: pdipm.PdipmConfig = pdipm.PdipmConfig()

    def __post_init__(self):
        if not 1 <= self.pass_samples <= self.n_train:
            raise ValueError("pass_samples must lie in [1, n_train]")


WORKLOADS = {
    # Desk scale: set-up is dominated by the GN matrix build (and peak RSS
    # with it), the datagen phase by the factorization of the generation
    # mesh, the evaluate phase by PDIPM's dense Jacobian products. Set-up
    # takes about 20 s and a timing pass about 2.8 s (a reference solve and
    # one sample), so a run has room for one set-up and one sample a pass.
    "desk": Workload("desk", DESK, n_train=10, n_eval=2, hidden=8,
                     pass_samples=1, setups=1),
    # Tiny scale: Python-bound target placement and CSV writing weigh far
    # more per sample than on the desk; the only workload with a training
    # set large enough for the RBF sweep to matter. Set-up takes about
    # 3.5 s. The seventh held-out frame does not converge: it runs PDIPM to
    # max_iters, 25 steps here rather than the default 100, which would take
    # 25 s of a run of about 40 s; the other frames stop at tol in about two
    # steps either way.
    "tiny": Workload("tiny", TINY, n_train=60, n_eval=7, hidden=32,
                     pass_samples=8, setups=3,
                     tv=pdipm.PdipmConfig(max_iters=25)),
}

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "samples_per_s": "1/s",
    "cases_per_s": "1/s",
    **{f"nade.{m}": "ratio" for m in METHODS},
    **{f"sd.{m}": "%" for m in METHODS},
}

LAYERS = ("mesh", "forward", "gn", "pdipm", "rbf", "datagen", "metrics",
          "ioutil", "bench")

PER_LAYER = {
    "mesh.build_s": "s", "mesh.inv_elements": "count",
    "mesh.gen_elements": "count",
    "forward.assemble_s": "s", "forward.solve_s": "s",
    "forward.solves": "count", "forward.jacobian_s": "s",
    "gn.build_s": "s", "gn.build_rss_mb": "MB", "gn.matrix_mb": "MB",
    "gn.apply_s": "s", "gn.applies": "count",
    "pdipm.tv_operator_s": "s", "pdipm.solve_s": "s",
    "pdipm.newton_steps": "count", "pdipm.step_s": "s",
    **{f"pdipm.stop.{r}": "count" for r in STOP_REASONS},
    "pdipm.image_peak_min": "S/m",
    "rbf.train_s.direct": "s", "rbf.train_s.postproc": "s",
    "rbf.rounds.direct": "count", "rbf.rounds.postproc": "count",
    "rbf.val_mse.direct": "S2/m2", "rbf.val_mse.postproc": "S2/m2",
    "rbf.predict_s": "s",
    "datagen.sample_s.p50": "s", "datagen.sample_s.tail": "s",
    "datagen.sample_s.tail_pct": "%", "datagen.samples": "count",
    "datagen.place_s": "s", "datagen.rasterize_s": "s",
    "datagen.noise_s": "s", "datagen.write_s": "s", "datagen.load_s": "s",
    "datagen.dataset_mb": "MB",
    "metrics.voxelizer_s": "s", "metrics.inside_fraction": "ratio",
    "metrics.report_s": "s", "metrics.reports": "count",
    "metrics.worst_case": "count",
    **{f"metrics.dres.{m}": "%" for m in METHODS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s", "trace.untraced_s": "s", "trace.traced_s": "s",
    "trace.spans": "count", "trace.wrapper_s": "s",
}

TIMED_PHASES = ("bench.datagen", "bench.load", "bench.train.direct",
                "bench.train.postproc", "bench.evaluate", "bench.samples",
                "bench.topup")


# --- set-up ------------------------------------------------------------------


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 1e6


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


@dataclass(eq=False)
class Env:
    """Everything set-up builds: meshes, operators and held-out cases."""

    inv: mesh.Mesh
    gen: mesh.Mesh
    schedule: forward.MeasurementSchedule
    pattern: forward.StimPattern
    jac: forward.Jacobian
    rmat: gn.ReconstructionMatrix
    tvop: pdipm.TvOperator
    voxelizer: metrics.Voxelizer
    v_ref: forward.VoltageFrame
    held: list
    gn_build_rss_mb: float
    seconds: float


def setup(world: World, n_eval: int, rec: spans.SpanRecorder) -> Env:
    # the voxelizer cache is keyed by mesh content, so without clearing it
    # a second set-up in one process would skip the voxelizer build
    metrics._VOXELIZERS.clear()
    with rec.span("bench.setup") as sp:
        inv = mesh.build_mesh(world.geom, world.inv_spec)
        gen_mesh = mesh.build_mesh(world.geom, world.gen_spec)
        schedule = forward.adjacent_schedule(world.geom)
        pattern = forward.StimPattern()
        jac = forward.compute_jacobian(
            inv, forward.homogeneous_field(inv, SIGMA_BG), pattern, schedule)
        rss0 = _rss_mb()
        rmat = gn.build_reconstruction_matrix(jac, inv, gn.GnConfig())
        build_rss = max(0.0, _peak_rss_mb() - rss0)
        tvop = pdipm.build_tv_operator(inv)
        vox = metrics.get_voxelizer(inv)
        v_ref = datagen.reference_frame(gen_mesh, schedule, pattern, SIGMA_BG)
        held = [datagen.make_sample(i, EVAL_SEED, gen_mesh, inv, schedule,
                                    pattern, datagen.NoiseModel(), rmat,
                                    datagen.SampleBounds(), v_ref)
                for i in range(n_eval)]
    return Env(inv=inv, gen=gen_mesh, schedule=schedule, pattern=pattern,
               jac=jac, rmat=rmat, tvop=tvop, voxelizer=vox, v_ref=v_ref,
               held=held, gn_build_rss_mb=build_rss, seconds=sp.duration)


# --- timed phases ------------------------------------------------------------


@dataclass(eq=False)
class Timed:
    """Outputs of the timed phases, kept for checks and metrics."""

    phase_s: dict         # phase -> list of durations, one per call
    arrays: datagen.DatasetArrays
    rbf_traces: dict
    images: dict          # method -> list of nodal images (None if raised)
    reports: dict         # method -> list of ErrorReport
    failed: dict          # method -> count of failed scored reconstructions
    pdipm_traces: list
    tv_peaks: list
    dataset_mb: float
    pass_s: list          # per gen_dataset call: seconds of each sample
    pass_dirs: list       # per gen_dataset call: its dataset directory

    @property
    def generated(self) -> int:
        return sum(len(p) for p in self.pass_s)

    @property
    def fixed_s(self) -> float:
        """Seconds of the timed phases, top-ups left out."""
        return sum(sum(self.phase_s.get(p, ())) for p in TIMED_PHASES
                   if p != "bench.topup")


def _dir_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 1e6


def _sample_seconds(data_dir: Path, n: int) -> list[float]:
    """Seconds each of the first ``n`` samples of a dataset took, from its
    own file times.

    ``gen_dataset`` writes ``v_ref.csv``, then each sample's files in index
    order, so the spacing between successive ``truth.f64`` files is one
    sample's time, measured without wrapping ``make_sample``.
    """
    stamps = [(data_dir / "v_ref.csv").stat().st_mtime_ns]
    stamps += [(data_dir / "samples" / f"sample_{i:05d}" / "truth.f64")
               .stat().st_mtime_ns for i in range(n)]
    return (np.diff(stamps) / 1e9).tolist()


def score(inv: mesh.Mesh, img, target, method: str, case_id: str):
    """Score one reconstruction; returns (report, failed).

    A reconstruction fails when it is missing (the method raised), when
    scoring raises, or when it scores the worst case. A missing image is
    scored as the all-zero image, which is the worst case by definition,
    so every method keeps one report per case.
    """
    zeros = np.zeros(inv.n_nodes)
    try:
        report = metrics.full_report(inv, zeros if img is None else img,
                                     target, method=method, case_id=case_id)
    except EitProbeError:
        report = metrics.full_report(inv, zeros, target, method=method,
                                     case_id=case_id)
        return report, True
    return report, img is None or report.worst_case


def _attempt(label: str, fn, *args):
    """``fn(*args)``, or None when it raises an ``EitProbeError``."""
    try:
        return fn(*args)
    except EitProbeError as exc:
        print(f"{label} failed: {exc}", file=sys.stderr)
        return None


def timed_phases(w: Workload, env: Env, seconds: float,
                 rec: spans.SpanRecorder, work: Path) -> Timed:
    phase_s = {}

    @contextmanager
    def phase(name):
        with rec.span(name) as sp:
            yield sp
        phase_s.setdefault(name, []).append(sp.duration)

    def generate(name, out_dir, n):
        with phase(name):
            datagen.gen_dataset(out_dir, n, env.gen, env.inv, env.schedule,
                                env.rmat, noise=datagen.NoiseModel(),
                                pattern=env.pattern, master_seed=TRAIN_SEED)
        pass_s.append(_sample_seconds(out_dir, n))
        pass_dirs.append(out_dir)

    # The training set is the first timing pass; every later pass writes
    # its first pass_samples samples again, the same work each time.
    pass_s, pass_dirs = [], []
    data_dir = work / "train"
    generate("bench.datagen", data_dir, w.n_train)
    dataset_mb = _dir_mb(data_dir)

    with phase("bench.load"):
        arrays = datagen.load_training_arrays(data_dir, env.schedule)
    cfg = rbf.TrainConfig(hidden_count=w.hidden)
    models, rbf_traces = {}, {}
    for mode, inputs in (("direct", arrays.dv), ("postproc", arrays.gn_images)):
        with phase(f"bench.train.{mode}"):
            models[mode], rbf_traces[mode] = rbf.train(
                inputs, arrays.truth, cfg, mode, env.inv.mesh_id,
                env.schedule.schedule_id)

    # PDIPM runs one call per frame: in one batch the slowest column sets
    # the time of all, and each column-step costs more (the two desk frames
    # took 23 to 27 s batched against 19 s apart).
    images = {m: [] for m in METHODS}
    reports = {m: [] for m in METHODS}
    failed = dict.fromkeys(METHODS, 0)
    pdipm_traces, tv_peaks = [], []
    generate("bench.samples", work / "pass1", w.pass_samples)
    for k, s in enumerate(env.held):
        with phase("bench.evaluate"):
            dv = s.v_noisy.values - env.v_ref.values
            img = {"gn": _attempt(f"gn case {k}", gn.reconstruct_gn,
                                  env.rmat, dv, env.inv)}
            tv = _attempt(f"pdipm case {k}", pdipm.reconstruct_pdipm_batch,
                          env.jac, env.tvop, dv, w.tv)
            img["tv"] = None
            if tv is not None:
                x, traces = tv
                pdipm_traces.extend(traces)
                tv_peaks.append(float(np.abs(x[:, 0]).max()))
                img["tv"] = gn.element_to_nodal(x[:, 0], env.inv)
            img["rbf_direct"] = _attempt(f"rbf case {k}", rbf.predict,
                                         models["direct"], dv, env.inv)
            img["rbf_postproc"] = None if img["gn"] is None else _attempt(
                f"rbf case {k}", rbf.predict, models["postproc"], img["gn"],
                env.inv)
            for m in METHODS:
                report, bad = score(env.inv, img[m], s.target, m, str(k))
                images[m].append(img[m])
                reports[m].append(report)
                failed[m] += bad
        generate("bench.samples", work / f"pass{len(pass_s)}", w.pass_samples)

    timed = Timed(phase_s=phase_s, arrays=arrays,
                  rbf_traces=rbf_traces, images=images, reports=reports,
                  failed=failed, pdipm_traces=pdipm_traces, tv_peaks=tv_peaks,
                  dataset_mb=dataset_mb, pass_s=pass_s, pass_dirs=pass_dirs)

    # Runs shorter than --seconds keep making timing passes, so a run
    # measures at least that long.
    while timed.fixed_s + sum(phase_s.get("bench.topup", ())) < seconds:
        generate("bench.topup", work / f"pass{len(pass_s)}", w.pass_samples)
    return timed


# --- checks ------------------------------------------------------------------


def check_outputs(w: Workload, env: Env, timed: Timed) -> list[str]:
    """Independent checks of the run's outputs; returns the failures."""
    problems = []
    # every timing pass ran make_sample again on the first pass_samples
    # indices of the training set
    for d in timed.pass_dirs[1:]:
        for i in range(w.pass_samples):
            rel = Path("samples") / f"sample_{i:05d}" / "gn_image.f64"
            if (d / rel).read_bytes() != (timed.pass_dirs[0] / rel).read_bytes():
                problems.append(f"make_sample({i}) in {d.name} does not "
                                "reproduce the stored gn_image.f64")

    system = forward.assemble_system(env.gen,
                                     forward.homogeneous_field(env.gen, SIGMA_BG))
    sols = forward.solve_injections(system, env.schedule, 1.0)
    leak = float(np.abs(system.electrode_currents(sols).sum(axis=0)).max())
    if not leak <= CONSERVATION_TOL:
        problems.append(f"reference system leaks current: {leak:.3e}")

    for m, imgs in timed.images.items():
        for k, img in enumerate(imgs):
            if img is not None and not np.all(np.isfinite(img)):
                problems.append(f"{m} image {k} is not finite")
    for name in ("dv", "gn_images", "truth"):
        if not np.all(np.isfinite(getattr(timed.arrays, name))):
            problems.append(f"loaded {name} is not finite")

    for k, tr in enumerate(timed.pdipm_traces):
        if tr.n_iters == 0 or not np.all(np.isfinite(tr.objective)):
            problems.append(f"pdipm trace {k} has no finite objective")
        if tr.stopped_reason not in STOP_REASONS:
            problems.append(f"pdipm trace {k} stopped for {tr.stopped_reason!r}")

    inside = float(env.voxelizer.inside.mean())
    if not 0.0 < inside <= 1.0:
        problems.append(f"voxelizer inside fraction {inside} not in (0, 1]")
    return problems


# --- metrics -----------------------------------------------------------------


def end_to_end_metrics(setup_s: float, timed: Timed) -> dict:
    ph = timed.phase_s
    out = {
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(),
        "samples_per_s": timed.generated / sum(map(sum, timed.pass_s)),
        "cases_per_s": len(timed.reports["gn"]) / sum(ph["bench.evaluate"]),
    }
    for m in METHODS:
        out[f"nade.{m}"] = float(np.mean([r.nade for r in timed.reports[m]]))
    for m in METHODS:
        out[f"sd.{m}"] = float(np.mean([r.sd_pct for r in timed.reports[m]]))
    return out


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` samples beyond it."""
    return max(0, math.floor(100.0 * (1.0 - 10.0 / n))) if n >= 10 else 0


def layer_metrics(rec: spans.SpanRecorder, env: Env, timed: Timed,
                  untraced_s: float) -> dict:
    """Per-layer metrics from the spans of one traced set-up and one traced
    pass of the timed phases. Top-ups, whose number depends on the
    machine's speed, are left out, so counts repeat from run to run."""
    sp = [s for s in rec.spans
          if "bench.topup" not in (s.name, rec.phase_of(s.sid))]
    self_t = rec.self_times()

    def pick(names, under=None, parent=None):
        names = {names} if isinstance(names, str) else set(names)
        return [s for s in sp if s.name in names
                and (under is None or rec.within(s.sid, under))
                and (parent is None or rec.spans[s.parent].name == parent)]

    def total(names, under=None, parent=None):
        return float(sum(s.duration for s in pick(names, under, parent)))


    solves = ("forward.solve_forward", "forward.solve_injections")
    solve_s = float(sum(s.duration for s in pick(solves)
                        if s.parent < 0
                        or rec.spans[s.parent].name not in solves))
    writers = ("forward.write_frame_csv", "ioutil.write_f64",
               "ioutil.canonical_json_bytes")
    gen_spans = pick("datagen.gen_dataset", "bench.datagen")
    sample_s = np.array([s.duration for s in
                         pick("datagen.make_sample", "bench.datagen")])
    tail_pct = tail_percentile(len(sample_s))
    newton = sum(tr.n_iters for tr in timed.pdipm_traces)
    pdipm_s = total("pdipm.reconstruct_pdipm_batch", "bench.evaluate")
    all_reports = [r for m in METHODS for r in timed.reports[m]]

    out = {
        "mesh.build_s": total("mesh.build_mesh"),
        "mesh.inv_elements": env.inv.n_elements,
        "mesh.gen_elements": env.gen.n_elements,
        "forward.assemble_s": total("forward.assemble_system"),
        "forward.solve_s": solve_s,
        "forward.solves": len(pick("forward.solve_injections")),
        "forward.jacobian_s": float(sum(self_t[s.sid] for s in
                                        pick("forward.compute_jacobian"))),
        "gn.build_s": total("gn.build_reconstruction_matrix"),
        "gn.build_rss_mb": env.gn_build_rss_mb,
        "gn.matrix_mb": env.rmat.matrix.nbytes / 1e6,
        "gn.apply_s": total("gn.reconstruct_gn"),
        "gn.applies": len(pick("gn.reconstruct_gn")),
        "pdipm.tv_operator_s": total("pdipm.build_tv_operator"),
        "pdipm.solve_s": pdipm_s,
        "pdipm.newton_steps": newton,
        "pdipm.step_s": pdipm_s / newton if newton else 0.0,
        **{f"pdipm.stop.{r}": sum(tr.stopped_reason == r
                                  for tr in timed.pdipm_traces)
           for r in STOP_REASONS},
        "pdipm.image_peak_min": min(timed.tv_peaks) if timed.tv_peaks else 0.0,
        **{f"rbf.train_s.{m}": total("rbf.train", f"bench.train.{m}")
           for m in ("direct", "postproc")},
        **{f"rbf.rounds.{m}": timed.rbf_traces[m].n_rounds
           for m in ("direct", "postproc")},
        **{f"rbf.val_mse.{m}": timed.rbf_traces[m].val_mse[
            timed.rbf_traces[m].selected_round] for m in ("direct", "postproc")},
        "rbf.predict_s": total("rbf.predict"),
        "datagen.sample_s.p50": float(np.percentile(sample_s, 50)),
        "datagen.sample_s.tail": float(np.percentile(sample_s, tail_pct)),
        "datagen.sample_s.tail_pct": tail_pct,
        "datagen.samples": len(sample_s),
        "datagen.place_s": total(("datagen.sample_target",
                                  "datagen.target_probe_distance"),
                                 "bench.datagen", "datagen.make_sample"),
        "datagen.rasterize_s": total("datagen.rasterize_target", "bench.datagen"),
        "datagen.noise_s": total("datagen.add_noise", "bench.datagen"),
        "datagen.write_s": float(sum(self_t[s.sid] for s in gen_spans))
        + total(writers, "bench.datagen", "datagen.gen_dataset"),
        "datagen.load_s": total("datagen.load_training_arrays"),
        "datagen.dataset_mb": timed.dataset_mb,
        "metrics.voxelizer_s": total("metrics.get_voxelizer", "bench.setup"),
        "metrics.inside_fraction": float(env.voxelizer.inside.mean()),
        "metrics.report_s": total("metrics.full_report"),
        "metrics.reports": len(pick("metrics.full_report")),
        "metrics.worst_case": sum(r.worst_case for r in all_reports),
        **{f"metrics.dres.{m}": float(np.mean([r.delta_res_pct
                                               for r in timed.reports[m]]))
           for m in METHODS},
    }
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for s in sp:
        by_layer[s.layer] = by_layer.get(s.layer, 0.0) + float(self_t[s.sid])
    for layer in LAYERS:
        out[f"{layer}.self_s"] = by_layer[layer]
    out["trace.untraced_s"] = untraced_s
    out["trace.traced_s"] = timed.fixed_s
    out["trace.overhead_s"] = timed.fixed_s - untraced_s
    out["trace.spans"] = len(sp)
    # the difference of two runs is dominated by machine noise; the summed
    # cost of the wrappers themselves bounds what tracing adds
    out["trace.wrapper_s"] = len(sp) * spans.wrapper_cost()
    return out


def phase_layer_table(rec: spans.SpanRecorder) -> dict:
    """Self time of each layer inside each bench phase."""
    self_t = rec.self_times()
    table: dict = {}
    for s in rec.spans:
        phase = s.name if s.layer == "bench" else rec.phase_of(s.sid)
        row = table.setdefault(phase, {})
        row[s.layer] = row.get(s.layer, 0.0) + float(self_t[s.sid])
    return table


# --- one run -----------------------------------------------------------------


@dataclass(eq=False)
class RunResult:
    correct: bool
    attempted: int
    failed: int
    end_to_end: dict
    per_layer: dict | None   # traced runs only
    environment: dict
    problems: list = field(default_factory=list)
    recorder: spans.SpanRecorder | None = None
    timed: Timed | None = None

    @property
    def metrics(self) -> dict:
        """What the run reports: per-layer when traced, else end-to-end."""
        return self.end_to_end if self.per_layer is None else self.per_layer

    def result_line(self) -> str:
        units = END_TO_END if self.per_layer is None else PER_LAYER
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in self.metrics.items()},
        })


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy links, or None if not found."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(dll, sym):
                return int(getattr(dll, sym)())
    return None


def environment(w: Workload, env: Env, seed: int, seconds: float,
                trace: bool) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "inv_nodes": env.inv.n_nodes, "inv_elements": env.inv.n_elements,
        "gen_nodes": env.gen.n_nodes, "gen_elements": env.gen.n_elements,
        "n_train": w.n_train, "n_eval": w.n_eval, "rbf_hidden": w.hidden,
        "pass_samples": w.pass_samples, "setups": w.setups,
        "pdipm_max_iters": w.tv.max_iters,
        "train_seed": TRAIN_SEED, "eval_seed": EVAL_SEED,
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 work: Path) -> RunResult:
    """One benchmark run in the working directory ``work``, removed after."""
    if not 0 <= seed < MAX_SEED:
        raise ValueError(f"seed must lie in [0, {MAX_SEED})")
    rec = spans.SpanRecorder()
    per_layer = None
    try:
        if not trace:
            setup_s = []
            for _ in range(w.setups):
                env = None  # free the last world before building the next
                env = setup(w.world, w.n_eval, rec)
                setup_s.append(env.seconds)
            timed = timed_phases(w, env, seconds, rec, work / "run")
        else:
            # set-up once, then the timed phases untraced and traced on the
            # same inputs; the difference is the tracing overhead
            with spans.install("eitprobe", rec):
                env = setup(w.world, w.n_eval, rec)
            untraced = timed_phases(w, env, seconds,
                                    spans.SpanRecorder(), work / "untraced")
            with spans.install("eitprobe", rec):
                timed = timed_phases(w, env, seconds, rec, work / "run")
            per_layer = layer_metrics(rec, env, timed, untraced.fixed_s)
            setup_s = [env.seconds]
        end_to_end = end_to_end_metrics(statistics.median(setup_s), timed)
        problems = check_outputs(w, env, timed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = timed.generated + sum(len(r) for r in timed.reports.values())
    failed = sum(timed.failed.values())
    return RunResult(correct=not problems, attempted=attempted, failed=failed,
                     end_to_end=end_to_end, per_layer=per_layer,
                     problems=problems, recorder=rec, timed=timed,
                     environment=environment(w, env, seed, seconds, trace))


def main(argv, root: Path) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    trace = bool(args.trace)

    work = root / ".bench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    res = run_workload(w, args.seed, args.seconds, trace, work)

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    doc = {"environment": res.environment, "correct": res.correct,
           "problems": res.problems, "attempted": res.attempted,
           "failed": res.failed, "end_to_end": res.end_to_end,
           "per_layer": res.per_layer, "phase_s": res.timed.phase_s,
           "pass_s": res.timed.pass_s}
    if trace:
        doc["phase_layer_self_s"] = phase_layer_table(res.recorder)
        doc["spans"] = res.recorder.to_rows()
        for phase, row in doc["phase_layer_self_s"].items():
            cells = "  ".join(f"{k}={v:.3f}" for k, v in
                              sorted(row.items(), key=lambda kv: -kv[1]))
            print(f"{phase or '(outside)'}: {cells}", file=sys.stderr)
    (out_dir / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(doc))
    for p in res.problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    print(json.dumps({"environment": res.environment}))
    print(res.result_line())
    return 0 if res.correct else 1
