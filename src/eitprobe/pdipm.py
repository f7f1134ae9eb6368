"""Total-variation reconstruction by a primal-dual interior point method.

The data term keeps the Jacobian fixed at the homogeneous reference, so the
minimized functional is convex:

    F(x) = 1/2 ||J x - dv||^2 + alpha * sum_r sqrt((L x)_r^2 + beta^2)

with L the face-difference operator. Each Newton system is solved inexactly
by conjugate gradients on the matrix-free operator J'J + alpha L'DL, which
never needs the normal matrix in memory. Several reconstructions can run
through the iteration loop in lockstep so the dominant dense products become
matrix-matrix multiplies; a single case is a batch of one.

The Jacobian and data are normalized by the root-mean-square row norm of J
before iterating, so alpha is calibrated against unit-scale operators.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix

from .errors import DimensionError, LineSearchError, ProvenanceError
from .forward import Jacobian, VoltageFrame
from .mesh import Mesh

DEFAULT_ALPHA = 0.03
_ARMIJO_C = 1e-4
_MAX_SHRINKS = 30
_CG_RTOL = 1e-8


@dataclass(frozen=True)
class PdipmConfig:
    """TV weight, dual smoothing and stopping controls.

    ``beta = None`` picks the smoothing scale from the data: 1e-4 times the
    peak of an optimally scaled back-projection of dv.
    """

    alpha: float = DEFAULT_ALPHA
    beta: float | None = None
    max_iters: int = 100
    tol: float = 1e-6
    shrink: float = 0.5
    cg_iters: int = 30

    def validate(self) -> None:
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError("alpha must be positive and finite")
        if self.beta is not None and not (0 < self.beta <= 1e-2):
            raise ValueError("beta must lie in (0, 1e-2]")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (0 < self.tol < 1):
            raise ValueError("tol must lie in (0, 1)")
        if not (0 < self.shrink < 1):
            raise ValueError("shrink must lie in (0, 1)")
        if self.cg_iters < 1:
            raise ValueError("cg_iters must be at least 1")


@dataclass(eq=False)
class TvOperator:
    """One row per interior face: +w on one owner element, -w on the other,
    with w = shared-face area / centroid distance."""

    matrix: csr_matrix
    weights: np.ndarray
    mesh_id: str

    @property
    def n_faces(self) -> int:
        return self.matrix.shape[0]


def build_tv_operator(mesh: Mesh) -> TvOperator:
    faces, owners = mesh.interior_faces
    p = mesh.nodes[faces]
    areas = 0.5 * np.linalg.norm(
        np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1)
    dist = np.linalg.norm(
        mesh.centroids[owners[:, 0]] - mesh.centroids[owners[:, 1]], axis=1)
    w = areas / dist
    n_f = faces.shape[0]
    rows = np.repeat(np.arange(n_f), 2)
    cols = owners.ravel()
    data = np.column_stack([w, -w]).ravel()
    matrix = coo_matrix((data, (rows, cols)),
                        shape=(n_f, mesh.n_elements)).tocsr()
    return TvOperator(matrix=matrix, weights=w, mesh_id=mesh.mesh_id)


@dataclass(eq=False)
class ConvergenceTrace:
    """Per-iteration objective, accepted step length and dual bound."""

    objective: list = field(default_factory=list)
    step_len: list = field(default_factory=list)
    dual_max: list = field(default_factory=list)
    stopped_reason: str = "max_iters"

    @property
    def n_iters(self) -> int:
        return len(self.objective)


def write_trace_csv(trace: ConvergenceTrace, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "objective", "step_len", "dual_max"])
        for k in range(trace.n_iters):
            writer.writerow([k + 1, repr(trace.objective[k]),
                             repr(trace.step_len[k]), repr(trace.dual_max[k])])


def _batched_cg(apply_op, rhs: np.ndarray, iters: int) -> np.ndarray:
    """CG from zero on SPD columns; converged columns are frozen in place so
    every column of the result is a descent direction for its rhs."""
    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = r.copy()
    rs = np.einsum("ij,ij->j", r, r)
    tol2 = (_CG_RTOL ** 2) * rs
    for _ in range(iters):
        live = rs > tol2
        if not live.any():
            break
        q = apply_op(p)
        pq = np.einsum("ij,ij->j", p, q)
        safe = np.where(live & (pq > 0), pq, 1.0)
        a = np.where(live & (pq > 0), rs / safe, 0.0)
        x += a * p
        r -= a * q
        rs_new = np.einsum("ij,ij->j", r, r)
        beta = np.where(live, rs_new / np.where(rs > 0, rs, 1.0), 0.0)
        p = r + beta * p
        rs = rs_new
    return x


def reconstruct_pdipm_batch(jac: Jacobian, tv: TvOperator, dv: np.ndarray,
                            cfg: PdipmConfig,
                            ) -> tuple[np.ndarray, list[ConvergenceTrace]]:
    """Run the interior-point iteration on one or more dv columns at once.

    Returns the per-element images as columns and one trace per column.
    """
    cfg.validate()
    if tv.mesh_id != jac.mesh_id:
        raise ProvenanceError("TV operator and Jacobian come from different meshes")
    dv = np.asarray(dv, dtype=np.float64)
    single = dv.ndim == 1
    dv = dv[:, None] if single else dv
    jmat = jac.matrix
    if dv.shape[0] != jmat.shape[0]:
        raise DimensionError("dv length does not match the measurement count")
    if tv.matrix.shape[1] != jmat.shape[1]:
        raise DimensionError("TV operator and Jacobian disagree on element count")

    n_meas, n_cols = dv.shape
    scale = np.linalg.norm(jmat) / math.sqrt(n_meas)
    jn = jmat / scale
    data = dv / scale
    lop = tv.matrix
    alpha = cfg.alpha

    if cfg.beta is None:
        back = jn.T @ data
        fit = jn @ back
        den = np.einsum("ij,ij->j", fit, fit)
        num = np.einsum("ij,ij->j", data, fit)
        c = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
        beta = np.clip(1e-4 * np.max(np.abs(back * c), axis=0), 1e-12, 1e-2)
    else:
        beta = np.full(n_cols, cfg.beta)

    x = np.zeros((jmat.shape[1], n_cols))
    y = np.zeros((lop.shape[0], n_cols))
    resid = -data.copy()
    traces = [ConvergenceTrace() for _ in range(n_cols)]
    active = np.ones(n_cols, dtype=bool)

    for it in range(1, cfg.max_iters + 1):
        act = np.flatnonzero(active)
        if act.size == 0:
            break
        xa, ya, ra, ba = x[:, act], y[:, act], resid[:, act], beta[act]
        t = lop @ xa
        phi = np.sqrt(t * t + ba * ba)
        f_cur = 0.5 * np.einsum("ij,ij->j", ra, ra) + alpha * phi.sum(axis=0)
        grad = jn.T @ ra + alpha * (lop.T @ (t / phi))
        dual_w = (1.0 - ya * t / phi) / phi

        def apply_op(v):
            return jn.T @ (jn @ v) + alpha * (lop.T @ (dual_w * (lop @ v)))

        dx = _batched_cg(apply_op, -grad, cfg.cg_iters)
        q = jn @ dx
        ld = lop @ dx
        gdot = np.einsum("ij,ij->j", grad, dx)

        s = np.ones(act.size)
        accepted = np.zeros(act.size, dtype=bool)
        for _ in range(_MAX_SHRINKS + 1):
            trial = np.flatnonzero(~accepted)
            if trial.size == 0:
                break
            st = s[trial]
            f_try = (0.5 * np.einsum("ij,ij->j",
                                     ra[:, trial] + st * q[:, trial],
                                     ra[:, trial] + st * q[:, trial])
                     + alpha * np.sqrt((t[:, trial] + st * ld[:, trial]) ** 2
                                       + ba[trial] ** 2).sum(axis=0))
            ok = f_try <= f_cur[trial] + _ARMIJO_C * st * gdot[trial]
            accepted[trial[ok]] = True
            s[trial[~ok]] *= cfg.shrink

        if not accepted.all():
            if it == 1:
                raise LineSearchError(
                    "no sufficient-decrease step found on the first iteration")
            for k in np.flatnonzero(~accepted):
                traces[act[k]].stopped_reason = "line_search"
                active[act[k]] = False

        upd = np.flatnonzero(accepted)
        if upd.size == 0:
            continue
        cols = act[upd]
        su = s[upd]
        x[:, cols] += su * dx[:, upd]
        resid[:, cols] = ra[:, upd] + su * q[:, upd]

        tn, pn, yu = t[:, upd], phi[:, upd], ya[:, upd]
        dy = (tn / pn - yu) + (1.0 - yu * tn / pn) * (su * ld[:, upd]) / pn
        lim = np.full_like(dy, np.inf)
        pos, neg = dy > 0, dy < 0
        lim[pos] = (1.0 - yu[pos]) / dy[pos]
        lim[neg] = (-1.0 - yu[neg]) / dy[neg]
        sd = np.minimum(1.0, lim.min(axis=0))
        ynew = yu + sd * dy
        if not np.all(np.abs(ynew) <= 1.0 + 1e-12):
            raise LineSearchError("dual step left the feasible box |y| <= 1")
        np.clip(ynew, -1.0, 1.0, out=ynew)
        y[:, cols] = ynew

        f_new = (0.5 * np.einsum("ij,ij->j", resid[:, cols], resid[:, cols])
                 + alpha * np.sqrt((tn + su * ld[:, upd]) ** 2
                                   + ba[upd] ** 2).sum(axis=0))
        rel = (f_cur[upd] - f_new) / np.maximum(np.abs(f_new), 1e-300)
        for j, col in enumerate(cols):
            traces[col].objective.append(float(f_new[j]))
            traces[col].step_len.append(float(su[j]))
            traces[col].dual_max.append(float(np.abs(y[:, col]).max()))
            if rel[j] <= cfg.tol:
                traces[col].stopped_reason = "tol"
                active[col] = False

    return x, traces


def reconstruct_pdipm(mesh: Mesh, jac: Jacobian, tv: TvOperator,
                      v_meas: VoltageFrame, v_ref: VoltageFrame,
                      cfg: PdipmConfig,
                      ) -> tuple[np.ndarray, ConvergenceTrace]:
    """Per-element TV reconstruction of one measurement frame."""
    if jac.mesh_id != mesh.mesh_id or tv.mesh_id != mesh.mesh_id:
        raise ProvenanceError("Jacobian or TV operator built on a different mesh")
    if v_meas.schedule_id != jac.schedule_id or v_ref.schedule_id != jac.schedule_id:
        raise ProvenanceError("voltage frames do not match the Jacobian schedule")
    dv = v_meas.values - v_ref.values
    images, traces = reconstruct_pdipm_batch(jac, tv, dv, cfg)
    return images[:, 0], traces[0]
