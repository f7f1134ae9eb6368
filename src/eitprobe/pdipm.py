"""Total-variation reconstruction by a primal-dual interior point method.

The data term keeps the Jacobian fixed at the homogeneous reference, so the
minimized functional is convex:

    F(x) = 1/2 ||J x - dv||^2 + alpha * sum_r sqrt((L x)_r^2 + beta^2)

with L the face-difference operator. Each frame is solved on its own, as in
Borsic et al. (IEEE TMI 29(1), 2010): every Newton system is solved
inexactly by conjugate gradients on the matrix-free operator
J'J + alpha L'DL, which never needs the normal matrix in memory. J and dv
are normalized by the root-mean-square row norm of J, so alpha is
calibrated against unit-scale operators; J is normalized implicitly, by
dividing its products, so no scaled copy of it is held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix

from .errors import (DimensionError, IllConditionedError, LineSearchError,
                     ProvenanceError)
from .forward import Jacobian
from .mesh import Mesh

DEFAULT_ALPHA = 0.03
_ARMIJO_C = 1e-4
_MAX_SHRINKS = 30
_SHRINK = 0.5
_CG_ITERS = 30
_CG_RTOL = 1e-8


@dataclass(frozen=True)
class PdipmConfig:
    """TV weight and stopping controls. The smoothing scale beta is always
    taken from the data: 1e-4 times the peak of an optimally scaled
    back-projection of dv, clipped to [1e-12, 1e-2]."""

    alpha: float = DEFAULT_ALPHA
    max_iters: int = 100
    tol: float = 1e-6

    def validate(self) -> None:
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError("alpha must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (0 < self.tol < 1):
            raise ValueError("tol must lie in (0, 1)")


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


def _cg(apply_op, rhs: np.ndarray) -> np.ndarray:
    """CG from zero on an SPD operator, stopped early or at a non-positive
    curvature, so the result is always a descent direction for rhs."""
    x, r, p = np.zeros_like(rhs), rhs.copy(), rhs.copy()
    rs = r @ r
    tol2 = (_CG_RTOL ** 2) * rs
    for _ in range(_CG_ITERS):
        if rs <= tol2:
            break
        q = apply_op(p)
        pq = p @ q
        if pq <= 0:
            break
        a = rs / pq
        x += a * p
        r -= a * q
        rs_new = r @ r
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x


def _solve(jmat: np.ndarray, scale: float, lop: csr_matrix, data: np.ndarray,
           cfg: PdipmConfig) -> tuple[np.ndarray, ConvergenceTrace]:
    """Interior-point iteration on one normalized frame; the normalized
    Jacobian jmat / scale is never formed."""
    alpha = cfg.alpha
    scale2 = scale * scale
    back = (jmat.T @ data) / scale
    fit = (jmat @ back) / scale
    den = fit @ fit
    c = (data @ fit) / den if den > 0 else 0.0
    beta = float(np.clip(1e-4 * np.abs(back * c).max(), 1e-12, 1e-2))

    x, y = np.zeros(jmat.shape[1]), np.zeros(lop.shape[0])
    resid = -data
    trace = ConvergenceTrace()

    def objective(r, lx):
        return 0.5 * (r @ r) + alpha * np.sqrt(lx * lx + beta * beta).sum()

    for it in range(1, cfg.max_iters + 1):
        t = lop @ x
        phi = np.sqrt(t * t + beta * beta)
        f_cur = objective(resid, t)
        grad = (jmat.T @ resid) / scale + alpha * (lop.T @ (t / phi))
        dual_w = (1.0 - y * t / phi) / phi

        def apply_op(v):
            return ((jmat.T @ (jmat @ v)) / scale2
                    + alpha * (lop.T @ (dual_w * (lop @ v))))

        dx = _cg(apply_op, -grad)
        q, ld, gdot = (jmat @ dx) / scale, lop @ dx, grad @ dx

        s = 1.0
        for _ in range(_MAX_SHRINKS + 1):
            if objective(resid + s * q, t + s * ld) <= f_cur + _ARMIJO_C * s * gdot:
                break
            s *= _SHRINK
        else:
            if it == 1:
                raise LineSearchError(
                    "no sufficient-decrease step found on the first iteration")
            trace.stopped_reason = "line_search"
            break

        x += s * dx
        resid = resid + s * q
        dy = (t / phi - y) + (1.0 - y * t / phi) * (s * ld) / phi
        # longest step that keeps every moving entry inside the box
        nz = dy != 0
        y = y + ((np.sign(dy[nz]) - y[nz]) / dy[nz]).min(initial=1.0) * dy
        if not np.all(np.abs(y) <= 1.0 + 1e-12):
            raise LineSearchError("dual step left the feasible box |y| <= 1")
        np.clip(y, -1.0, 1.0, out=y)

        f_new = objective(resid, t + s * ld)
        trace.objective.append(float(f_new))
        trace.step_len.append(float(s))
        trace.dual_max.append(float(np.abs(y).max()))
        if (f_cur - f_new) / max(abs(f_new), 1e-300) <= cfg.tol:
            trace.stopped_reason = "tol"
            break
    return x, trace


def reconstruct_pdipm_batch(jac: Jacobian, tv: TvOperator, dv: np.ndarray,
                            cfg: PdipmConfig,
                            ) -> tuple[np.ndarray, list[ConvergenceTrace]]:
    """One interior-point solve per dv column (a vector is one column).
    Returns the per-element images as columns and one trace per column."""
    cfg.validate()
    if tv.mesh_id != jac.mesh_id:
        raise ProvenanceError("TV operator and Jacobian come from different meshes")
    dv = np.asarray(dv, dtype=np.float64)
    dv = dv[:, None] if dv.ndim == 1 else dv
    jmat = jac.matrix
    if dv.shape[0] != jmat.shape[0]:
        raise DimensionError("dv length does not match the measurement count")
    if tv.matrix.shape[1] != jmat.shape[1]:
        raise DimensionError("TV operator and Jacobian disagree on element count")
    if not np.all(np.isfinite(dv)):
        raise ValueError("dv must be finite everywhere")

    scale = np.linalg.norm(jmat) / math.sqrt(jmat.shape[0])
    if not 0 < scale < math.inf:
        raise IllConditionedError(
            f"Jacobian norm is {scale}: the matrix is zero or not finite")
    images = np.empty((jmat.shape[1], dv.shape[1]))
    traces = []
    for k in range(dv.shape[1]):
        images[:, k], trace = _solve(jmat, scale, tv.matrix, dv[:, k] / scale,
                                     cfg)
        traces.append(trace)
    return images, traces
