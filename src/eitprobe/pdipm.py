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

J is held on its independent rows B = N' C^1/2 Jd (see
``forward.Jacobian``): J = E B, where E = P C^-1/2 N has orthonormal
columns, Jd are the distinct reciprocal rows, P expands them to the
measurements and C = P'P. So

    ||J x - dv||^2 = ||B x - d||^2 + ||dv||^2 - ||d||^2,  d = N' C^-1/2 P'dv

where P'dv sums the twins of dv onto their distinct row
(``forward._fold_twins``, the fold GN also applies). Each frame is folded
to its coordinates d once; the residual, the gradient B'r and the CG
operator B'B v / scale^2 + alpha L'DL v then run over the 374 rows of B,
not the 464 distinct rows nor the 928 measurements, and the objective adds
the constant (||dv||^2 - ||d||^2) / 2. So its values, the stop rule and
the traces are those of the loop on one row per measurement, to rounding.

The CG operator's data term, B'(B v), takes nearly all of a solve's
time, and it is the only work that runs on two threads. It is two passes
over B: B v by row chunks, then B'w by column chunks. The
chunks are fixed by the matrix's shape alone, so each output entry comes
from the same operations whichever thread computes its chunk, and the
images and traces are bitwise the same with the pool or without it (on one
CPU the calling thread runs every chunk). The calling thread and a
one-thread pool claim chunks in turn, so a worker slowed by a busy core
simply takes fewer. The caller waits for the worker's last chunk only
about as long as one of its own chunks took, and then computes that chunk
too, so a stalled worker never stalls the solve. Chunk edges fall on
multiples of 8, which keeps each chunk on the same BLAS kernels as the
whole product: with OpenBLAS 0.3.31's Haswell kernels the chunked products
are bitwise those of the unsplit ones.
"""

from __future__ import annotations

import math
import time
from collections import deque
from concurrent import futures
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix

from .errors import (DimensionError, IllConditionedError, LineSearchError,
                     ProvenanceError)
from .forward import _WORKERS, Jacobian, _fold_twins
from .mesh import Mesh

DEFAULT_ALPHA = 0.03
_ARMIJO_C = 1e-4
_MAX_SHRINKS = 30
_SHRINK = 0.5
_CG_ITERS = 30
_CG_RTOL = 1e-8
_TOL = 1e-6
# chunks per pass of the CG operator's data term: few enough that each
# chunk's product outweighs claiming it (a tiny-mesh chunk is about 0.1 ms),
# many enough that a worker stalled mid-chunk holds back little
_CHUNKS = 8


@dataclass(frozen=True)
class PdipmConfig:
    """TV weight and iteration cap; a step that lowers the objective by at
    most ``_TOL`` of its value also ends the solve. The smoothing scale
    beta is always taken from the data: 1e-4 times the peak of an
    optimally scaled back-projection of dv, clipped to [1e-12, 1e-2]."""

    alpha: float = DEFAULT_ALPHA
    max_iters: int = 100

    def __post_init__(self) -> None:
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError("alpha must be positive and finite")
        if not isinstance(self.max_iters, (int, np.integer)) or self.max_iters < 1:
            raise ValueError("max_iters must be an integer of at least 1 "
                             f"(got {self.max_iters!r})")


@dataclass(eq=False)
class TvOperator:
    """The face-difference operator L of the TV term, which the mesh owns
    (``Mesh.face_difference``), tagged with the mesh it belongs to."""

    matrix: csr_matrix
    mesh_id: str


def build_tv_operator(mesh: Mesh) -> TvOperator:
    return TvOperator(matrix=mesh.face_difference, mesh_id=mesh.mesh_id)


@dataclass(eq=False)
class ConvergenceTrace:
    """Per accepted Newton step: the objective, the dual bound, the CG
    iterations of the Newton solve and their final relative residual, and
    the line-search shrinks before the step was accepted; the step taken
    was 0.5 ** shrinks of the Newton step."""

    objective: list = field(default_factory=list)
    dual_max: list = field(default_factory=list)
    cg_iters: list = field(default_factory=list)
    cg_resid: list = field(default_factory=list)
    shrinks: list = field(default_factory=list)
    stopped_reason: str = "max_iters"

    @property
    def n_iters(self) -> int:
        return len(self.objective)


def _cg(apply_op, rhs: np.ndarray) -> tuple[np.ndarray, tuple[int, float]]:
    """CG from zero on an SPD operator, stopped early or at a non-positive
    curvature, so the result is always a descent direction for rhs. Also
    returns its operator products and its recurrence's final |r| / |rhs|."""
    x, r, p = np.zeros_like(rhs), rhs.copy(), rhs.copy()
    rs = rs0 = r @ r
    tol2 = (_CG_RTOL ** 2) * rs
    n = 0
    while n < _CG_ITERS and rs > tol2:
        q = apply_op(p)
        n += 1
        pq = p @ q
        if pq <= 0:
            break
        a = rs / pq
        x += a * p
        r -= a * q
        rs_new = r @ r
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, (n, math.sqrt(rs / rs0) if rs0 > 0 else 0.0)


def _chunks(n: int) -> list[slice]:
    """``_CHUNKS`` slices that cover range(n), each inner edge on a
    multiple of 8."""
    edges = [n * i // _CHUNKS // 8 * 8 for i in range(_CHUNKS)] + [n]
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


def _shared(pool: futures.ThreadPoolExecutor | None, fn,
            chunks: list[slice]) -> np.ndarray:
    """The concatenated ``fn(c)`` over ``chunks``, computed by the calling
    thread and, with a pool, its one worker, which claim chunks in turn."""
    parts = [None] * len(chunks)
    todo = deque(range(len(chunks)))  # its pops are thread-safe

    def drain() -> int:
        # may run in the worker, so fn must touch only numpy
        done = 0
        while True:
            try:
                k = todo.popleft()
            except IndexError:
                return done
            parts[k] = fn(chunks[k])
            done += 1

    task = None if pool is None else pool.submit(drain)
    start = time.perf_counter()
    done = drain()
    if (task is not None and not task.cancel()
            and any(part is None for part in parts)):
        # the worker holds a chunk: wait about as long as one chunk took here
        try:
            task.result(timeout=(time.perf_counter() - start) / max(done, 1))
        except futures.TimeoutError:
            pass
    for k, part in enumerate(parts):
        if part is None:
            parts[k] = fn(chunks[k])
    return np.concatenate(parts)


def _solve(jac: Jacobian, scale: float, lop: csr_matrix, data: np.ndarray,
           cfg: PdipmConfig, pool: futures.ThreadPoolExecutor | None,
           ) -> tuple[np.ndarray, ConvergenceTrace]:
    """Interior-point iteration on one normalized frame, on the
    coordinates of the Jacobian's independent rows; the normalized Jacobian
    J / scale is never formed, nor is J expanded to one row per
    measurement. ``pool``, one thread or none, shares the CG operator's
    data term."""
    jmat = jac.matrix
    row_chunks, col_chunks = _chunks(jmat.shape[0]), _chunks(jmat.shape[1])
    alpha = cfg.alpha
    scale2 = scale * scale
    coords = jac.coordinates @ _fold_twins(jac.row_index, data)
    # the part of the data off the Jacobian's range does not depend on x
    offset = 0.5 * (data @ data - coords @ coords)

    back = (jmat.T @ coords) / scale
    fit = (jmat @ back) / scale
    den = fit @ fit
    c = (coords @ fit) / den if den > 0 else 0.0
    beta = float(np.clip(1e-4 * np.abs(back * c).max(), 1e-12, 1e-2))

    x, y = np.zeros(jmat.shape[1]), np.zeros(lop.shape[0])
    resid = -coords
    trace = ConvergenceTrace()

    def objective(r, lx):
        return (0.5 * (r @ r) + offset
                + alpha * np.sqrt(lx * lx + beta * beta).sum())

    for it in range(1, cfg.max_iters + 1):
        t = lop @ x
        phi = np.sqrt(t * t + beta * beta)
        f_cur = objective(resid, t)
        grad = (jmat.T @ resid) / scale + alpha * (lop.T @ (t / phi))
        dual_w = (1.0 - y * t / phi) / phi

        def apply_op(v):
            w = _shared(pool, lambda r: jmat[r] @ v, row_chunks)
            return (_shared(pool, lambda c: jmat[:, c].T @ w, col_chunks)
                    / scale2 + alpha * (lop.T @ (dual_w * (lop @ v))))

        dx, (cg_iters, cg_resid) = _cg(apply_op, -grad)
        q, ld, gdot = (jmat @ dx) / scale, lop @ dx, grad @ dx

        s = 1.0
        for shrinks in range(_MAX_SHRINKS + 1):
            f_new = objective(resid + s * q, t + s * ld)
            if f_new <= f_cur + _ARMIJO_C * s * gdot:
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

        trace.objective.append(float(f_new))
        trace.dual_max.append(float(np.abs(y).max()))
        trace.cg_iters.append(cg_iters)
        trace.cg_resid.append(cg_resid)
        trace.shrinks.append(shrinks)
        if (f_cur - f_new) / max(abs(f_new), 1e-300) <= _TOL:
            trace.stopped_reason = "tol"
            break
    return x, trace


def reconstruct_pdipm_batch(jac: Jacobian, tv: TvOperator, dv: np.ndarray,
                            cfg: PdipmConfig,
                            ) -> tuple[np.ndarray, list[ConvergenceTrace]]:
    """One interior-point solve per dv column (a vector is one column).
    Returns the per-element images as columns and one trace per column."""
    if tv.mesh_id != jac.mesh_id:
        raise ProvenanceError("TV operator and Jacobian come from different meshes")
    dv = np.asarray(dv, dtype=np.float64)
    if dv.ndim not in (1, 2):
        raise DimensionError(f"dv must be a vector or a matrix, not {dv.ndim}-d")
    dv = dv[:, None] if dv.ndim == 1 else dv
    jmat = jac.matrix
    if dv.shape[0] != jac.row_index.size:
        raise DimensionError("dv length does not match the measurement count")
    if tv.matrix.shape[1] != jmat.shape[1]:
        raise DimensionError("TV operator and Jacobian disagree on element count")
    if not np.all(np.isfinite(dv)):
        raise ValueError("dv must be finite everywhere")

    # B'B = J'J: the root-mean-square row norm of J, one row per measurement
    scale = math.sqrt(np.einsum("ij,ij->", jmat, jmat) / jac.row_index.size)
    if not 0 < scale < math.inf:
        raise IllConditionedError(
            f"Jacobian norm is {scale}: the matrix is zero or not finite")
    images = np.empty((jmat.shape[1], dv.shape[1]))
    traces = []
    with (futures.ThreadPoolExecutor(1) if _WORKERS > 1
          else nullcontext()) as pool:
        for k in range(dv.shape[1]):
            images[:, k], trace = _solve(jac, scale, tv.matrix,
                                         dv[:, k] / scale, cfg, pool)
            traces.append(trace)
    return images, traces
