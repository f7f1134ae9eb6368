"""Radial-basis-function network with a linear output layer.

Two usage modes share one architecture: ``direct`` maps the 928 measured
voltage differences straight to a nodal image; ``postproc`` maps a linear
reconstruction to a cleaned-up nodal image. Hidden units are Gaussians on
k-means centers of the normalized training inputs; the output layer is
solved in closed form by ridge least squares, so training is deterministic.
Rounds sweep the spread over a short ladder around its base value and the
round with the lowest validation error is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import (DegenerateDataError, DimensionError, ProvenanceError,
                     SingularGramError)
from .mesh import Mesh

MODES = ("direct", "postproc")
DIRECT_INPUT_DIM = 928
_LLOYD_ITERS = 25


@dataclass(frozen=True)
class TrainConfig:
    """Network size, spread sweep and split controls."""

    hidden_count: int = 200
    spread: float | None = None
    ridge: float = 1e-8
    val_fraction: float = 0.10
    seed: int = 0
    max_rounds: int = 8
    patience: int = 3

    def validate(self) -> None:
        if self.hidden_count < 1:
            raise ValueError("hidden_count must be at least 1")
        if self.spread is not None and not (self.spread > 0
                                            and math.isfinite(self.spread)):
            raise ValueError("spread must be positive")
        if self.ridge < 0:
            raise ValueError("ridge must be nonnegative")
        if not 0 < self.val_fraction < 0.5:
            raise ValueError("val_fraction must lie in (0, 0.5)")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")


@dataclass(eq=False)
class RbfModel:
    """Trained network plus the affine normalizations baked in at fit time."""

    mode: str
    centers: np.ndarray         # (hidden, input_dim), normalized input space
    spread: float
    output_weights: np.ndarray  # (output_dim, hidden)
    output_bias: np.ndarray     # (output_dim,)
    input_mean: np.ndarray
    input_scale: np.ndarray
    output_lo: float
    output_hi: float
    mesh_id: str
    schedule_id: str

    @property
    def hidden_count(self) -> int:
        return self.centers.shape[0]

    @property
    def input_dim(self) -> int:
        return self.centers.shape[1]

    @property
    def output_dim(self) -> int:
        return self.output_bias.shape[0]


@dataclass(eq=False)
class TrainTrace:
    """Per-round spread and errors; MSE values are in output units."""

    spreads: list = field(default_factory=list)
    train_mse: list = field(default_factory=list)
    val_mse: list = field(default_factory=list)
    selected_round: int = 0

    @property
    def n_rounds(self) -> int:
        return len(self.spreads)


def _sq_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    d2 = (np.sum(points ** 2, axis=1)[:, None]
          + np.sum(centers ** 2, axis=1)[None, :]
          - 2.0 * points @ centers.T)
    return np.maximum(d2, 0.0)


def _kmeans(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding plus a bounded number of Lloyd sweeps; ``train``
    runs it in the z-scored input space the network operates in."""
    n = points.shape[0]
    if k > n:
        raise ValueError(f"cannot place {k} centers on {n} samples")
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(n)
    d2 = np.sum((points - points[chosen[0]]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total == 0.0:
            raise DegenerateDataError(
                "all inputs are identical; cannot place distinct centers")
        chosen[j] = rng.choice(n, p=d2 / total)
        d2 = np.minimum(d2, np.sum((points - points[chosen[j]]) ** 2, axis=1))
    centers = points[chosen].copy()
    assign = np.argmin(_sq_distances(points, centers), axis=1)
    for _ in range(_LLOYD_ITERS):
        for j in range(k):
            members = assign == j
            if members.any():
                centers[j] = points[members].mean(axis=0)
        new_assign = np.argmin(_sq_distances(points, centers), axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return centers


def _median_pairwise(points: np.ndarray, cap: int = 256) -> float:
    sub = points[:cap]
    d2 = _sq_distances(sub, sub)
    upper = d2[np.triu_indices(sub.shape[0], k=1)]
    med = float(np.sqrt(np.median(upper))) if upper.size else 0.0
    return med if med > 0 else 1.0


def _spread_ladder(max_rounds: int) -> list[float]:
    ladder = [1.0]
    k = 1
    while len(ladder) < max_rounds:
        ladder.append(1.5 ** k)
        if len(ladder) < max_rounds:
            ladder.append(0.75 ** k)
        k += 1
    return ladder


def _design(xn: np.ndarray, centers: np.ndarray, spread: float) -> np.ndarray:
    return np.exp(_sq_distances(xn, centers) / (-2.0 * spread * spread))


def _solve_output_layer(h: np.ndarray, tn: np.ndarray, ridge: float):
    a = np.hstack([h, np.ones((h.shape[0], 1))])
    gram = a.T @ a
    idx = np.arange(h.shape[1])
    gram[idx, idx] += ridge  # bias column stays unpenalized
    try:
        cho = cho_factor(gram, lower=True)
    except np.linalg.LinAlgError as exc:
        raise SingularGramError(
            f"activation gram matrix is rank deficient (raise ridge): {exc}"
        ) from exc
    theta = cho_solve(cho, a.T @ tn)
    return theta[:-1], theta[-1]


def train(inputs: np.ndarray, targets: np.ndarray, cfg: TrainConfig,
          mode: str, mesh_id: str, schedule_id: str,
          ) -> tuple[RbfModel, TrainTrace]:
    """Fit the output layer over k-means centers, sweeping the spread."""
    cfg.validate()
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if inputs.ndim != 2 or targets.ndim != 2:
        raise DimensionError("inputs and targets must be 2-d sample matrices")
    if inputs.shape[0] != targets.shape[0]:
        raise DimensionError("inputs and targets disagree on sample count")
    if mode == "direct" and inputs.shape[1] != DIRECT_INPUT_DIM:
        raise DimensionError(
            f"direct mode expects {DIRECT_INPUT_DIM} inputs per sample")
    n = inputs.shape[0]
    if n < 10:
        raise ValueError("training needs at least 10 samples")

    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(n)
    n_val = max(1, int(round(cfg.val_fraction * n)))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    if cfg.hidden_count > train_idx.size:
        raise ValueError("hidden_count exceeds the training split size")

    x_tr = inputs[train_idx]
    mu = x_tr.mean(axis=0)
    sd = x_tr.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    xn_tr = (x_tr - mu) / sd
    xn_val = (inputs[val_idx] - mu) / sd
    lo = float(targets[train_idx].min())
    hi = float(targets[train_idx].max())
    span = hi - lo if hi > lo else 1.0
    tn_tr = (targets[train_idx] - lo) / span
    tn_val = (targets[val_idx] - lo) / span

    centers = _kmeans(xn_tr, cfg.hidden_count, rng)
    base = cfg.spread if cfg.spread is not None else _median_pairwise(xn_tr)

    trace = TrainTrace()
    best = None
    best_val = math.inf
    since_best = 0
    for mult in _spread_ladder(cfg.max_rounds):
        spread = base * mult
        h_tr = _design(xn_tr, centers, spread)
        weights, bias = _solve_output_layer(h_tr, tn_tr, cfg.ridge)
        mse_tr = float(np.mean((h_tr @ weights + bias - tn_tr) ** 2)) * span ** 2
        h_val = _design(xn_val, centers, spread)
        mse_val = float(np.mean((h_val @ weights + bias - tn_val) ** 2)) * span ** 2
        trace.spreads.append(spread)
        trace.train_mse.append(mse_tr)
        trace.val_mse.append(mse_val)
        if mse_val < best_val:
            best_val = mse_val
            best = (spread, weights, bias)
            trace.selected_round = trace.n_rounds - 1
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break

    spread, weights, bias = best
    model = RbfModel(mode=mode, centers=centers, spread=spread,
                     output_weights=np.ascontiguousarray(weights.T),
                     output_bias=bias, input_mean=mu, input_scale=sd,
                     output_lo=lo, output_hi=hi,
                     mesh_id=mesh_id, schedule_id=schedule_id)
    return model, trace


def predict(model: RbfModel, inputs: np.ndarray, mesh: Mesh) -> np.ndarray:
    """Denormalized nodal image(s) for one input vector or a batch."""
    if mesh.mesh_id != model.mesh_id:
        raise ProvenanceError("model was trained for a different mesh")
    if model.output_dim != mesh.n_nodes:
        raise DimensionError("model output size does not match the mesh")
    inputs = np.asarray(inputs, dtype=np.float64)
    single = inputs.ndim == 1
    x = inputs[None, :] if single else inputs
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise DimensionError(
            f"expected {model.input_dim} inputs, got {x.shape[-1]}")
    xn = (x - model.input_mean) / model.input_scale
    h = _design(xn, model.centers, model.spread)
    span = model.output_hi - model.output_lo
    if span <= 0:
        span = 1.0
    out = (h @ model.output_weights.T + model.output_bias) * span + model.output_lo
    return out[0] if single else out
