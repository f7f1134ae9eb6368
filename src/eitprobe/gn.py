"""One-step Gauss-Newton difference imaging through a precomputed matrix.

Building the reconstruction matrix R is the expensive phase; applying it to
a voltage difference is a single matrix-vector product that yields the
nodal conductivity change directly, because the volume-weighted averaging
from elements to nodes is folded into R. The Jacobian columns are scaled by
element volume to undo the grading bias of the mesh, the normal equations
are regularized by a smoothness prior, and the solve uses the push-through
identity

    (U U' + S)^-1 U = S^-1 U (I + U' S^-1 U)^-1

so only the sparse prior S and a dense measurement-by-measurement block are
ever factorized; an element-by-element dense matrix is never formed. Both
are SPD: the dense block is Cholesky-factorized, and S is factorized by
SuperLU in symmetric mode with diagonal pivoting. The right-hand sides U
are streamed in blocks of measurement columns, so no element-by-measurement
array beyond one block is held besides the Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse import csr_matrix
from scipy.sparse import identity as speye

from .errors import DimensionError, IllConditionedError, ProvenanceError
from .forward import Jacobian, VoltageFrame, _factor_spd
from .ioutil import hash_of
from .mesh import Mesh
from .pdipm import build_tv_operator

DEFAULT_LAMBDA = 0.03
PRIORS = ("laplacian", "tikhonov")
_PRIOR_RIDGE = 1e-8
# measurement columns per solve block of the matrix build; caps its working
# set at a few element-by-block arrays
_BLOCK_COLUMNS = 128


@dataclass(frozen=True)
class GnConfig:
    """Regularization weight (against normalized operators) and prior
    choice. The linearization point is the conductivity the Jacobian was
    computed at."""

    lam: float = DEFAULT_LAMBDA
    prior: str = "laplacian"

    def validate(self) -> None:
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValueError("lam must be positive and finite")
        if self.prior not in PRIORS:
            raise ValueError(f"prior must be one of {PRIORS}")

    def to_dict(self) -> dict:
        return {"lam": self.lam, "prior": self.prior}


@dataclass(eq=False)
class ReconstructionMatrix:
    """Dense nodes-by-measurements map from a 928-long voltage difference
    to the nodal conductivity change, tied to the mesh and schedule it was
    built for."""

    matrix: np.ndarray
    mesh_id: str
    schedule_id: str
    config: GnConfig

    @cached_property
    def config_hash(self) -> str:
        return hash_of(self.config.to_dict())


def smoothness_prior(mesh: Mesh, prior: str):
    """Sparse SPD prior: identity, or the face-weighted graph Laplacian of
    the element adjacency normalized to unit mean diagonal plus a small
    ridge that removes the constant nullspace."""
    n = mesh.n_elements
    if prior == "tikhonov":
        return speye(n, format="csc")
    lop = build_tv_operator(mesh).matrix
    lap = (lop.T @ lop).tocsc()
    lap = lap * (n / lap.diagonal().sum())
    return (lap + _PRIOR_RIDGE * speye(n, format="csc")).tocsc()


def build_reconstruction_matrix(jac: Jacobian, mesh: Mesh,
                                cfg: GnConfig) -> ReconstructionMatrix:
    """Nodal one-step GN matrix: ``reconstruct_gn`` applies it as is."""
    return _build(jac, mesh, cfg, _averaging_map(mesh))


def _element_reconstruction_matrix(jac: Jacobian, mesh: Mesh,
                                   cfg: GnConfig) -> ReconstructionMatrix:
    """The same solve without the averaging: elements by measurements.
    Only the tests use it, to check the normal equations per element."""
    return _build(jac, mesh, cfg, speye(mesh.n_elements, format="csr"))


def _build(jac: Jacobian, mesh: Mesh, cfg: GnConfig,
           avg: csr_matrix) -> ReconstructionMatrix:
    """R = avg V^-1 W (I + U' W)^-1 / scale with U = (J V^-1 / scale)' and
    W = S^-1 U, V = diag(volumes); U and W exist one column block at a
    time, and only the two products with them are kept."""
    cfg.validate()
    if jac.mesh_id != mesh.mesh_id:
        raise ProvenanceError("Jacobian was computed on a different mesh")
    jmat = jac.matrix
    n_meas = jmat.shape[0]
    vols = mesh.volumes
    blocks = [slice(i, i + _BLOCK_COLUMNS)
              for i in range(0, n_meas, _BLOCK_COLUMNS)]
    # sensitivity entries grow with element volume; dividing the columns by
    # volume puts coarse far elements and fine near elements on one scale
    sq = sum(np.linalg.norm(jmat[b] / vols) ** 2 for b in blocks)
    scale = math.sqrt(sq / n_meas)
    if not 0 < scale < math.inf:
        raise IllConditionedError(
            f"Jacobian norm is {scale}: the matrix is zero or not finite")
    unscale = vols * scale
    lam2 = cfg.lam ** 2
    if cfg.prior == "tikhonov":
        def solve(u):
            return u / lam2
    else:
        s = (lam2 * smoothness_prior(mesh, cfg.prior)).tocsc()
        solve = _factor_spd(s, IllConditionedError).solve
    g = np.eye(n_meas)
    z = np.empty((avg.shape[0], n_meas))
    for b in blocks:
        # the transpose of a row block is Fortran-ordered, as SuperLU wants
        w = solve((jmat[b] / unscale).T)
        w /= unscale[:, None]
        g[:, b] += jmat @ w
        z[:, b] = avg @ w
    g = 0.5 * (g + g.T)
    try:
        cho = cho_factor(g, lower=True)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(
            f"regularized normal matrix is not positive definite: {exc}") from exc
    # z.T is Fortran-ordered, so the solve overwrites it in place
    r = cho_solve(cho, z.T, overwrite_b=True).T
    if not np.all(np.isfinite(r)):
        raise IllConditionedError("reconstruction matrix has non-finite entries")
    return ReconstructionMatrix(matrix=r, mesh_id=jac.mesh_id,
                                schedule_id=jac.schedule_id, config=cfg)


def _averaging_map(mesh: Mesh) -> csr_matrix:
    """Sparse nodes-by-elements map to the volume-weighted mean of the
    elements incident to each node; a node in no element maps to zero."""
    flat = mesh.tets.ravel()
    weights = np.repeat(mesh.volumes, 4)
    wsum = np.bincount(flat, weights=weights, minlength=mesh.n_nodes)
    cols = np.repeat(np.arange(mesh.n_elements), 4)
    return csr_matrix((weights / wsum[flat], (flat, cols)),
                      shape=(mesh.n_nodes, mesh.n_elements))


def element_to_nodal(values: np.ndarray, mesh: Mesh) -> np.ndarray:
    """Volume-weighted mean of the elements incident to each node."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (mesh.n_elements,):
        raise DimensionError(
            f"image has {values.shape} entries, mesh has {mesh.n_elements} elements")
    return _averaging_map(mesh) @ values


def reconstruct_gn(rmat: ReconstructionMatrix, dv, mesh: Mesh) -> np.ndarray:
    """Nodal conductivity-change image from a voltage difference."""
    if rmat.mesh_id != mesh.mesh_id:
        raise ProvenanceError("reconstruction matrix belongs to a different mesh")
    if isinstance(dv, VoltageFrame):
        if dv.schedule_id != rmat.schedule_id:
            raise ProvenanceError("frame schedule does not match the matrix")
        values = dv.values
    else:
        values = np.asarray(dv, dtype=np.float64)
    if values.shape != (rmat.matrix.shape[1],):
        raise DimensionError("voltage difference length does not match the matrix")
    return rmat.matrix @ values
