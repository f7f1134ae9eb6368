"""One-step Gauss-Newton difference imaging through a precomputed matrix.

Building the reconstruction matrix R is the expensive phase; applying it to
a folded voltage difference is one matrix-vector product that yields the
nodal conductivity change directly, because the volume-weighted averaging
from elements to nodes is folded into R. The Jacobian columns are scaled by
element volume to undo the grading bias of the mesh, the normal equations
are regularized by a smoothness prior, and the solve uses the push-through
identity

    (U U' + S)^-1 U = S^-1 U (I + U' S^-1 U)^-1

so only the sparse prior S and a dense block over the measurements are
ever factorized; an element-by-element dense matrix is never formed. Both
are SPD: the dense block is Cholesky-factorized, and S is factorized by
SuperLU in symmetric mode with diagonal pivoting (``_factor_spd``). S is the
package's only SuperLU system: S couples elements across faces, with no
narrow band at hand, while the forward solver factors each CEM system,
banded by the mesh's layer order, with LAPACK's band Cholesky
(``forward.SparseSystem``).

The Jacobian is held on its independent rows B = N' C^1/2 Jd (see
``forward.Jacobian``): J = E B for E = P C^-1/2 N, with Jd the distinct
rows, P the measurement-to-row expansion, C = P'P = diag(counts) and N the
orthonormal basis of what Kirchhoff's law allows. E has orthonormal
columns, so J'J = B'B and J'dv = B' N' C^-1/2 P'dv, and

    (J'J + S)^-1 J' = S^-1 B' (I + B S^-1 B')^-1 N' C^-1/2 P'

where P' folds the measurements, summing twins onto their distinct row.
So the dense block is sized by the independent rows, 374 for the adjacent
schedule's 928 measurements, with identity data weights, and each of its
rows is one sparse solve. The build ends by mapping R through N' C^-1/2,
after the prior's factor is released, so R keeps one column per distinct
row (464) and applies to the folded voltages. The solves are streamed in
column blocks, so the build holds B, the prior's factor, the 374-by-374
block, the nodes-by-374 Z and, per block in flight, about three
elements-by-block arrays: the right-hand side, the solution and SuperLU's
work array; R, nodes by 464, is formed after the factor is gone. A
solve's cost per column falls with the block width up to 16 and no
further (``_BLOCK_COLUMNS``).

The blocks do not depend on one another, and SuperLU's solve and BLAS both
release the GIL, so a pool of at most two threads runs them concurrently.
Each block's solution fills its own columns of Z and of the dense block,
the latter only at and below the diagonal: the block is symmetric, so its
upper triangle is mirrored from the lower one and half the product is
skipped. The in-flight working set is workers x width x three
element-length arrays, and peak memory grows with it; two workers of 16
columns hold 32 columns, the width that one worker used alone, so the
solves spread over two cores at the same peak. Every block is computed by
the same operations whatever the number of workers, so R is bitwise the
same on any machine.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse import csc_matrix, csr_matrix
from scipy.sparse import identity as speye
from scipy.sparse.linalg import splu

from .errors import DimensionError, IllConditionedError, ProvenanceError
from .forward import _WORKERS, Jacobian, _fold_twins
from .ioutil import hash_of
from .mesh import Mesh

DEFAULT_LAMBDA = 0.03
_PRIOR_RIDGE = 1e-8
# Jacobian rows per solve block of the matrix build. The working set is
# ``_WORKERS`` x width x three element-length arrays (3.6 MB each on the
# desk mesh at 16), and peak memory grows with it. A solve's cost per
# column falls up to 16 and no further: on the desk prior factor with one
# BLAS thread, three timings of SuperLU's solve read 11-14 ms per column at
# width 1, 6-8 at 4, 5-7 at 8, 4.5-5.3 at 16, 4.4-4.8 at 32 and 5-6 at 64.
# So two workers of 16 hold 32 columns at about the fastest width
_BLOCK_COLUMNS = 16


@dataclass(frozen=True)
class GnConfig:
    """Regularization weight, against normalized operators. The
    linearization point is the conductivity the Jacobian was computed at."""

    lam: float = DEFAULT_LAMBDA

    def __post_init__(self) -> None:
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValueError("lam must be positive and finite")


@dataclass(eq=False)
class ReconstructionMatrix:
    """Dense nodes-by-distinct-rows map from a voltage difference, folded
    onto the Jacobian's distinct rows by ``row_index``, to the nodal
    conductivity change, tied to the mesh and schedule it was built for."""

    matrix: np.ndarray
    row_index: np.ndarray
    mesh_id: str
    schedule_id: str
    config: GnConfig

    @cached_property
    def config_hash(self) -> str:
        return hash_of(asdict(self.config))


def _factor_spd(matrix: csc_matrix, error: type[Exception]):
    """SuperLU factor of a sparse SPD matrix in symmetric mode: minimum
    degree ordering on A'+A and diagonal pivots, so no row is swapped and
    the fill stays that of the ordering. A zero pivot raises ``error``."""
    try:
        return splu(matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise error(f"sparse SPD factorization failed: {exc}") from exc


def smoothness_prior(mesh: Mesh):
    """Sparse SPD prior: the face-weighted graph Laplacian L'L of the
    element adjacency (L = ``mesh.face_difference``) normalized to unit mean
    diagonal plus a small ridge that removes the constant nullspace."""
    n = mesh.n_elements
    lop = mesh.face_difference
    lap = (lop.T @ lop).tocsc()
    lap = lap * (n / lap.diagonal().sum())
    return (lap + _PRIOR_RIDGE * speye(n, format="csc")).tocsc()


def build_reconstruction_matrix(jac: Jacobian, mesh: Mesh,
                                cfg: GnConfig) -> ReconstructionMatrix:
    """Nodal one-step GN matrix: ``reconstruct_gn`` applies it as is."""
    return _build(jac, mesh, cfg, mesh.averaging_map)


def _build(jac: Jacobian, mesh: Mesh, cfg: GnConfig,
           avg: csr_matrix) -> ReconstructionMatrix:
    """R = avg V^-1 W (I + U' W)^-1 N' C^-1/2 / scale on the distinct rows,
    with U = (B V^-1 / scale)', W = S^-1 U, V = diag(volumes), B the
    Jacobian's independent rows and N' C^-1/2 their ``coordinates``. U and
    W are formed one column block at a time."""
    if jac.mesh_id != mesh.mesh_id:
        raise ProvenanceError("Jacobian was computed on a different mesh")
    jmat = jac.matrix
    n_rows, n_meas = jmat.shape[0], jac.row_index.size
    vols = mesh.volumes
    # sensitivity entries grow with element volume; dividing the columns by
    # volume puts coarse far elements and fine near elements on one scale.
    # B'B = J'J, so this is the mean square of J's rows per measurement
    sq = np.einsum("ij,ij,j->", jmat, jmat, vols ** -2.0)
    scale = math.sqrt(sq / n_meas)
    if not 0 < scale < math.inf:
        raise IllConditionedError(
            f"Jacobian norm is {scale}: the matrix is zero or not finite")
    unscale = vols * scale
    s = _factor_spd((cfg.lam ** 2 * smoothness_prior(mesh)).tocsc(),
                    IllConditionedError)
    k = np.empty((n_rows, n_rows))
    z = np.empty((avg.shape[0], n_rows))

    def solve_block(i: int) -> None:
        # runs in a worker, so it touches only SuperLU, numpy and its own
        # columns: every cached property it needs is resolved above (on
        # Python 3.11 computing one holds a class-wide lock), and it calls
        # no public eitprobe function, which a single-threaded tracer may wrap
        b = slice(i, i + _BLOCK_COLUMNS)
        # the transpose of a row block is Fortran-ordered, as SuperLU wants
        w = s.solve((jmat[b] / unscale).T)
        w /= unscale[:, None]
        k[i:, b] = jmat[i:] @ w
        z[:, b] = avg @ w

    with ThreadPoolExecutor(_WORKERS) as pool:
        # list() waits for every block and re-raises the first failure
        list(pool.map(solve_block, range(0, n_rows, _BLOCK_COLUMNS)))
    # only the blocks at and below the diagonal were formed; mirroring the
    # strict lower triangle makes g exactly symmetric
    low = np.tril(k, -1)
    g = low + low.T
    g.flat[::n_rows + 1] = k.diagonal() + 1.0
    # the back map holds R beside Z: the prior's factor and k go first
    del s, k, low
    try:
        # g.T is g, Fortran-ordered: the factorization overwrites it in place
        cho = cho_factor(g.T, lower=True, overwrite_a=True)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(
            f"regularized normal matrix is not positive definite: {exc}") from exc
    r = z @ cho_solve(cho, jac.coordinates)
    if not np.all(np.isfinite(r)):
        raise IllConditionedError("reconstruction matrix has non-finite entries")
    return ReconstructionMatrix(matrix=r, row_index=jac.row_index,
                                mesh_id=jac.mesh_id,
                                schedule_id=jac.schedule_id, config=cfg)


def element_to_nodal(values: np.ndarray, mesh: Mesh) -> np.ndarray:
    """Volume-weighted mean of the elements incident to each node."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (mesh.n_elements,):
        raise DimensionError(
            f"image has {values.shape} entries, mesh has {mesh.n_elements} elements")
    return mesh.averaging_map @ values


def reconstruct_gn(rmat: ReconstructionMatrix, dv: np.ndarray,
                  mesh: Mesh) -> np.ndarray:
    """Nodal conductivity-change image from a voltage-difference array."""
    if rmat.mesh_id != mesh.mesh_id:
        raise ProvenanceError("reconstruction matrix belongs to a different mesh")
    values = np.asarray(dv, dtype=np.float64)
    if values.shape != rmat.row_index.shape:
        raise DimensionError("voltage difference length does not match the matrix")
    if not np.all(np.isfinite(values)):
        raise ValueError("dv must be finite everywhere")
    return rmat.matrix @ _fold_twins(rmat.row_index, values)
