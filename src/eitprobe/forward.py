"""Complete-electrode-model forward solver and sensitivity computation.

The unknowns are the nodal potentials plus one potential per electrode.
Contact impedance couples electrode potentials to the boundary through the
patch faces. The assembled system is symmetric positive semidefinite with a
one-dimensional constant nullspace, removed by grounding one mesh node. The
reduced system is symmetric positive definite; it is Cholesky-factorized
once per conductivity, and the factor is reused across every injection.

The factorization keeps the mesh's own order. ``build_mesh`` numbers nodes
layer by layer and ring by ring, so the numbers of two coupled nodes differ
by at most one layer plus two rings less one (a ring's last cell wraps
round to its first node): 127 on the tiny test meshes and 287 on the desk
generation mesh. The solve order (``CemPattern.order``) drops node 0, the
ground, and puts each electrode's unknown at the middle of its patch's
node numbers, so the whole grounded system is banded, with a half-bandwidth
b of the node span plus one layer's electrodes: 135 tiny, 295 desk. It is
held in LAPACK's lower band storage and factored by LAPACK's band Cholesky
``dpbtrf``, which runs level-3 BLAS inside the band. The sweeps through the
factor run level-3 BLAS too: they take the factor in blocks of b rows, each
a ``dtrsm`` and a ``dtrmm`` on all right-hand sides at once, read in place
from the band storage as LAPACK's own ``dpbtrf`` reads it. The factor costs
about n b^2 flops for n unknowns and holds (b + 1) n doubles, 16 MB on the
desk generation mesh; each right-hand side costs about 4 n b more.

Assembly computes per call only the values that scale with the
conductivity or the contact impedance. The CSC structure, the CSC position
of every entry, the element kernels grad phi_i . grad phi_j, the electrode
terms at unit admittance and the connectivity verdict are computed once
per mesh and held by it (``Mesh.cem_pattern``). A call scatters the
entries onto their positions in one fixed order, so each position is a
sequential sum in pattern order and the matrix is exactly symmetric; no
sparse format is converted. The structure is the same for every
conductivity, structural zeros included.

Voltages scale linearly with injected current and, when conductivity and
interface conductance are scaled together, inversely with the conductivity
scale.

The Jacobian is held on the measurements' independent coordinates
(``Jacobian``). By reciprocity twin measurements share one sensitivity
row, and by Kirchhoff's voltage law the measurements of each cycle of a
drive's retained pairs sum to zero, at any conductivity. So the adjacent
schedule's 928 measurements have 464 distinct rows, which span only 374
coordinates. The relations come from the schedule's measurement graphs
(``_kirchhoff_relations``), the orthonormal basis of what they allow from
one SVD per block of rows that they link (``_basis_blocks``), and
``compute_jacobian`` projects the distinct rows onto that basis block by
block as it computes them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.linalg import null_space
from scipy.linalg.blas import dtrmm, dtrsm
from scipy.linalg.lapack import dpbtrf
from scipy.sparse import coo_matrix, csc_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import DimensionError, SingularSystemError, SolverError
from .ioutil import hash_of
from .mesh import Mesh, TankGeometry

DEFAULT_AMPLITUDE = 5e-6
DEFAULT_CONTACT_IMPEDANCE = 0.01
_RESIDUAL_RTOL = 1e-10
# Threads that GN's matrix build and PDIPM's CG operator share their dense
# work over: one per core, at most two. BLAS itself runs on one thread, and
# each pool splits its work the same way for any count, so the count moves
# no bit of an image
_WORKERS = min(2, (len(os.sched_getaffinity(0))
                   if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1))


@dataclass(frozen=True)
class StimPattern:
    """Current injection protocol: one adjacent same-ring pair at a time."""

    amplitude: float = DEFAULT_AMPLITUDE

    def __post_init__(self) -> None:
        if not (self.amplitude > 0 and math.isfinite(self.amplitude)):
            raise ValueError("amplitude must be positive and finite")


@dataclass(eq=False)
class MeasurementSchedule:
    """Adjacent-pair drive/measure schedule.

    ``pairs[p] = (plus, minus)`` enumerates the adjacent same-ring electrode
    pairs; the same enumeration serves as injection list and measurement
    list. For each injection, the pairs sharing an electrode with the drive
    pair are dropped and the rest retained in ascending pair order.
    """

    pairs: np.ndarray              # (n_pairs, 2) electrode indices
    retained: np.ndarray           # (n_pairs, n_retained) measurement pair ids
    electrode_layer: np.ndarray    # (n_electrodes,)
    electrode_azimuth: np.ndarray  # (n_electrodes,)

    @property
    def n_injections(self) -> int:
        return self.pairs.shape[0]

    @property
    def n_retained(self) -> int:
        return self.retained.shape[1]

    @property
    def n_measurements(self) -> int:
        return self.n_injections * self.n_retained

    @cached_property
    def schedule_id(self) -> str:
        return hash_of({
            "pairs": self.pairs.tolist(),
            "retained": self.retained.tolist(),
            "layer": self.electrode_layer.tolist(),
            "azimuth": self.electrode_azimuth.tolist(),
        })

    @cached_property
    def pair_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(drive, measured): the drive and the measured pair id of every
        measurement, injection-major with the retained pairs in order. This
        is the one place the measurement order is decided."""
        drive = np.repeat(np.arange(self.n_injections), self.n_retained)
        return drive, self.retained.ravel()

    @cached_property
    def rows(self) -> np.ndarray:
        """(n_measurements, 3) int: injection, meas_plus, meas_minus."""
        drive, meas = self.pair_index
        return np.column_stack([drive, self.pairs[meas]])


def adjacent_schedule(geom: TankGeometry) -> MeasurementSchedule:
    """Build the adjacent-pair schedule for a probe geometry."""
    epl = geom.electrodes_per_layer
    n_el = geom.layers * epl
    pairs = []
    for layer in range(geom.layers):
        base = layer * epl
        for j in range(epl):
            pairs.append((base + j, base + (j + 1) % epl))
    pairs = np.asarray(pairs, dtype=np.int64)
    n_pairs = pairs.shape[0]
    retained = []
    for d in range(n_pairs):
        drive = set(pairs[d])
        keep = [p for p in range(n_pairs) if not (drive & set(pairs[p]))]
        retained.append(keep)
    lengths = {len(k) for k in retained}
    if len(lengths) != 1:
        raise ValueError("schedule retention is not uniform across injections")
    retained = np.asarray(retained, dtype=np.int64)
    layer = np.repeat(np.arange(geom.layers), epl)
    azimuth = np.array([geom.electrode_azimuth(e) for e in range(n_el)])
    return MeasurementSchedule(pairs=pairs, retained=retained,
                               electrode_layer=layer, electrode_azimuth=azimuth)


@dataclass(eq=False)
class VoltageFrame:
    """One full sweep of differential measurements (injection-major order)."""

    values: np.ndarray
    schedule_id: str


def check_conductivity(mesh: Mesh, sigma: np.ndarray) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.shape != (mesh.n_elements,):
        raise DimensionError(
            f"conductivity has {sigma.shape} entries, mesh has "
            f"{mesh.n_elements} elements")
    if not np.all(np.isfinite(sigma)) or np.any(sigma <= 0):
        raise ValueError("conductivity must be positive and finite everywhere")
    return sigma


def homogeneous_field(mesh: Mesh, value: float) -> np.ndarray:
    return np.full(mesh.n_elements, float(value))


def _band_sweep(band: np.ndarray, y: np.ndarray,
                trans: bool = False) -> np.ndarray:
    """L^-1 y, or L'^-1 y with ``trans``, for the lower band factor L that
    ``band`` holds in LAPACK's band storage, in blocks of b rows.

    With the band in Fortran order, L[r, c] sits at flat offset r + c b,
    so any window of L inside the band is a column-major matrix of leading
    dimension b; ``window`` views it without a copy. The diagonal block of
    a block row is lower triangular, inside the band, and goes to
    ``dtrsm``; the block left of it, L[r:r+p, r-b:r], is inside the band
    on and above its diagonal, an upper triangle T that goes to ``dtrmm``,
    then, when a last block is short (p < b), a rectangle R of p by b - p
    for a dense product. The positions of those windows outside the band
    alias other entries of the factor; they lie only in the triangle that
    ``dtrsm`` and ``dtrmm`` leave unread. ``dtrmm`` multiplies from the
    right, on the transposed right-hand sides: OpenBLAS's left-side
    ``dtrmm`` rounds a triangle's last rows differently on one thread and
    on two, the right-side one does not. The forward sweep starts at the
    block of the first nonzero row of ``y``; the rows above it stay zero.
    """
    b, m = band.shape[0] - 1, band.shape[1]
    flat = band.ravel(order="F")

    def window(r: int, c: int, rows: int, cols: int) -> np.ndarray:
        # np.ndarray checks that the window lies inside the buffer
        return np.ndarray((rows, cols), buffer=flat, offset=8 * (r + c * b),
                          strides=(8, 8 * b))

    x = np.zeros(y.shape, order="F")
    if trans:
        for r in range((m - 1) // b * b, -1, -b):
            rhs = np.array(y[r:r + b], order="F")
            p = len(rhs)
            if r + p < m:
                q = min(b, m - r - b)
                below = x[r + b:r + b + q]
                rhs[:q] -= dtrmm(1.0, window(r + b, r, q, q), below.T,
                                 side=1).T
                rhs[q:] -= window(r + b, r + q, q, b - q).T @ below
            x[r:r + p] = dtrsm(1.0, window(r, r, p, p), rhs, lower=1,
                               trans_a=1, overwrite_b=1)
        return x
    nonzero = np.flatnonzero(y.any(axis=1))
    if nonzero.size == 0:
        return x
    start = nonzero[0] // b * b
    for r in range(start, m, b):
        rhs = np.array(y[r:r + b], order="F")
        p = len(rhs)
        if r > start:
            left = x[r - b:r]
            rhs -= dtrmm(1.0, window(r, r - b, p, p), left[:p].T, side=1,
                         trans_a=1).T
            rhs -= window(r, r - b + p, p, b - p) @ left[p:]
        x[r:r + p] = dtrsm(1.0, window(r, r, p, p), rhs, lower=1,
                           overwrite_b=1)
    return x


@dataclass(eq=False)
class SparseSystem:
    """Assembled CEM system for one conductivity field. ``matrix`` is in
    canonical CSC form and shares its structure with every system on the
    mesh (``Mesh.cem_pattern``). Node 0 is the ground: its potential is
    fixed at zero, and the system solved is the matrix less its first row
    and column, taken in the mesh's solve order (``CemPattern.order``).
    On the first solve it is factored by one LAPACK band Cholesky: about
    n b^2 flops and (b + 1) n doubles for n unknowns and half-bandwidth b;
    each solve sweeps all its right-hand sides through the band in blocks
    of b rows."""

    mesh: Mesh
    matrix: csc_matrix           # full (n_nodes + n_el) square, symmetric

    @property
    def n_nodes(self) -> int:
        return self.mesh.n_nodes

    @cached_property
    def _factor(self) -> np.ndarray:
        """The Cholesky factor L in LAPACK's lower band storage, in solve
        order: entry (r, c), for 0 <= r - c <= b, sits at ``band[r - c, c]``.
        The band is the lower triangle of the grounded matrix, permuted and
        scattered straight from the CSC; ``dpbtrf`` factors it in place,
        blocked so that the work inside the band is level-3 BLAS. A pivot
        that is not positive raises SingularSystemError naming its
        unknown."""
        order = self.mesh.cem_pattern.order
        position = np.full(self.matrix.shape[0], -1)     # the ground: none
        position[order] = np.arange(order.size)
        rows = position[self.matrix.indices]
        cols = np.repeat(position, np.diff(self.matrix.indptr))
        lower = (rows >= cols) & (cols >= 0)
        rows, cols = rows[lower], cols[lower]
        band = np.zeros((int((rows - cols).max(initial=0)) + 1, order.size),
                        order="F")
        band[rows - cols, cols] = self.matrix.data[lower]
        band, info = dpbtrf(band, lower=1, overwrite_ab=1)
        if info < 0:
            raise SolverError(f"dpbtrf rejected its argument {-info}")
        if info > 0:
            unknown = order[info - 1]
            name = (f"node {unknown}" if unknown < self.n_nodes
                    else f"electrode {unknown - self.n_nodes}")
            raise SingularSystemError(
                f"factorization failed: the pivot of {name} is not "
                f"positive (LAPACK info {info})")
        return band

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for the right-hand sides in the columns of ``rhs``; node 0,
        the ground, is held at zero and its row of ``rhs`` is not read.
        Raises SolverError on a residual miss."""
        b = np.asarray(rhs, dtype=np.float64)
        if b.ndim != 2 or b.shape[0] != self.matrix.shape[0]:
            raise DimensionError(f"right-hand sides must be a matrix of "
                                 f"{self.matrix.shape[0]}-row columns, not {b.shape}")
        order, band = self.mesh.cem_pattern.order, self._factor
        x = np.zeros_like(b)
        x[order] = _band_sweep(band, _band_sweep(band, b[order]), True)
        if not np.all(np.isfinite(x)):
            raise SingularSystemError("solve produced non-finite values")
        # x[0] = 0, so these rows are exactly the grounded residual
        resid = (self.matrix @ x - b)[1:]
        scale = np.linalg.norm(b[1:], axis=0)
        # zero rhs columns trivially give zero solutions and are exempt
        rel = np.linalg.norm(resid, axis=0) / np.maximum(scale, 1e-300)
        if not np.all((rel <= _RESIDUAL_RTOL) | (scale == 0)):
            raise SolverError(
                f"relative residual {float(rel.max()):.3e} exceeds {_RESIDUAL_RTOL}")
        return x

    def electrode_currents(self, solution: np.ndarray) -> np.ndarray:
        """Currents actually flowing through each electrode for a solution
        (columns of the full potential vector)."""
        flux = self.matrix @ solution
        return flux[self.n_nodes:]


def assemble_system(mesh: Mesh, sigma: np.ndarray,
                    contact_impedance: float = DEFAULT_CONTACT_IMPEDANCE,
                    ) -> SparseSystem:
    """Assemble the CEM system for a per-element conductivity field.

    Only the values that depend on ``sigma`` and the contact impedance are
    computed here; the sparsity, the element kernels, the electrode terms
    at unit admittance and the connectivity come from ``mesh.cem_pattern``.
    """
    sigma = check_conductivity(mesh, sigma)
    if not (contact_impedance > 0 and math.isfinite(contact_impedance)):
        raise ValueError("contact impedance must be positive and finite")
    pat = mesh.cem_pattern
    if pat.n_components != 1:
        raise SingularSystemError(
            f"system graph has {pat.n_components} components; grounding one "
            "dof cannot fix the potential everywhere")
    size = mesh.n_nodes + mesh.n_electrodes
    ke = pat.kernels * (sigma * mesh.volumes)[:, None, None]
    vals = np.concatenate([ke.ravel(),
                           pat.electrode_values / contact_impedance])
    data = np.bincount(pat.slot, weights=vals, minlength=pat.indices.size)
    full = csc_matrix((data, pat.indices, pat.indptr), shape=(size, size))

    # the ground is mesh node 0, not an electrode: that keeps every
    # electrode equation inside the reduced system, so computed electrode
    # currents satisfy conservation to the solver residual rather than to
    # the (looser) assembly column-sum noise
    return SparseSystem(mesh=mesh, matrix=full)


def _injection_rhs(system: SparseSystem, schedule: MeasurementSchedule,
                   amplitude: float) -> np.ndarray:
    n = system.n_nodes
    rhs = np.zeros((system.matrix.shape[0], schedule.n_injections))
    for d in range(schedule.n_injections):
        rhs[n + schedule.pairs[d, 0], d] = amplitude
        rhs[n + schedule.pairs[d, 1], d] = -amplitude
    return rhs


def solve_injections(system: SparseSystem, schedule: MeasurementSchedule,
                     amplitude: float = 1.0) -> np.ndarray:
    """Full potential vectors for every injection (columns)."""
    rhs = _injection_rhs(system, schedule, amplitude)
    return system.solve(rhs)


def solve_forward(system: SparseSystem, pattern: StimPattern,
                  schedule: MeasurementSchedule) -> VoltageFrame:
    """Differential voltages for the whole schedule."""
    sols = solve_injections(system, schedule, pattern.amplitude)
    u_el = sols[system.n_nodes:, :]
    rows = schedule.rows
    values = u_el[rows[:, 1], rows[:, 0]] - u_el[rows[:, 2], rows[:, 0]]
    return VoltageFrame(values=values, schedule_id=schedule.schedule_id)


@dataclass(eq=False)
class Jacobian:
    """Sensitivity of the retained measurements to each element's
    conductivity, evaluated at the linearization field, on a basis of the
    measurements' independent coordinates.

    By reciprocity, drive pair d measured on pair p has the same
    sensitivity row as drive p measured on d: both are the element-wise
    product of the two pairs' unit-current field gradients. So the full
    Jacobian is J = P Jd for the distinct rows Jd, numbered by
    ``row_index`` (one entry per measurement in schedule order), and the
    expansion P with P'P = C = diag(``counts``) (2 for a reciprocal twin, 1
    for a row whose twin the schedule does not retain). By Kirchhoff's
    voltage law, C^1/2 Jd also satisfies every relation of
    ``_kirchhoff_relations`` weighted by C^-1/2, so it lies in the span of
    ``basis``, the orthonormal N of ``_basis_blocks``. ``matrix`` holds
    B = N' C^1/2 Jd, one row per independent coordinate: 374 rows for the
    adjacent schedule's 464 distinct rows and 928 measurements. It is not
    J: the distinct rows are N B / sqrt(counts), and J is those rows
    expanded by ``row_index``. The columns of P C^-1/2 N are orthonormal,
    so J'J = B'B, and J'dv = B' d for the coordinates d of dv
    (``coordinates``)."""

    matrix: np.ndarray       # (n_basis, n_elements) B
    basis: np.ndarray        # (n_distinct, n_basis) N, orthonormal columns
    row_index: np.ndarray    # (n_measurements,) int distinct rows
    mesh_id: str
    schedule_id: str

    @cached_property
    def counts(self) -> np.ndarray:
        return np.bincount(self.row_index, minlength=self.basis.shape[0])

    @property
    def coordinates(self) -> np.ndarray:
        """N' C^-1/2, (n_basis, n_distinct): maps a voltage difference
        folded onto the distinct rows (``_fold_twins``) to its coordinates
        on the rows of ``matrix``."""
        return self.basis.T / np.sqrt(self.counts)


def _fold_twins(row_index: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-measurement values summed onto their distinct Jacobian rows."""
    return np.bincount(row_index, weights=values)


def _reciprocal_rows(schedule: MeasurementSchedule,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Distinct sensitivity rows of a schedule, each the unordered pair
    {drive, measurement pair}, numbered in order of first use. Returns the
    schedule position of each row's first use and, per measurement, the
    number of its row."""
    drive, meas = schedule.pair_index
    key = (np.minimum(drive, meas) * schedule.n_injections
           + np.maximum(drive, meas))
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(order.size)
    return first[order], number[inverse]


def _kirchhoff_relations(schedule: MeasurementSchedule,
                         row_index: np.ndarray) -> np.ndarray:
    """Kirchhoff's voltage law on the distinct rows: one relation per row,
    (n_relations, n_distinct), each of unit norm.

    A drive's retained measurements are differences of electrode
    potentials, so a vector y with y'A = 0, for the incidence matrix A of
    the retained pairs (+1 at a pair's plus electrode, -1 at its minus),
    sums them to zero at any conductivity. Those y span the cycles of the
    drive's measurement graph, whose edges are the retained pairs; they are
    taken one connected part of the graph at a time, so that each relation
    stays on one cycle set (on the adjacent schedule, one whole ring the
    drive does not touch). Each is then folded onto the distinct rows."""
    n_el, n_ret = schedule.electrode_layer.size, schedule.n_retained
    n_rows = row_index.max(initial=-1) + 1
    relations = []
    for d, ret in enumerate(schedule.retained):
        plus, minus = schedule.pairs[ret].T
        graph = coo_matrix((np.ones(n_ret), (plus, minus)), shape=(n_el, n_el))
        part = connected_components(graph, directed=False)[1][plus]
        rows = row_index[d * n_ret:(d + 1) * n_ret]
        for p in np.unique(part):
            edges = np.flatnonzero(part == p)
            inc = np.zeros((edges.size, n_el))
            inc[np.arange(edges.size), plus[edges]] = 1.0
            inc[np.arange(edges.size), minus[edges]] = -1.0
            for y in null_space(inc.T).T:
                rel = np.zeros(n_rows)
                rel[rows[edges]] = y    # a drive's rows are all distinct
                relations.append(rel)
    return np.reshape(relations, (len(relations), n_rows))


def _basis_blocks(schedule: MeasurementSchedule, row_index: np.ndarray,
                  ) -> list[tuple[np.ndarray, np.ndarray]]:
    """The orthonormal basis N of the distinct-row vectors that satisfy
    every Kirchhoff relation weighted by C^-1/2, block by block. Two rows
    belong to one block when a chain of relations links them; each block
    is its rows S, ascending, and N_S, an orthonormal basis of the null
    space of the block's weighted relations, by one SVD. Blocks come in
    order of their first row, and a row that no relation touches is a
    block of its own with N_S = [[1]]. On the adjacent schedule there are
    86 blocks: 80 same-ring rows, and six cross-ring blocks of 64 rows, 49
    of whose dimensions survive (each block's 16 relations have rank 15).
    A schedule with no cycle has N = I."""
    weighted = (_kirchhoff_relations(schedule, row_index)
                / np.sqrt(np.bincount(row_index)))
    link = csr_matrix(weighted != 0)
    _, block = connected_components(link.T @ link, directed=False)
    _, starts = np.unique(block, return_index=True)
    blocks = []
    for start in np.sort(starts):
        rows = np.flatnonzero(block == block[start])
        touching = weighted[:, rows]
        touching = touching[touching.any(axis=1)]
        blocks.append((rows, null_space(touching) if touching.size
                       else np.eye(rows.size)))
    return blocks


def _unit_gradients(mesh: Mesh, sigma: np.ndarray,
                    schedule: MeasurementSchedule) -> np.ndarray:
    """(P, 3, M): the field gradient of each drive pair's unit-current
    solution in each element. Each gradient component of each solution is
    one contiguous row, so products of them run over unit-stride rows."""
    system = assemble_system(mesh, sigma)
    sols = solve_injections(system, schedule, 1.0)
    w = sols[:mesh.n_nodes, :][mesh.tets, :]                 # (M, 4, P)
    ge = np.einsum("mfp,mfk->mpk", w, mesh.shape_gradients)  # (M, P, 3)
    return np.ascontiguousarray(ge.transpose(1, 2, 0))


def _distinct_rows(g: np.ndarray, drive: np.ndarray, meas: np.ndarray,
                   weight: np.ndarray) -> np.ndarray:
    """The distinct Jacobian rows of drive pairs ``drive`` measured on
    pairs ``meas``: the element-wise dot product of the two pairs'
    gradients in ``g``, times ``weight`` per element. Each run of rows
    with one drive is computed as one block."""
    out = np.empty((drive.size, g.shape[2]))
    edges = [0, *(np.flatnonzero(np.diff(drive)) + 1), drive.size]
    for lo, hi in zip(edges[:-1], edges[1:]):
        d, ret, block = drive[lo], meas[lo:hi], out[lo:hi]
        np.multiply(g[ret, 0], g[d, 0], out=block)
        block += g[ret, 1] * g[d, 1]
        block += g[ret, 2] * g[d, 2]
    out *= weight[None, :]
    return out


def compute_jacobian(mesh: Mesh, sigma: np.ndarray,
                     pattern: StimPattern, schedule: MeasurementSchedule,
                     ) -> Jacobian:
    """Adjoint-method Jacobian on the independent coordinates: one solve
    per pattern, combined per element.

    Because the injection and measurement pairs coincide, the 32
    unit-current solutions serve both roles and every row follows from
    element-wise products of their gradients. Only the first use of each
    reciprocal row is computed, and the rows are computed one basis block
    at a time and projected as they go: B_S = (C_S^1/2 N_S)' Jd[S]. So the
    distinct rows, 464 for the adjacent schedule, are never held at once
    beside the 374 of B; there a block holds at most 64 of them. Products
    commute exactly, so ``_distinct_rows`` gives the same bits as the
    matrix computed one row per measurement.
    """
    g = _unit_gradients(mesh, sigma, schedule)
    first, row_index = _reciprocal_rows(schedule)
    drive, meas = (a[first] for a in schedule.pair_index)
    weight = -pattern.amplitude * mesh.volumes
    root = np.sqrt(np.bincount(row_index))
    blocks = _basis_blocks(schedule, row_index)
    basis = np.zeros((first.size, sum(n.shape[1] for _, n in blocks)))
    out = np.empty((basis.shape[1], mesh.n_elements))
    k = 0
    for rows, n in blocks:
        cols = slice(k, k + n.shape[1])
        basis[rows, cols] = n
        np.matmul((root[rows, None] * n).T,
                  _distinct_rows(g, drive[rows], meas[rows], weight),
                  out=out[cols])
        k = cols.stop
    return Jacobian(matrix=out, basis=basis, row_index=row_index,
                    mesh_id=mesh.mesh_id, schedule_id=schedule.schedule_id)


# --- frame persistence -------------------------------------------------------

FRAME_HEADER = ["injection", "meas_plus", "meas_minus", "volts"]


def write_frame_csv(frame: VoltageFrame, schedule: MeasurementSchedule,
                    path: str | Path) -> None:
    """Write a frame as CSV: the header, then one row per measurement with
    its schedule columns and the shortest repr of its value, CRLF line
    ends. A dataset stores its reference frame this way (``v_ref.csv``)."""
    if frame.values.shape[0] != schedule.n_measurements:
        raise DimensionError("frame length does not match schedule")
    lines = [f"{d},{p},{m},{v!r}" for (d, p, m), v in
             zip(schedule.rows.tolist(), frame.values.tolist())]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([",".join(FRAME_HEADER), *lines, ""]))
