"""Complete-electrode-model forward solver and sensitivity computation.

The unknowns are the nodal potentials plus one potential per electrode.
Contact impedance couples electrode potentials to the boundary through the
patch faces. The assembled system is symmetric positive semidefinite with a
one-dimensional constant nullspace, removed by grounding one mesh node. The
reduced system is symmetric positive definite; it is factorized once per
conductivity, in SuperLU's symmetric mode with diagonal pivoting, and the
factor is reused across every injection.

Voltages scale linearly with injected current and, when conductivity and
interface conductance are scaled together, inversely with the conductivity
scale.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix, csc_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .errors import DimensionError, SingularSystemError, SolverError
from .ioutil import hash_of
from .mesh import Mesh, TankGeometry

DEFAULT_AMPLITUDE = 5e-6
DEFAULT_CONTACT_IMPEDANCE = 0.01
_RESIDUAL_RTOL = 1e-10


@dataclass(frozen=True)
class StimPattern:
    """Current injection protocol: one adjacent same-ring pair at a time."""

    amplitude: float = DEFAULT_AMPLITUDE

    def validate(self) -> None:
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
    def rows(self) -> np.ndarray:
        """(n_measurements, 3) int: injection, meas_plus, meas_minus."""
        out = np.empty((self.n_measurements, 3), dtype=np.int64)
        k = 0
        for d in range(self.n_injections):
            for p in self.retained[d]:
                out[k] = (d, self.pairs[p, 0], self.pairs[p, 1])
                k += 1
        return out

    @cached_property
    def pair_midpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-pair (azimuth midpoint, layer) used by the noise model."""
        az = self.electrode_azimuth
        a0 = az[self.pairs[:, 0]]
        a1 = az[self.pairs[:, 1]]
        # midpoint on the circle; adjacent electrodes are always less than
        # half a turn apart so the shorter arc is unambiguous
        diff = np.angle(np.exp(1j * (a1 - a0)))
        mid = np.angle(np.exp(1j * (a0 + diff / 2.0)))
        layer = self.electrode_layer[self.pairs[:, 0]].astype(float)
        return mid, layer


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

    def copy(self) -> "VoltageFrame":
        return VoltageFrame(values=self.values.copy(), schedule_id=self.schedule_id)


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


def _face_areas(nodes: np.ndarray, faces: np.ndarray) -> np.ndarray:
    p = nodes[faces]
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    return 0.5 * np.linalg.norm(cross, axis=1)


def _factor_spd(matrix: csc_matrix, error: type[Exception]):
    """SuperLU factor of a sparse SPD matrix in symmetric mode: minimum
    degree ordering on A'+A and diagonal pivots, so no row is swapped and
    the fill stays that of the ordering. A zero pivot raises ``error``."""
    try:
        return splu(matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise error(f"sparse SPD factorization failed: {exc}") from exc


@dataclass(eq=False)
class SparseSystem:
    """Assembled CEM system for one conductivity field."""

    mesh: Mesh
    matrix: csc_matrix           # full (n_nodes + n_el) square, symmetric
    ground_index: int

    @property
    def n_nodes(self) -> int:
        return self.mesh.n_nodes

    @cached_property
    def _reduced(self):
        n = self.matrix.shape[0]
        keep = np.arange(n) != self.ground_index
        reduced = self.matrix[keep][:, keep].tocsc()
        return reduced, _factor_spd(reduced, SingularSystemError), keep

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for one or more right-hand sides (columns); the grounded
        dof is forced to zero. Raises SolverError on a residual miss."""
        rhs = np.asarray(rhs, dtype=np.float64)
        single = rhs.ndim == 1
        b = rhs[:, None] if single else rhs
        if b.shape[0] != self.matrix.shape[0]:
            raise DimensionError("right-hand side size mismatch")
        reduced, factor, keep = self._reduced
        br = b[keep]
        xr = factor.solve(br)
        if not np.all(np.isfinite(xr)):
            raise SingularSystemError("solve produced non-finite values")
        # one step of iterative refinement; keeps per-injection current
        # conservation well below 1e-12 of the drive amplitude
        xr += factor.solve(br - reduced @ xr)
        resid = reduced @ xr - br
        scale = np.linalg.norm(br, axis=0)
        # zero rhs columns trivially give zero solutions and are exempt
        rel = np.linalg.norm(resid, axis=0) / np.maximum(scale, 1e-300)
        if not np.all((rel <= _RESIDUAL_RTOL) | (scale == 0)):
            raise SolverError(
                f"relative residual {float(rel.max()):.3e} exceeds {_RESIDUAL_RTOL}")
        x = np.zeros_like(b)
        x[keep] = xr
        return x[:, 0] if single else x

    def electrode_currents(self, solution: np.ndarray) -> np.ndarray:
        """Currents actually flowing through each electrode for a solution
        (columns of the full potential vector)."""
        flux = self.matrix @ solution
        return flux[self.n_nodes:]


def assemble_system(mesh: Mesh, sigma: np.ndarray,
                    contact_impedance: float = DEFAULT_CONTACT_IMPEDANCE,
                    ) -> SparseSystem:
    """Assemble the CEM system for a per-element conductivity field."""
    sigma = check_conductivity(mesh, sigma)
    if not (contact_impedance > 0 and math.isfinite(contact_impedance)):
        raise ValueError("contact impedance must be positive and finite")
    n, l = mesh.n_nodes, mesh.n_electrodes
    grads = mesh.shape_gradients
    vols = mesh.volumes

    ke = np.einsum("eik,ejk->eij", grads, grads) * (sigma * vols)[:, None, None]
    ii = np.broadcast_to(mesh.tets[:, :, None], (len(vols), 4, 4))
    jj = np.broadcast_to(mesh.tets[:, None, :], (len(vols), 4, 4))

    rows = [ii.ravel()]
    cols = [jj.ravel()]
    vals = [ke.ravel()]

    z = contact_impedance
    for k, patch in enumerate(mesh.electrodes):
        fa = _face_areas(mesh.nodes, patch)
        # boundary mass: int phi_i phi_j over each patch face
        mass = (np.ones((3, 3)) + np.eye(3)) / 12.0
        mvals = mass[None, :, :] * fa[:, None, None] / z
        fi = np.broadcast_to(patch[:, :, None], mvals.shape)
        fj = np.broadcast_to(patch[:, None, :], mvals.shape)
        rows.append(fi.ravel())
        cols.append(fj.ravel())
        vals.append(mvals.ravel())
        # coupling: -(1/z) int phi_i against the electrode dof
        w = np.repeat(fa / 3.0, 3) / z
        pidx = patch.ravel()
        eidx = np.full(pidx.shape, n + k)
        rows.extend([pidx, eidx])
        cols.extend([eidx, pidx])
        vals.extend([-w, -w])
        rows.append(np.array([n + k]))
        cols.append(np.array([n + k]))
        vals.append(np.array([fa.sum() / z]))

    full = coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n + l, n + l)).tocsc()
    # make symmetry exact rather than accurate-to-roundoff
    full = ((full + full.T) * 0.5).tocsc()

    graph = full.copy()
    graph.data = np.abs(graph.data)
    n_comp, _ = connected_components(graph, directed=False)
    if n_comp != 1:
        raise SingularSystemError(
            f"system graph has {n_comp} components; grounding one dof cannot "
            "fix the potential everywhere")

    # ground a mesh node, not an electrode: that keeps every electrode
    # equation inside the reduced system, so computed electrode currents
    # satisfy conservation to the solver residual rather than to the
    # (looser) assembly column-sum noise
    return SparseSystem(mesh=mesh, matrix=full, ground_index=0)


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
    pattern.validate()
    sols = solve_injections(system, schedule, pattern.amplitude)
    u_el = sols[system.n_nodes:, :]
    rows = schedule.rows
    values = u_el[rows[:, 1], rows[:, 0]] - u_el[rows[:, 2], rows[:, 0]]
    return VoltageFrame(values=values, schedule_id=schedule.schedule_id)


@dataclass(eq=False)
class Jacobian:
    """Sensitivity of every retained measurement to each element's
    conductivity, evaluated at the linearization field."""

    matrix: np.ndarray       # (n_measurements, n_elements)
    mesh_id: str
    schedule_id: str


def compute_jacobian(mesh: Mesh, sigma: np.ndarray,
                     pattern: StimPattern, schedule: MeasurementSchedule,
                     contact_impedance: float = DEFAULT_CONTACT_IMPEDANCE,
                     ) -> Jacobian:
    """Adjoint-method Jacobian: one solve per pattern, combined per element.

    Because the injection and measurement pairs coincide, the 32 unit-current
    solutions serve both roles and the whole matrix follows from element-wise
    products of their gradients.
    """
    pattern.validate()
    system = assemble_system(mesh, sigma, contact_impedance)
    sols = solve_injections(system, schedule, 1.0)
    nodal = sols[:mesh.n_nodes, :]
    w = nodal[mesh.tets, :]                              # (M, 4, P)
    ge = np.einsum("mfp,mfk->mpk", w, mesh.shape_gradients)  # (M, P, 3)
    vols = mesh.volumes
    n_rows = schedule.n_measurements
    out = np.empty((n_rows, mesh.n_elements))
    k = 0
    for d in range(schedule.n_injections):
        ret = schedule.retained[d]
        block = np.einsum("mk,mpk->pm", ge[:, d, :], ge[:, ret, :])
        out[k:k + len(ret)] = block
        k += len(ret)
    out *= -pattern.amplitude * vols[None, :]
    return Jacobian(matrix=out, mesh_id=mesh.mesh_id,
                    schedule_id=schedule.schedule_id)


# --- frame persistence -------------------------------------------------------

FRAME_HEADER = ["injection", "meas_plus", "meas_minus", "volts"]


def write_frame_csv(frame: VoltageFrame, schedule: MeasurementSchedule,
                    path: str | Path) -> None:
    if frame.values.shape[0] != schedule.n_measurements:
        raise DimensionError("frame length does not match schedule")
    rows = schedule.rows
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FRAME_HEADER)
        for k in range(schedule.n_measurements):
            writer.writerow([int(rows[k, 0]), int(rows[k, 1]), int(rows[k, 2]),
                             repr(float(frame.values[k]))])


def read_frame_csv(path: str | Path, schedule: MeasurementSchedule) -> VoltageFrame:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != FRAME_HEADER:
            raise ValueError(f"unexpected frame header {header}")
        rows = list(reader)
    if len(rows) != schedule.n_measurements:
        raise DimensionError(
            f"frame has {len(rows)} rows, schedule expects "
            f"{schedule.n_measurements}")
    expect = schedule.rows
    values = np.empty(schedule.n_measurements)
    for k, row in enumerate(rows):
        if [int(row[0]), int(row[1]), int(row[2])] != expect[k].tolist():
            raise ValueError(f"frame row {k} does not match the schedule")
        values[k] = float(row[3])
    return VoltageFrame(values=values, schedule_id=schedule.schedule_id)
