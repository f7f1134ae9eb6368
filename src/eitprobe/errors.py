"""Exception types shared across the package."""


class EitProbeError(Exception):
    """Base class for all package-specific errors."""


class GeometryError(EitProbeError):
    """Tank/probe geometry violates a constructive constraint."""


class MeshingError(EitProbeError):
    """Mesh construction failed (degenerate refinement, empty patch, ...)."""


class SingularSystemError(EitProbeError):
    """Forward system cannot be grounded (disconnected mesh or zero pivot)."""


class SolverError(EitProbeError):
    """A numerical solver did not settle its answer: a forward solve
    missed its residual tolerance (``SparseSystem.solve``), or LAPACK's
    ``dpbtrf`` rejected an argument of the band factor
    (``SparseSystem._factor``)."""


class IllConditionedError(EitProbeError):
    """Regularized normal equations could not be factorized."""


class LineSearchError(EitProbeError):
    """Line search failed to find any acceptable step."""


class ProvenanceError(EitProbeError):
    """An artifact was applied to data it was not built from."""


class DimensionError(EitProbeError):
    """Input dimensions do not match a model or operator."""


class SingularGramError(EitProbeError):
    """RBF output solve hit a singular Gram matrix (too many hidden units
    for the samples)."""


class DegenerateDataError(EitProbeError):
    """Training inputs are degenerate (e.g. all identical with k > 1)."""
