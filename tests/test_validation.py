"""Every config's ``validate`` refuses a non-finite number with the error
type that class raises for other bad values."""

import dataclasses
import math

import pytest

from eitprobe.datagen import SampleBounds, TargetSpec
from eitprobe.errors import GeometryError, MeshingError
from eitprobe.mesh import RefinementSpec, TankGeometry
from eitprobe.metrics import GridSpec

NAN, INF = math.nan, math.inf
TARGET = TargetSpec(center=(7.0, 0.0, 0.0))


CASES = [
    (RefinementSpec(), "growth", NAN, MeshingError),
    (RefinementSpec(), "near", NAN, MeshingError),
    (RefinementSpec(), "far", INF, MeshingError),
    (TARGET, "center", (NAN, 0.0, 0.0), ValueError),
    (TARGET, "quat", (NAN, 0.0, 0.0, 1.0), ValueError),
    (TARGET, "sigma_in", INF, ValueError),
    (TankGeometry(), "tank_radius", NAN, GeometryError),
    (TankGeometry(), "probe_height", NAN, GeometryError),
    (TankGeometry(), "electrode_size", (NAN, 0.2), GeometryError),
    (SampleBounds(), "max_distance", INF, ValueError),
    (GridSpec(), "half_width", INF, ValueError),
]


@pytest.mark.parametrize("config, field, bad, error", CASES,
                         ids=[f"{type(c).__name__}.{f}" for c, f, *_ in CASES])
def test_validate_refuses_non_finite(config, field, bad, error):
    config.validate()
    with pytest.raises(error, match="finite"):
        dataclasses.replace(config, **{field: bad}).validate()
