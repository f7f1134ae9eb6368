"""Building a config is its check: each of the ten config classes refuses a
non-finite number, an integer field refuses a non-integer, and a vector
field refuses the wrong length, with the error type that class raises for
other bad values."""

import dataclasses
import math

import pytest

from eitprobe.datagen import NoiseModel, SampleBounds, TargetSpec
from eitprobe.errors import GeometryError, MeshingError
from eitprobe.forward import StimPattern
from eitprobe.gn import GnConfig
from eitprobe.mesh import RefinementSpec, TankGeometry
from eitprobe.metrics import GridSpec
from eitprobe.pdipm import PdipmConfig
from eitprobe.rbf import TrainConfig

NAN, INF = math.nan, math.inf
# fields a class needs besides its defaults
REQUIRED = {TargetSpec: {"center": (7.0, 0.0, 0.0)}}


def _build(cls, **fields):
    return cls(**{**REQUIRED.get(cls, {}), **fields})


NON_FINITE = [
    (RefinementSpec, "growth", NAN, MeshingError),
    (RefinementSpec, "near", NAN, MeshingError),
    (RefinementSpec, "far", INF, MeshingError),
    (TargetSpec, "center", (NAN, 0.0, 0.0), ValueError),
    (TargetSpec, "quat", (NAN, 0.0, 0.0, 1.0), ValueError),
    (TargetSpec, "sigma_in", INF, ValueError),
    (TankGeometry, "tank_radius", NAN, GeometryError),
    (TankGeometry, "probe_height", NAN, GeometryError),
    (TankGeometry, "electrode_size", (NAN, 0.2), GeometryError),
    (SampleBounds, "max_distance", INF, ValueError),
    (GridSpec, "half_width", INF, ValueError),
    (StimPattern, "amplitude", INF, ValueError),
    (GnConfig, "lam", NAN, ValueError),
    (PdipmConfig, "alpha", INF, ValueError),
    (NoiseModel, "snr_near_db", INF, ValueError),
]
# integer fields; infinity is no integer either
NON_INTEGER = [
    (TankGeometry, "layers", 4.0, GeometryError),
    (TankGeometry, "electrodes_per_layer", 8.0, GeometryError),
    (GridSpec, "dims", 16.0, ValueError),
    (PdipmConfig, "max_iters", 2.5, ValueError),
    (TrainConfig, "hidden_count", INF, ValueError),
    (TrainConfig, "hidden_count", 200.0, ValueError),
]
# SampleBounds' semi-axes are every target's, so they obey TargetSpec's rule
WRONG_LENGTH = [
    (TankGeometry, "electrode_size", (0.2,), GeometryError),
    (TankGeometry, "electrode_size", (0.2, 0.2, 0.2), GeometryError),
    (SampleBounds, "semi_axes", (1.0, 2.0), ValueError),
    (SampleBounds, "semi_axes", (1.0, 2.0, 3.0, 4.0), ValueError),
]


@pytest.mark.parametrize("cls, field, bad, error", NON_FINITE,
                         ids=[f"{c.__name__}.{f}" for c, f, *_ in NON_FINITE])
def test_validate_refuses_non_finite(cls, field, bad, error):
    _build(cls)
    with pytest.raises(error, match="finite"):
        _build(cls, **{field: bad})


@pytest.mark.parametrize("cls, field, bad, error", NON_INTEGER,
                         ids=[f"{c.__name__}.{f}={b!r}"
                              for c, f, b, _ in NON_INTEGER])
def test_integer_fields_refuse_non_integers(cls, field, bad, error):
    _build(cls)
    with pytest.raises(error, match="integer"):
        _build(cls, **{field: bad})


@pytest.mark.parametrize("cls, field, bad, error", WRONG_LENGTH,
                         ids=[f"{c.__name__}.{f}={len(b)}"
                              for c, f, b, _ in WRONG_LENGTH])
def test_vector_fields_refuse_the_wrong_length(cls, field, bad, error):
    _build(cls)
    with pytest.raises(error, match=field):
        _build(cls, **{field: bad})


def test_no_invalid_config_can_be_made():
    geom = TankGeometry()
    with pytest.raises(GeometryError, match="32"):
        dataclasses.replace(geom, layers=3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        geom.layers = 3
