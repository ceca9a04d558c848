import numpy as np
import pytest

from flatribbon.curves import HelixParams, TorusKnotParams, make_helix, make_torus_knot
from flatribbon.frames import PrincipalNormalField, TorusNormalField


def curve_point(curve, t):
    """gamma at the arc lengths t of an ``ArcLengthCurve``: its spec's point at the raw parameter of t."""
    return curve.spec.point(curve.raw_parameter(t))


@pytest.fixture(scope="session")
def helix11():
    return make_helix(HelixParams(1.0, 1.0))


@pytest.fixture(scope="session")
def pn11(helix11):
    return PrincipalNormalField(helix11)


@pytest.fixture(scope="session")
def circle():
    return make_helix(HelixParams(1.0, 0.0))


@pytest.fixture(scope="session")
def knot():
    return make_torus_knot(TorusKnotParams())


@pytest.fixture(scope="session")
def torus_field(knot):
    return TorusNormalField(knot)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)
