from dataclasses import dataclass

import numpy as np
import pytest

from flatribbon.curves import HelixParams, TorusKnotParams, make_helix, make_torus_knot
from flatribbon.frames import PrincipalNormalField, TorusNormalField
from flatribbon.numerics import arccot, simpson_uniform


def curve_point(curve, t):
    """gamma at the arc lengths t of an ``ArcLengthCurve``: its spec's point at the raw parameter of t."""
    return curve.spec.point(curve.raw_parameter(t))


@dataclass(frozen=True)
class CaseAExtrema:
    """Analytic extrema of the constant-angle energy.

    ``q_candidates`` is ordered (maximizer, minimizer); it is empty when the
    energy is independent of q.
    """

    A: float  # integral of kappa_g^2 - kappa_n^2
    B: float  # integral of kappa_g * kappa_n
    q_candidates: tuple
    e_max: float
    e_min: float


def case_a_extrema(curve, normal_field, w, n_t=2001):
    """Analytic extrema over q in [0, 2 pi) of (w/2) integral of (kappa_n cos q - kappa_g sin q)^2, for a field with
    tau_g = 0, whose rotation family is theta = q: (w/4) (K - A cos 2q - 2B sin 2q), K the integral of kappa^2."""
    ts, frame = curve.grid(n_t), normal_field.on_grid(n_t)
    kg, kn = frame.kappa_g, frame.kappa_n
    h = ts[1] - ts[0]
    A = simpson_uniform(kg**2 - kn**2, h)
    B = simpson_uniform(kg * kn, h)
    K = simpson_uniform(kg**2 + kn**2, h)
    tiny = 1e-10 * K
    if abs(B) <= tiny and abs(A) <= tiny:
        e = 0.25 * w * K
        return CaseAExtrema(A, B, (), e, e)
    if abs(B) <= tiny:
        e0 = 0.5 * w * simpson_uniform(kn**2, h)
        e1 = 0.5 * w * simpson_uniform(kg**2, h)
        qs = (0.0, np.pi / 2.0) if e0 >= e1 else (np.pi / 2.0, 0.0)
        return CaseAExtrema(A, B, qs, max(e0, e1), min(e0, e1))
    # at cot(q) = (A + root)/(2B) one has cos(2q) = A/root, sin(2q) = 2B/root,
    # which minimizes (K - A cos 2q - 2B sin 2q)/4; the other root maximizes
    root = np.sqrt(A**2 + 4.0 * B**2)
    q_at_min = float(arccot((A + root) / (2.0 * B)))
    q_at_max = float(arccot((A - root) / (2.0 * B)))
    return CaseAExtrema(A, B, (q_at_max, q_at_min), 0.25 * w * (K + root), 0.25 * w * (K - root))


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
