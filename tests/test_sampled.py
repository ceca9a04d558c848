"""The array path of the geometry core against per-t reference loops.

The references below are the scalar algorithms the array code replaced: the
Darboux scalars read off one t at a time from a field's N and N' there
(with a rotated field rotating its base field's frame at that t), and the
sup of the Gauss curvature over a ruling taken one t at a time.  Array results
must match within 1e-12 relative to the sup of each quantity; an identically
vanishing quantity is measured against the sup of the curvature instead.
"""

import numpy as np
import pytest

from flatribbon.angleivp import solved_rotation_field
from flatribbon.curves import TorusKnotParams, curve_from_samples, make_torus_knot
from flatribbon.frames import RotatedNormalField, RotationMinimizingField
from flatribbon.numerics import central_difference
from flatribbon.ribbon import construct_ribbon, flatness_residuals
from conftest import curve_point

REL = 1e-12


def reference_normal(field, t):
    """(N, N') at one t; a rotated field rotates its base frame at that t."""
    if not isinstance(field, RotatedNormalField):
        frame = field.sample(t)
        return frame.N, frame.Np
    curve = field.curve
    T, Tp = curve.derivative(t, 1), curve.derivative(t, 2)
    N, Np = reference_normal(field.base, t)
    H = np.cross(N, T)
    Hp = np.cross(Np, T) + np.cross(N, Tp)
    th, dth = float(field.theta(t)), float(field.theta_prime(t))
    c, s = np.cos(th), np.sin(th)
    return -s * H + c * N, -dth * c * H - s * Hp - dth * s * N + c * Np


def reference_scalars(field, ts):
    """Rows (kappa_g, kappa_n, tau_g) from the per-t Darboux relations."""
    curve = field.curve
    rows = []
    for t in ts:
        T, Tp = curve.derivative(t, 1), curve.derivative(t, 2)
        N, Np = reference_normal(field, t)
        H = np.cross(N, T)
        Hp = np.cross(Np, T) + np.cross(N, Tp)
        rows.append((np.dot(Tp, H), np.dot(Tp, N), np.dot(Hp, N)))
    return np.array(rows)


def reference_gauss_sup(curve, ruling, ts, w):
    """sup over |u| <= w of |K| of gamma + u X, one t at a time, from the quadratic EG - F^2 = |a + u b|^2 of
    a = T x X and b = X' x X, X' by the central difference that ``flatness_residuals`` takes of an override."""
    xps = central_difference(ruling, ts, 1, 1e-5 * curve.length)
    rows = []
    for t, xp in zip(ts, xps):
        x, tangent = ruling(t), curve.derivative(t, 1)
        a, b = np.cross(tangent, x), np.cross(xp, x)
        bb, ab, aa = np.dot(b, b), np.dot(a, b), np.dot(a, a)
        u = min(max(-ab / bb, -w), w)
        rows.append(np.dot(a, xp) ** 2 / (aa + 2.0 * u * ab + u * u * bb) ** 2)
    return np.array(rows)


def sample_curve():
    knot = make_torus_knot(TorusKnotParams(R=2.0, rho=0.8, n=2, grid_size=2001))
    ts = np.linspace(0.0, knot.length, 120)
    wobble = 0.05 * np.stack([np.sin(3 * ts), np.cos(2 * ts), np.sin(ts)], axis=-1)
    return curve_from_samples(ts, curve_point(knot, ts) + wobble, grid_size=4001)


FIELDS = {
    "principal_helix": lambda c: c["pn11"],
    "torus_knot": lambda c: c["torus_field"],
    "rotation_minimizing_samples": lambda c: RotationMinimizingField(sample_curve()),
    "constant_rotation": lambda c: RotatedNormalField(c["torus_field"], 0.7),
    "theta_solution": lambda c: solved_rotation_field(c["pn11"], 0.8, grid_size=400, scalars_grid=401)[0],
    "rotated_twice": lambda c: RotatedNormalField(
        RotatedNormalField(c["torus_field"], 0.3), lambda t: 0.2 * np.sin(t), lambda t: 0.2 * np.cos(t)
    ),
    "scalar_theta_prime": lambda c: RotatedNormalField(c["pn11"], lambda t: -0.5 * t, lambda t: -0.5),
}


def assert_close(got, want, floor=0.0):
    scale = max(float(np.max(np.abs(want))), floor)
    assert float(np.max(np.abs(got - want))) <= REL * scale


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_sample_frame_matches_per_t_reference(name, pn11, torus_field):
    field = FIELDS[name]({"pn11": pn11, "torus_field": torus_field})
    ts = field.curve.grid(201)
    frame = field.sample(ts)
    want = reference_scalars(field, ts)
    kappa = float(np.max(np.hypot(want[:, 0], want[:, 1])))
    for got, column in zip((frame.kappa_g, frame.kappa_n, frame.tau_g), want.T):
        assert_close(got, column, floor=kappa)
    normals = np.array([reference_normal(field, t) for t in ts])
    assert_close(frame.N, normals[:, 0])
    assert_close(frame.Np, normals[:, 1], floor=kappa)


def test_scalar_call_is_the_zero_dimensional_sample(torus_field):
    field = RotatedNormalField(torus_field, 0.7)
    t = 0.37 * field.curve.length
    grid = field.sample(np.array([t]))
    one = field.scalars(t)
    assert (one.kappa_g, one.kappa_n, one.tau_g) == (grid.kappa_g[0], grid.kappa_n[0], grid.tau_g[0])


def test_gauss_curvature_matches_per_t_loop(knot, torus_field):
    # the ruling X = H spans a non-flat surface along the knot, so K is of order 1
    ribbon = construct_ribbon(knot, torus_field, 0.1, grid_size=1001)
    ruling = lambda t: torus_field.sample(t).H
    ts, _, _, gauss = flatness_residuals(ribbon, 201, ruling=ruling).rows
    assert_close(gauss, reference_gauss_sup(knot, ruling, ts, ribbon.w))
