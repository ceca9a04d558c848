"""One arc-length inversion per frame sample.

``ArcLengthCurve.jet`` is the single evaluation point of a curve: its
derivatives must equal, bit for bit, the per-order chain rule that
``derivative`` used to run with one inversion per order, and a frame
sample of any field must invert its grid exactly once.
"""

import numpy as np
import pytest

from flatribbon import frames
from flatribbon.curves import ArcLengthCurve, CurveSpec, arc_length_reparametrize
from flatribbon.frames import (
    NormalField,
    PrincipalNormalField,
    RotatedNormalField,
    RotationMinimizingField,
)
from flatribbon.numerics import rownorm
from test_sampled import sample_curve


def reference_derivative(curve, t, order):
    """The per-order chain rule: one inversion and only the raw orders it needs."""
    x = curve.raw_parameter(t)
    if curve._identity:
        return curve.spec.derivative(x, order)
    c1 = curve.spec.derivative(x, 1)
    v = rownorm(c1)[..., None]
    x1 = 1.0 / v
    if order == 1:
        return c1 * x1
    c2 = curve.spec.derivative(x, 2)
    v1 = np.vecdot(c1, c2)[..., None] / v
    x2 = -v1 / np.float_power(v, 3)
    if order == 2:
        return c2 * np.float_power(x1, 2) + c1 * x2
    c3 = curve.spec.derivative(x, 3)
    v2 = ((np.vecdot(c2, c2) + np.vecdot(c1, c3))[..., None] - np.float_power(v1, 2)) / v
    x3 = (3.0 * np.float_power(v1, 2) - v * v2) / np.float_power(v, 5)
    return c3 * np.float_power(x1, 3) + 3.0 * c2 * x1 * x2 + c1 * x3


def fd_curve():
    # no analytic derivatives: every order comes from central differences
    spec = CurveSpec(lambda x: np.stack([2.0 * np.cos(x), np.sin(x), 0.3 * x], axis=-1), (0.0, 2.0 * np.pi))
    return arc_length_reparametrize(spec, grid_size=4001)


CURVES = {
    "helix": lambda c: c["helix11"],
    "torus_knot": lambda c: c["knot"],
    "samples": lambda c: sample_curve(),
    "finite_difference": lambda c: fd_curve(),
}


@pytest.mark.parametrize("name", sorted(CURVES))
def test_jet_equals_per_order_chain_rule_bit_for_bit(name, helix11, knot):
    curve = CURVES[name]({"helix11": helix11, "knot": knot})
    for t in (0.37 * curve.length, curve.grid(101)):
        x, speed, *derivatives = curve.jet(t)
        assert np.array_equal(x, curve.raw_parameter(t))
        # the chain rule divides by the norm of the velocity it holds, the speed map agrees within a few ulp
        assert np.array_equal(speed, rownorm(curve.spec.derivative(x, 1)))
        assert np.all(np.abs(speed - curve.spec.speed(x)) <= 4 * np.finfo(float).eps * speed)
        for order, got in enumerate(derivatives, start=1):
            want = reference_derivative(curve, t, order)
            assert got.shape == want.shape and np.array_equal(got, want)
            assert np.array_equal(curve.derivative(t, order), want)


def test_knot_jet_at_a_scalar_is_its_grid_row(knot):
    ts = knot.grid(101)
    rows = knot.jet(ts)
    for i in range(len(ts)):
        for got, want in zip(knot.jet(float(ts[i])), rows):
            assert np.shape(got) == np.shape(want[i]) and np.array_equal(got, want[i])


def test_derivative_order_out_of_range(knot):
    for order in (0, 4):
        with pytest.raises(ValueError):
            knot.derivative(0.5, order)


FIELDS = {
    "principal_knot": lambda c: PrincipalNormalField(c["knot"]),
    "torus_normal": lambda c: c["torus_field"],
    "rotation_minimizing_samples": lambda c: RotationMinimizingField(sample_curve()),
    "rotated_twice": lambda c: RotatedNormalField(
        RotatedNormalField(c["torus_field"], 0.3), lambda t: 0.2 * np.sin(t), lambda t: 0.2 * np.cos(t)
    ),
}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_sample_frame_inverts_arc_length_once(name, knot, torus_field, monkeypatch):
    field = FIELDS[name]({"knot": knot, "torus_field": torus_field})
    calls = []
    original = ArcLengthCurve.raw_parameter

    def counted(self, t):
        calls.append(np.shape(t))
        return original(self, t)

    monkeypatch.setattr(ArcLengthCurve, "raw_parameter", counted)
    for t in (field.curve.grid(201), 0.37 * field.curve.length):
        calls.clear()
        field.sample(t)
        assert calls == [np.shape(t)]


def test_value_derivative_frame_are_views_of_sample():
    """``sample`` is the one sampler: no field class defines another view of it."""
    for cls in vars(frames).values():
        if isinstance(cls, type) and issubclass(cls, NormalField):
            assert not {"value", "derivative", "frame"} & set(vars(cls)), cls.__name__
