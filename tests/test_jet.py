"""One arc-length inversion and one raw jet per frame sample.

``ArcLengthCurve.jet`` is the single evaluation point of a curve: its
derivatives must equal, bit for bit, the per-order chain rule that
``derivative`` used to run with one inversion per order, and a frame
sample of any field must invert its grid exactly once.  ``CurveSpec.jet``
takes c', c'' and c''' from one call: the helix's and the knot's jet maps
equal their former per-order maps bit for bit, and a curve without a jet
map calls its position map once.
"""

import numpy as np
import pytest

from flatribbon import frames
from flatribbon.curves import (
    ArcLengthCurve,
    CurveSpec,
    HelixParams,
    TorusKnotParams,
    arc_length_reparametrize,
    make_helix,
    make_torus_knot,
)
from flatribbon.curves import _stack3
from flatribbon.errors import InvalidParams
from flatribbon.frames import (
    NormalField,
    PrincipalNormalField,
    RotatedNormalField,
    RotationMinimizingField,
)
from flatribbon.numerics import rowdot, rownorm
from test_sampled import sample_curve


def reference_derivative(curve, t, order):
    """The per-order chain rule: one inversion, one raw jet, and only the raw orders it needs."""
    x = curve.raw_parameter(t)
    c1, c2, c3 = curve.spec.jet(x)
    if curve._identity:
        return (c1, c2, c3)[order - 1]
    v = rownorm(c1)[..., None]
    x1 = 1.0 / v
    if order == 1:
        return c1 * x1
    v1 = rowdot(c1, c2)[..., None] / v
    x2 = -v1 / np.float_power(v, 3)
    if order == 2:
        return c2 * np.float_power(x1, 2) + c1 * x2
    v2 = ((rowdot(c2, c2) + rowdot(c1, c3))[..., None] - np.float_power(v1, 2)) / v
    x3 = (3.0 * np.float_power(v1, 2) - v * v2) / np.float_power(v, 5)
    return c3 * np.float_power(x1, 3) + 3.0 * c2 * x1 * x2 + c1 * x3


def fd_curve():
    # no jet map: every order comes from central differences
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
        assert np.array_equal(speed, rownorm(curve.spec.jet(x)[0]))
        assert np.all(np.abs(speed - curve.spec.speed(x)) <= 4 * np.finfo(float).eps * speed)
        for order, got in enumerate(derivatives, start=1):
            want = reference_derivative(curve, t, order)
            assert got.shape == want.shape and np.array_equal(got, want)
            assert np.array_equal(curve.derivative(t, order), want)


@pytest.mark.parametrize("name", sorted(CURVES))
def test_order_two_jet_is_the_order_three_jet_bit_for_bit(name, helix11, knot):
    # order 2 stops before gamma''''s chain rule; every entry it returns is the same array
    curve = CURVES[name]({"helix11": helix11, "knot": knot})
    for t in (0.37 * curve.length, curve.grid(101)):
        full, short = curve.jet(t), curve.jet(t, 2)
        assert len(short) == 4
        for got, want in zip(short, full):
            assert np.shape(got) == np.shape(want) and np.array_equal(got, want)
        x = full[0]
        for got, want in zip(curve.raw_jet(x, 2), curve.raw_jet(x)):
            assert np.array_equal(got, want)


def test_each_field_asks_for_the_jet_order_it_reads(knot, torus_field, monkeypatch):
    # only the principal normal reads gamma'''; the rotation-minimizing build reads T and gamma'' alone
    orders = []
    original = ArcLengthCurve.raw_jet

    def counted(self, x, order=3):
        orders.append(order)
        return original(self, x, order)

    monkeypatch.setattr(ArcLengthCurve, "raw_jet", counted)
    rmf = RotationMinimizingField(knot)
    assert orders == [2]
    fields = {"principal": (PrincipalNormalField(knot), 3), "torus": (torus_field, 2), "rmf": (rmf, 2)}
    for field, order in fields.values():
        for inner in (field, RotatedNormalField(field, 0.3)):
            orders.clear()
            inner.sample(knot.grid(101))
            assert orders == [order]


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


def per_order_helix(a, b):
    """The helix's derivative maps of orders 1, 2 and 3, each taking its own cos and sin."""
    m = np.hypot(a, b)
    return (
        lambda t: _stack3(-a / m * np.sin(t / m), a / m * np.cos(t / m), b / m),
        lambda t: _stack3(-a / m**2 * np.cos(t / m), -a / m**2 * np.sin(t / m), 0.0),
        lambda t: _stack3(a / m**3 * np.sin(t / m), -a / m**3 * np.cos(t / m), 0.0),
    )


def per_order_knot(R, rho, n):
    """The torus knot's derivative maps of orders 1, 2 and 3, each taking its own four trig values."""
    trig = lambda phi: (np.cos(n * phi), np.sin(n * phi), np.cos(phi), np.sin(phi))

    def d1(phi):
        cn, sn, c, s = trig(phi)
        r, r1 = R + rho * cn, -rho * n * sn
        return _stack3(r1 * c - r * s, r1 * s + r * c, rho * n * cn)

    def d2(phi):
        cn, sn, c, s = trig(phi)
        r, r1, r2 = R + rho * cn, -rho * n * sn, -rho * n**2 * cn
        return _stack3(r2 * c - 2 * r1 * s - r * c, r2 * s + 2 * r1 * c - r * s, -rho * n**2 * sn)

    def d3(phi):
        cn, sn, c, s = trig(phi)
        r, r1, r2, r3 = R + rho * cn, -rho * n * sn, -rho * n**2 * cn, rho * n**3 * sn
        return _stack3(
            r3 * c - 3 * r2 * s - 3 * r1 * c + r * s,
            r3 * s + 3 * r2 * c - 3 * r1 * s - r * c,
            -rho * n**3 * cn,
        )

    return d1, d2, d3


def test_closed_form_jets_equal_the_per_order_maps_bit_for_bit():
    rng = np.random.default_rng(21)
    for _ in range(100):
        a = 10.0 ** rng.uniform(-3.0, 3.0)
        b = a * rng.uniform(0.0, 2.0)
        R = 10.0 ** rng.uniform(-3.0, 3.0)
        rho, n = rng.uniform(0.05, 0.95) * R, int(rng.integers(1, 8))
        cases = (
            (make_helix(HelixParams(a, b)), per_order_helix(a, b)),
            (make_torus_knot(TorusKnotParams(R, rho, n)), per_order_knot(R, rho, n)),
        )
        for curve, maps in cases:
            lo, hi = curve.spec.domain
            for x in (rng.uniform(lo, hi, 64), float(rng.uniform(lo, hi))):
                for got, want in zip(curve.spec.jet(x), maps):
                    assert got.shape == np.shape(x) + (3,) and np.array_equal(got, want(x))


def test_stencil_jet_calls_the_position_map_once():
    # all three orders come from one call on the flattened 7-point stencils of x
    calls = []

    def position(x):
        calls.append(np.shape(x))
        return np.stack([2.0 * np.cos(x), np.sin(x), 0.3 * x], axis=-1)

    spec = CurveSpec(position, (0.0, 2.0 * np.pi))
    for x, shape in ((0.5, (7,)), (np.linspace(0.0, 1.0, 11), (77,)), (np.zeros((2, 5)), (70,))):
        calls.clear()
        jet = spec.jet(x)
        assert calls == [shape] and all(c.shape == np.shape(x) + (3,) for c in jet)


@pytest.mark.parametrize("wrong", range(3))
def test_jet_map_of_the_wrong_shape_is_rejected(wrong):
    def jet(x):
        orders = [np.zeros(np.shape(x) + (3,)) for _ in range(3)]
        orders[wrong] = np.zeros(3)  # one vector for a whole grid of parameters
        return orders

    spec = CurveSpec(lambda x: np.zeros(np.shape(x) + (3,)), (0.0, 1.0), jet=jet)
    spec.jet(0.5)  # one parameter: the one vector has the right shape
    with pytest.raises(InvalidParams):
        spec.jet(np.linspace(0.0, 1.0, 5))
    with pytest.raises(InvalidParams):
        ArcLengthCurve.from_unit_speed(spec).jet(np.linspace(0.0, 1.0, 5))


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
