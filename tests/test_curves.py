import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from flatribbon.curves import (
    ArcLengthCurve,
    CurveSpec,
    HelixParams,
    TorusKnotParams,
    arc_length_reparametrize,
    curve_from_samples,
    make_helix,
    make_torus_knot,
)
from flatribbon.curves import _stack3
from flatribbon.errors import InvalidParams, NonRegularCurve, ToleranceNotMet
from flatribbon.frames import PrincipalNormalField


def _raw_helix_spec(a, b, turns=1.0):
    # non-unit-speed parametrization by the major angle
    def pos(x):
        return np.stack([a * np.cos(x), a * np.sin(x), b * x], axis=-1)

    return CurveSpec(pos, (0.0, 2.0 * np.pi * turns))


def _on_x_axis(x):
    """Points (x, 0, 0) for a scalar or an array x."""
    return np.stack(np.broadcast_arrays(x, 0.0, 0.0), axis=-1)


# ---------------------------------------------------------------- arc length


def test_circle_circumference():
    curve = arc_length_reparametrize(_raw_helix_spec(1.0, 0.0), grid_size=1000)
    assert curve.length == pytest.approx(2.0 * np.pi, abs=1e-8)


def test_helix_length_against_adaptive_quadrature():
    spec = _raw_helix_spec(1.0, 1.0)
    oracle, _ = quad(spec.speed, 0.0, 2.0 * np.pi)
    curve = arc_length_reparametrize(spec, grid_size=1000)
    assert oracle == pytest.approx(2.0 * np.pi * np.sqrt(2.0), abs=1e-10)
    assert curve.length == pytest.approx(oracle, abs=1e-8)


def test_torus_knot_length_grid_self_consistency():
    l1 = make_torus_knot(TorusKnotParams(grid_size=2001)).length
    l2 = make_torus_knot(TorusKnotParams(grid_size=4001)).length
    assert abs(l1 - l2) < 1e-8


def test_unit_speed_after_reparametrization(knot):
    for t in knot.grid(301):
        assert abs(np.linalg.norm(knot.derivative(t, 1)) - 1.0) <= 1e-8


def test_unit_speed_helix(helix11):
    for t in helix11.grid(301):
        assert abs(np.linalg.norm(helix11.derivative(t, 1)) - 1.0) <= 1e-8


def test_arc_length_roundtrip_inverse():
    spec = _raw_helix_spec(2.0, 0.5)
    curve = arc_length_reparametrize(spec, grid_size=2001)
    for t in np.linspace(0.0, curve.length, 17):
        x = curve.raw_parameter(t)
        # arc length up to x recomputed independently
        s, _ = quad(spec.speed, 0.0, x)
        assert s == pytest.approx(t, abs=1e-8)


def test_arc_length_inversion_checks_its_residual():
    # the table claims speed 1 + 2x while the curve moves at speed 10, so
    # three Newton steps from the interpolated guess cannot reproduce t
    line = CurveSpec(lambda x: _on_x_axis(10.0 * x), (0.0, 1.0))
    nodes = np.linspace(0.0, 1.0, 11)
    curve = ArcLengthCurve(line, 2.0, raw_nodes=nodes, s_table=nodes + nodes**2, speeds=1.0 + 2.0 * nodes)
    with pytest.raises(ToleranceNotMet):
        curve.raw_parameter(0.7)
    with pytest.raises(ToleranceNotMet):
        curve.derivative(curve.grid(21), 1)


def test_nonregular_curve_rejected():
    cusp = CurveSpec(lambda x: _on_x_axis(x**3), (-1.0, 1.0))
    with pytest.raises(NonRegularCurve):
        arc_length_reparametrize(cusp, grid_size=1001)


def test_arc_length_inversion_rejects_a_nan_table():
    # NaN slopes make s(x) NaN, and a NaN miss passes no tolerance
    line = CurveSpec(_on_x_axis, (0.0, 1.0))
    nodes = np.linspace(0.0, 1.0, 11)
    curve = ArcLengthCurve(line, 1.0, raw_nodes=nodes, s_table=nodes, speeds=np.full(11, np.nan))
    with pytest.raises(ToleranceNotMet):
        curve.raw_parameter(0.5)


def _scaled_samples(scale):
    t = np.linspace(0.0, 1.0, 40)
    return t, scale * np.stack([np.cos(6 * t), np.sin(6 * t), t], axis=-1)


@pytest.mark.parametrize(
    "make",
    [lambda: make_torus_knot(TorusKnotParams(1e200, 5e199, 3)), lambda: curve_from_samples(*_scaled_samples(1e200))],
    ids=["torus_knot", "samples"],
)
def test_overflowing_speed_rejected_without_warnings(make):
    # |c'|^2 overflows, which once gave a curve of length NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonRegularCurve, match="not finite"):
            make()


def test_overflowing_length_rejected_without_warnings():
    # finite speeds whose integral overflows
    spec = CurveSpec(lambda x: _on_x_axis(1e100 * x), (0.0, 1e300), speed=lambda x: np.full(np.shape(x), 1e100))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ToleranceNotMet, match="not finite"):
            arc_length_reparametrize(spec, grid_size=101)


def test_tolerance_not_met_on_coarse_grid():
    # a wiggly curve on a very coarse grid cannot hit 1e-12
    def pos(x):
        return np.stack([np.cos(20 * x), np.sin(20 * x), x], axis=-1)

    with pytest.raises(ToleranceNotMet):
        arc_length_reparametrize(CurveSpec(pos, (0.0, 2 * np.pi)), grid_size=21, tol=1e-12)


# ---------------------------------------------------------------- Frenet data
# the principal normal's frame is the Frenet frame: kappa = kappa_n, tau = tau_g, N = P and B = -H


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (3.0, 4.0), (2.0, 0.5)])
def test_helix_curvature_torsion(a, b):
    curve = make_helix(HelixParams(a, b))
    m2 = a * a + b * b
    for t in (0.0, 0.3 * curve.length, 0.77 * curve.length):
        sc = PrincipalNormalField(curve).scalars(t)
        assert sc.kappa_n == pytest.approx(a / m2, abs=1e-10)
        assert sc.tau_g == pytest.approx(b / m2, abs=1e-10)


def test_circle_frenet_at_zero(circle):
    sc = PrincipalNormalField(circle).scalars(0.0)
    assert sc.kappa_n == pytest.approx(1.0, abs=1e-12)
    assert sc.tau_g == pytest.approx(0.0, abs=1e-12)


def test_torus_knot_frenet_stable_under_grid_doubling():
    k1 = make_torus_knot(TorusKnotParams(grid_size=4001))
    k2 = make_torus_knot(TorusKnotParams(grid_size=8001))
    f1 = PrincipalNormalField(k1).sample(0.0)
    f2 = PrincipalNormalField(k2).sample(0.0)
    assert abs(f1.kappa_n - f2.kappa_n) < 1e-6
    assert abs(f1.tau_g - f2.tau_g) < 1e-6
    assert np.max(np.abs(f1.T - f2.T)) < 1e-6


def test_frenet_binormal_consistency(knot):
    field = PrincipalNormalField(knot)
    for t in knot.grid(51):
        fr = field.sample(t)
        assert fr.kappa_n > 1e-6
        assert np.max(np.abs(np.cross(fr.T, fr.N) + fr.H)) <= 1e-8


@pytest.mark.parametrize("scale", [1e-10, 1e10])
def test_scaled_knot_keeps_its_frenet_frame(knot, scale):
    # the curvature floor bounds kappa L, so the frame and kappa L, tau L do not see the scale
    scaled = make_torus_knot(TorusKnotParams(2.0 * scale, scale))
    ts = knot.grid(51)
    fd, fs = PrincipalNormalField(knot).sample(ts), PrincipalNormalField(scaled).sample(ts * scale)
    assert np.allclose(fs.kappa_n * scaled.length, fd.kappa_n * knot.length, rtol=1e-10, atol=0.0)
    assert np.allclose(fs.tau_g * scaled.length, fd.tau_g * knot.length, rtol=1e-10, atol=0.0)
    for got, want in ((fs.N, fd.N), (fs.H, fd.H)):
        assert np.max(np.abs(got - want)) <= 1e-10


# ---------------------------------------------------------------- constructors


def test_make_helix_is_unit_circle_for_zero_pitch(circle):
    for t in circle.grid(33):
        p = circle.point(t)
        assert np.hypot(p[0], p[1]) == pytest.approx(1.0, abs=1e-12)
        assert p[2] == pytest.approx(0.0, abs=1e-12)


def test_make_helix_point_and_tangent_at_zero(helix11):
    assert np.max(np.abs(helix11.point(0.0) - np.array([1.0, 0.0, 0.0]))) < 1e-12
    want = np.array([0.0, 1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)])
    assert np.max(np.abs(helix11.derivative(0.0, 1) - want)) < 1e-12


def test_make_helix_rejects_bad_params():
    with pytest.raises(InvalidParams):
        make_helix(HelixParams(0.0, 1.0))
    with pytest.raises(InvalidParams):
        make_helix(HelixParams(-1.0, 1.0))
    with pytest.raises(InvalidParams):
        make_helix(HelixParams(1.0, -0.5))


def test_make_torus_knot_rejects_bad_radii():
    with pytest.raises(InvalidParams):
        make_torus_knot(TorusKnotParams(R=1.0, rho=1.0))
    with pytest.raises(InvalidParams):
        make_torus_knot(TorusKnotParams(R=1.0, rho=2.0))


def test_make_torus_knot_builds_its_arc_length_table_once(monkeypatch):
    from flatribbon import curves

    built = []
    original = curves.ArcLengthCurve.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self).__name__)
        original(self, *args, **kwargs)

    monkeypatch.setattr(curves.ArcLengthCurve, "__init__", counting_init)
    knot = make_torus_knot(TorusKnotParams(R=2.0, rho=1.0, n=3))
    assert built == ["TorusKnotCurve"]
    assert knot.params.n == 3 and knot.grid_size == 4001


def test_torus_knot_outer_equator_point(knot):
    assert np.max(np.abs(knot.point(0.0) - np.array([3.0, 0.0, 0.0]))) < 1e-10
    n0 = knot.surface_normal_jet(0.0)[0]
    assert np.max(np.abs(n0 - np.array([1.0, 0.0, 0.0]))) < 1e-12


def test_torus_normal_orthogonal_to_tangent(knot, rng):
    for t in rng.uniform(0.0, knot.length, 100):
        phi = knot.raw_parameter(t)
        n = knot.surface_normal_jet(phi)[0]
        assert abs(np.dot(n, knot.derivative(t, 1))) < 1e-9


def test_torus_knot_lies_on_torus(knot, rng):
    R, rho = knot.params.R, knot.params.rho
    for t in rng.uniform(0.0, knot.length, 100):
        x, y, z = knot.point(t)
        dist = abs(np.hypot(np.hypot(x, y) - R, z) - rho)
        assert dist < 1e-10


# ---------------------------------------------------------------- misc


def test_curve_from_samples_recovers_helix_length(helix11):
    ts = np.linspace(0.0, helix11.length, 400)
    pts = np.array([helix11.point(t) for t in ts])
    curve = curve_from_samples(ts, pts, grid_size=2001)
    assert curve.length == pytest.approx(helix11.length, abs=1e-5)


def test_curve_from_samples_shape_check():
    with pytest.raises(InvalidParams):
        curve_from_samples([0.0, 1.0], np.zeros((3, 3)))


@pytest.mark.parametrize(
    "ts, points",
    [
        ([0.0, 2.0, 1.0, 3.0], np.eye(4, 3)),
        ([0.0, 1.0, 1.0, 2.0], np.eye(4, 3)),
        ([0.0, 1.0, 2.0, 3.0], [[0.0, 0.0, 0.0], [1.0, np.nan, 0.0], [2.0, 0.0, 0.0], [3.0, 1.0, 0.0]]),
        ([0.0, 1.0, np.inf, 3.0], np.eye(4, 3)),
        ([0.0], [[0.0, 0.0, 0.0]]),
    ],
    ids=["unsorted_t", "repeated_t", "nan_point", "infinite_t", "one_row"],
)
def test_curve_from_samples_rejects_bad_samples(ts, points):
    with pytest.raises(InvalidParams):
        curve_from_samples(ts, points)


def test_fd_derivative_fallback_matches_analytic():
    # the stencil jet of the raw helix (step 1e-4 of its 2 pi domain) against its analytic jet, order by order
    spec = _raw_helix_spec(1.0, 1.0)
    analytic = (
        lambda x: _stack3(-np.sin(x), np.cos(x), 1.0),
        lambda x: _stack3(-np.cos(x), -np.sin(x), 0.0),
        lambda x: _stack3(np.sin(x), -np.cos(x), 0.0),
    )
    for x in (0.1, 2.0, 5.5, np.linspace(0.0, 2.0 * np.pi, 101)):
        for got, exact, bound in zip(spec.jet(x), analytic, (1e-11, 1e-8, 1e-5)):
            assert got.shape == np.shape(x) + (3,)
            assert np.max(np.abs(got - exact(x))) <= bound


def test_curve_map_of_the_wrong_shape_is_rejected_on_the_call():
    # components first: a map written for one scalar at a time gives (3, n) on an array
    spec = CurveSpec(lambda x: np.array([np.cos(x), np.sin(x), x]), (0.0, 1.0))
    assert spec.point(0.5).shape == (3,)  # one point is the zero-dimensional case
    with pytest.raises(InvalidParams):
        spec.point(np.linspace(0.0, 1.0, 5))
    with pytest.raises(InvalidParams):
        arc_length_reparametrize(spec)
    line = CurveSpec(lambda x: np.zeros(np.shape(x) + (3,)), (0.0, 1.0), jet=lambda x: (np.ones(3),) * 3)
    with pytest.raises(InvalidParams):
        line.jet(np.linspace(0.0, 1.0, 5))
    # a component with an axis of its own broadcasts to a table of the wrong shape
    spec = CurveSpec(lambda x: _stack3(np.cos(x), np.sin(x), np.zeros((2, 1))), (0.0, 1.0))
    with pytest.raises(InvalidParams):
        spec.point(0.5)
    with pytest.raises(InvalidParams):
        arc_length_reparametrize(spec)
    # a speed map that gives one value for a whole grid of parameters
    spec = CurveSpec(_on_x_axis, (0.0, 1.0), speed=lambda x: 1.0)
    assert spec.speed(0.5) == 1.0
    with pytest.raises(InvalidParams):
        arc_length_reparametrize(spec)


def test_vector_components_broadcast():
    # the helix's vertical speed b / m is one scalar for every parameter
    ts = np.linspace(0.0, 1.0, 5)
    for curve in (make_helix(HelixParams(1.0, 1.0)), make_helix(HelixParams(2.0, 0.5))):
        v = curve.derivative(ts, 1)
        assert v.shape == (5, 3)
        assert np.all(v[:, 2] == v[0, 2]) and v[0, 2] > 0.0
    stacked = _stack3(np.cos(ts), np.sin(ts), 0.5)
    assert stacked.tobytes() == np.stack(np.broadcast_arrays(np.cos(ts), np.sin(ts), 0.5), axis=-1).tobytes()
    assert _stack3(0.0, 1.0, 2.0).shape == (3,)


def test_grid_is_one_read_only_array_per_node_count():
    for curve in (make_helix(HelixParams(1.0, 1.0)), make_torus_knot(TorusKnotParams(grid_size=401))):
        g = curve.grid(2000)
        assert g is curve.grid(2001)
        assert not g.flags.writeable
        assert g.tobytes() == np.linspace(0.0, curve.length, 2001).tobytes()
        assert curve.grid(201) is not g and len(curve.grid(201)) == 201


def test_grid_is_odd_and_spans_domain(helix11):
    g = helix11.grid(100)
    assert len(g) % 2 == 1
    assert g[0] == 0.0 and g[-1] == pytest.approx(helix11.length)
