from decimal import Decimal, getcontext

import numpy as np
import pytest

from flatribbon.curves import (
    HelixParams,
    TorusKnotParams,
    arc_length_reparametrize,
    curve_from_samples,
    make_helix,
    make_torus_knot,
)
from flatribbon.energy import (
    _inner_integral,
    bending_energy_closed,
    bending_energy_quadrature,
    case_a_energy,
    case_a_extrema,
    case_b_energy,
    energy_bound,
    fundamental_forms,
    helix_ratio_a,
    helix_ratio_b,
    limit_energy,
    mean_curvature,
)
from flatribbon.errors import (
    DegenerateMetric,
    NotCaseA,
    OutsideRegularDomain,
    RulingAngleMismatch,
    WidthTooLarge,
)
from flatribbon.frames import PrincipalNormalField, RotatedNormalField
from flatribbon.ribbon import FlatRibbon, construct_ribbon, max_regular_width, mu_field


@pytest.fixture(scope="module")
def helix_strip(helix11, pn11):
    return construct_ribbon(helix11, pn11, 0.1, grid_size=801)


@pytest.fixture(scope="module")
def tilted_strip(helix11):
    # constant rotation by pi/4: kappa_g != 0, lambda != 0, finite width bound
    field = RotatedNormalField(PrincipalNormalField(helix11), np.pi / 4)
    return construct_ribbon(helix11, field, 0.2, grid_size=801)


@pytest.fixture(scope="module")
def knot_ribbon(knot, torus_field):
    return construct_ribbon(knot, torus_field, 0.1, grid_size=1001)


# ------------------------------------------------------------ fundamental forms


def test_forms_on_the_curve(tilted_strip):
    t = 1.0
    forms = fundamental_forms(tilted_strip, t, 0.0)
    mu = float(tilted_strip.mu(t))
    sc = tilted_strip.normal.scalars(t)
    assert forms.E == pytest.approx(1.0, abs=1e-12)
    assert forms.F == pytest.approx(mu, abs=1e-12)
    assert forms.G == pytest.approx(1.0 + mu * mu, abs=1e-12)
    assert forms.e == pytest.approx(sc.kappa_n, abs=1e-12)
    assert forms.f == 0.0 and forms.g == 0.0


def test_helix_rectifying_area_element_is_one(helix_strip, rng):
    for t in rng.uniform(0.0, helix_strip.curve.length, 20):
        for u in rng.uniform(-0.1, 0.1, 3):
            forms = fundamental_forms(helix_strip, t, u)
            assert forms.area_element() == pytest.approx(1.0, abs=1e-9)


def test_area_element_identity(tilted_strip, rng):
    for t in rng.uniform(0.0, tilted_strip.curve.length, 30):
        mu = float(tilted_strip.mu(t))
        mup = float(tilted_strip.mu.derivative(t))
        kg = tilted_strip.normal.scalars(t).kappa_g
        for u in rng.uniform(-0.2, 0.2, 3):
            forms = fundamental_forms(tilted_strip, t, u)
            want = 1.0 + u * mup - u * (1.0 + mu * mu) * kg
            assert forms.area_element() == pytest.approx(want, abs=1e-10)


def test_forms_outside_regular_domain(tilted_strip):
    with pytest.raises(OutsideRegularDomain):
        fundamental_forms(tilted_strip, 1.0, 1.5)


def test_mean_curvature_two_expressions_agree(tilted_strip, rng):
    for t in rng.uniform(0.0, tilted_strip.curve.length, 20):
        mu = float(tilted_strip.mu(t))
        mup = float(tilted_strip.mu.derivative(t))
        sc = tilted_strip.normal.scalars(t)
        for u in rng.uniform(-0.2, 0.2, 2):
            forms = fundamental_forms(tilted_strip, t, u)
            h = mean_curvature(forms)
            denom = 1.0 + u * mup - u * (1.0 + mu * mu) * sc.kappa_g
            want = (1.0 + mu * mu) * sc.kappa_n / (2.0 * denom)
            assert abs(h) == pytest.approx(abs(want), abs=1e-12)


def test_mean_curvature_zero_normal_curvature():
    from flatribbon.energy import FundamentalForms

    forms = FundamentalForms(E=1.0, F=0.3, G=1.2, e=0.0)
    assert mean_curvature(forms) == 0.0


def test_mean_curvature_helix_rectifying_constant(helix_strip):
    # kappa_g = mu' = 0: |H| = (1 + mu^2) kappa / 2 at every (t, u)
    want = (1.0 + 1.0) * 0.5 / 2.0
    for t in (0.0, 2.0):
        for u in (-0.05, 0.08):
            h = mean_curvature(fundamental_forms(helix_strip, t, u))
            assert abs(h) == pytest.approx(want, abs=1e-9)


def test_degenerate_metric_rejected():
    from flatribbon.energy import FundamentalForms

    with pytest.raises(DegenerateMetric):
        mean_curvature(FundamentalForms(E=1.0, F=1.0, G=1.0, e=0.5))


# ---------------------------------------------------------------- energies


def test_quadrature_helix_rectifying_small_width(helix11, pn11):
    rib = construct_ribbon(helix11, pn11, 1e-3, grid_size=801)
    report = bending_energy_quadrature(rib, n_t=801, n_u=21)
    want = 1e-3 * helix11.length / 2.0
    assert report.value == pytest.approx(want, rel=1e-8)
    assert report.method == "quadrature"


def test_energy_zero_for_planar_strip(circle):
    # rotate the circle normal into the plane: kappa_n = tau_g = 0
    field = RotatedNormalField(PrincipalNormalField(circle), np.pi / 2)
    rib = construct_ribbon(circle, field, 0.1, grid_size=401)
    assert bending_energy_quadrature(rib, n_t=401, n_u=11).value < 1e-25
    assert bending_energy_closed(rib, n_t=401).value < 1e-25
    assert limit_energy(circle, field, 0.1, n_t=401).value < 1e-25


def test_closed_and_quadrature_agree(knot_ribbon):
    ec = bending_energy_closed(knot_ribbon, n_t=1001)
    eq = bending_energy_quadrature(knot_ribbon, n_t=1001, n_u=21)
    assert ec.method == "closed_form"
    assert abs(ec.value - eq.value) / ec.value < 1e-6
    assert abs(ec.value - eq.value) <= 10 * (ec.error_estimate + eq.error_estimate + 1e-9)


def test_helix_rectifying_closed_energy_uses_flat_branch(helix_strip):
    report = bending_energy_closed(helix_strip, n_t=801)
    assert report.method == "special_case_lambda_zero"
    want = helix_strip.w * helix_strip.curve.length / 2.0
    assert report.value == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("w", [0.1, 1e12, 1e20])
def test_flat_helix_energies_are_linear_in_width(helix11, pn11, w):
    # lambda = 0 on the rectifying strip: each energy is (w/2) L (1 + mu^2)^2 kappa_n^2 = w L / 2 at any width
    rib = construct_ribbon(helix11, pn11, w, grid_size=801)
    assert rib.flat and np.isinf(rib.max_width)
    want = w * helix11.length / 2.0
    closed = bending_energy_closed(rib, n_t=801)
    assert closed.method == "special_case_lambda_zero"
    for report in (closed, bending_energy_quadrature(rib, n_t=801, n_u=21), limit_energy(helix11, pn11, w, n_t=801)):
        assert report.value == pytest.approx(want, rel=1e-12)


def test_closed_energy_rejects_width_beyond_log_domain(knot, torus_field):
    mu = mu_field(knot, torus_field, grid_size=1001)
    probe = FlatRibbon(knot, torus_field, 0.0, mu)
    too_wide = 1.05 / float(np.max(np.abs(probe.lam)))
    rib = FlatRibbon(knot, torus_field, too_wide, mu)
    with pytest.raises(WidthTooLarge):
        bending_energy_closed(rib, n_t=1001)


def test_inner_integral_branch_continuity():
    # the one form 2 artanh(w lambda)/lambda runs continuously into its limit 2w at lambda = 0
    small = _inner_integral(0.1, np.array([0.0, 1e-9]))
    assert small[0] == 0.2
    assert abs(small[1] - small[0]) <= 1e-10 * small[0]
    # the log quotient loses ~1e-11 to cancellation at w lambda = 2e-6, so the reference is its series
    near = _inner_integral(0.1, np.array([2e-5]))
    x = 0.1 * 2e-5
    assert near[0] == pytest.approx(0.2 * (1.0 + x**2 / 3.0 + x**4 / 5.0), rel=1e-12)


@pytest.mark.parametrize("x", [0.0, 1e-16, 1e-7, 1e-5, 0.5])
def test_inner_integral_against_decimal_reference(x):
    # log((1 + w lambda)/(1 - w lambda))/lambda to 50 digits, at the exact floats w and lambda
    getcontext().prec = 50
    w = 0.3
    for lam in (x / w, -x / w):
        d_w, d_lam = Decimal(w), Decimal(lam)
        want = 2 * d_w if lam == 0.0 else ((1 + d_w * d_lam) / (1 - d_w * d_lam)).ln() / d_lam
        got = _inner_integral(w, np.array([lam]))[0]
        assert abs(Decimal(float(got)) - want) <= Decimal("1e-15") * abs(want)


def test_limit_energy_rectifying_is_sadowsky(helix11, pn11):
    report = limit_energy(helix11, pn11, 0.1, n_t=801)
    sadowsky = case_b_energy(helix11, 0.0, 0.1, n_t=801)
    assert report.value == pytest.approx(sadowsky, rel=1e-12)
    assert report.method == "limit_formula"


def test_limit_energy_orthogonal_ruling(circle):
    # tau_g = 0 makes the integrand plain kappa_n^2
    report = limit_energy(circle, PrincipalNormalField(circle), 0.1, n_t=401)
    assert report.value == pytest.approx(0.05 * circle.length, rel=1e-12)


def test_limit_energy_approached_quadratically(knot, torus_field, knot_ribbon):
    w = knot_ribbon.w
    e0 = limit_energy(knot, torus_field, 1.0, n_t=1001).value
    es = []
    for width in (w, w / 2):
        rib = construct_ribbon(knot, torus_field, width, grid_size=1001)
        es.append(bending_energy_closed(rib, n_t=1001).value / width)
    ratio = (es[0] - e0) / (es[1] - e0)
    assert 3.5 <= ratio <= 4.5


def test_energies_default_to_the_ribbon_grid(knot, torus_field):
    # the 101-node slope spline read on 2001 nodes is 1.02e-6 off the 2001-node energy
    w = 0.5 * max_regular_width(knot, torus_field, grid_size=2001)
    fine = bending_energy_closed(construct_ribbon(knot, torus_field, w, grid_size=2001)).value
    rib = construct_ribbon(knot, torus_field, w, grid_size=101)
    closed = bending_energy_closed(rib)
    assert closed == bending_energy_closed(rib, n_t=101)
    assert bending_energy_quadrature(rib) == bending_energy_quadrature(rib, n_t=101)
    assert abs(closed.value - fine) <= 1e-7


# ---------------------------------------------------------------- bounds


@pytest.mark.parametrize("n", [803, 2003])
def test_node_counts_of_the_form_4k_plus_3_round_up(helix11, pn11, n):
    # the Richardson half grid of 4k+3 nodes has an even node count, which Simpson rejects
    field = RotatedNormalField(PrincipalNormalField(helix11), np.pi / 4)
    rib = construct_ribbon(helix11, field, 0.2, grid_size=n)
    assert len(rib.ts) == n + 2
    bending_energy_closed(rib, n_t=n)
    limit_energy(helix11, field, 0.1, n_t=n)
    assert energy_bound(helix11, pn11, pn11, 0.1, n_t=n).satisfied
    assert arc_length_reparametrize(helix11.spec, grid_size=n).grid_size == n + 2


def test_sampled_curves_at_4k_plus_3_nodes():
    knot = make_torus_knot(TorusKnotParams(grid_size=4003))
    assert knot.grid_size == 4005
    ts = knot.grid(121)
    assert curve_from_samples(ts, knot.point(ts), grid_size=1003).grid_size == 1005


def test_energy_bound_self_is_trivial(knot, torus_field):
    report = energy_bound(knot, torus_field, torus_field, 0.1, n_t=501)
    assert report.satisfied
    assert report.additive_bound >= report.energy_base
    assert report.energy_other == pytest.approx(report.energy_base, rel=1e-12)
    assert report.ratio_bound is not None and report.ratio_bound >= 1.0


def test_energy_bound_ratio_with_equal_curvatures(helix11):
    # constant pi/4 rotation: kappa_g = kappa_n, so the ratio bound is 2
    field = RotatedNormalField(PrincipalNormalField(helix11), np.pi / 4)
    report = energy_bound(helix11, field, field, 0.1, n_t=501)
    assert report.ratio_bound == pytest.approx(2.0, abs=1e-9)


def test_energy_bound_rejects_different_ruling_angles(helix11, pn11):
    other = RotatedNormalField(PrincipalNormalField(helix11), np.pi / 4)  # mu = -sqrt(2), not -1
    with pytest.raises(RulingAngleMismatch):
        energy_bound(helix11, pn11, other, 0.1, n_t=501)


# ---------------------------------------------------------------- Case A


@pytest.fixture(scope="module")
def case_a_field(pn11):
    # rotating the helix principal normal by theta(t) = -t/2 kills tau_g
    return RotatedNormalField(pn11, lambda t: -0.5 * t, lambda t: -0.5)


def test_case_a_energy_axis_values(helix11, case_a_field):
    w = 0.1
    ts = helix11.grid(2001)
    kg = np.array([case_a_field.scalars(t).kappa_g for t in ts])
    kn = np.array([case_a_field.scalars(t).kappa_n for t in ts])
    from flatribbon.numerics import simpson_uniform

    h = ts[1] - ts[0]
    assert case_a_energy(helix11, case_a_field, 0.0, w) == pytest.approx(
        0.5 * w * simpson_uniform(kn**2, h), rel=1e-12
    )
    assert case_a_energy(helix11, case_a_field, np.pi / 2, w) == pytest.approx(
        0.5 * w * simpson_uniform(kg**2, h), rel=1e-12
    )


def test_case_a_requires_zero_geodesic_torsion(helix11, pn11):
    with pytest.raises(NotCaseA):
        case_a_energy(helix11, pn11, 0.3, 0.1)
    with pytest.raises(NotCaseA):
        case_a_extrema(helix11, pn11, 0.1)


def test_case_a_extrema_generic(helix11, case_a_field):
    w = 0.1
    ex = case_a_extrema(helix11, case_a_field, w)
    assert ex.B != 0.0 and len(ex.q_candidates) == 2
    vals = [case_a_energy(helix11, case_a_field, q, w) for q in ex.q_candidates]
    assert max(vals) == pytest.approx(ex.e_max, rel=1e-12)
    assert min(vals) == pytest.approx(ex.e_min, rel=1e-12)
    # the energy at any other angle stays inside the analytic range
    for q in np.linspace(0.0, 2 * np.pi, 37):
        v = case_a_energy(helix11, case_a_field, q, w)
        assert ex.e_min - 1e-12 <= v <= ex.e_max + 1e-12


def test_case_a_extrema_zero_cross_term(circle):
    # circle normal: kappa_g = 0 everywhere, so B = 0 and A = -L < 0
    w = 0.1
    ex = case_a_extrema(circle, PrincipalNormalField(circle), w)
    assert ex.B == pytest.approx(0.0, abs=1e-12)
    assert ex.A == pytest.approx(-circle.length, rel=1e-12)
    assert ex.q_candidates == (0.0, np.pi / 2.0)
    assert ex.e_max == pytest.approx(0.5 * w * circle.length, rel=1e-12)
    assert ex.e_min == pytest.approx(0.0, abs=1e-15)


def test_case_a_energy_independent_of_angle_when_degenerate():
    # over exactly 2 pi of arc the cross terms integrate to zero
    h = make_helix(HelixParams(1.0, 1.0, length=2 * np.pi))
    field = RotatedNormalField(PrincipalNormalField(h), lambda t: -0.5 * t, lambda t: -0.5)
    w = 0.1
    ex = case_a_extrema(h, field, w)
    want = 0.25 * w * 0.25 * 2 * np.pi  # (w/4) * integral of kappa^2
    assert ex.q_candidates == ()
    assert ex.e_max == pytest.approx(want, rel=1e-10)
    assert ex.e_min == pytest.approx(want, rel=1e-10)
    vals = [case_a_energy(h, field, q, w) for q in np.linspace(0, 2 * np.pi, 17)]
    assert max(vals) - min(vals) < 1e-14


def test_case_a_constants_stable_under_grid_doubling(helix11, case_a_field):
    e1 = case_a_extrema(helix11, case_a_field, 0.1, n_t=1001)
    e2 = case_a_extrema(helix11, case_a_field, 0.1, n_t=2001)
    assert abs(e1.A - e2.A) < 1e-8
    assert abs(e1.B - e2.B) < 1e-8


@pytest.mark.parametrize("s", [1e-9, 1.0, 1e10])
def test_case_a_and_ratio_gates_are_scale_free(s):
    # the helix a = b = s rotated by -tau t: the energy at w = 0.1 s is free of s, and so are
    # sup|tau_g| L (rounding, 2e-15 at every s) and min|kappa_n| L = 2 pi / sqrt(2) for the principal normal
    h = make_helix(HelixParams(s, s))
    pn = PrincipalNormalField(h)
    tau = 0.5 / s
    field = RotatedNormalField(pn, lambda t: -tau * t, lambda t: -tau)
    assert case_a_energy(h, field, 0.7, 0.1 * s, n_t=201) == pytest.approx(0.0675261669914, rel=1e-11)
    assert energy_bound(h, pn, pn, 0.1 * s, n_t=201).ratio_bound == 1.0


@pytest.mark.parametrize("s", [1e-13, 1.0, 1e40])
def test_case_a_extrema_are_scale_free(s):
    # the helix a = b = s over 0.9 of a turn, rotated by -tau t: the extrema at w = 0.1 s are free of s.
    # The test of A and B against 1e-10 K once floored K at 1e-30, so at s = 1e40 (K = 2.0e-40)
    # the extrema read as independent of q
    h = make_helix(HelixParams(s, s, length=0.9 * 2 * np.pi * np.sqrt(2) * s))
    field = RotatedNormalField(PrincipalNormalField(h), lambda t: -0.5 / s * t, lambda t: -0.5 / s)
    ex = case_a_extrema(h, field, 0.1 * s, n_t=201)
    assert len(ex.q_candidates) == 2
    assert ex.q_candidates == pytest.approx((0.42850099537637, 1.9992973221713), rel=1e-9)
    assert (ex.e_max, ex.e_min) == pytest.approx((0.059430972519724, 0.040533893588839), rel=1e-9)


# ---------------------------------------------------------------- Case B


def test_case_b_small_angle_tends_to_rectifying(helix11):
    base = case_b_energy(helix11, 0.0, 0.1)
    near = case_b_energy(helix11, 1e-6, 0.1)
    assert near == pytest.approx(base, rel=1e-6)


def test_case_b_helix_half_turn_ratio():
    # r = bL/(a^2+b^2) = 1 with a = b = 1 means L = 2
    h = make_helix(HelixParams(1.0, 1.0, length=2.0))
    ratio = case_b_energy(h, np.pi, 0.1) / (0.1 * h.length / 2.0)
    assert ratio == pytest.approx(2.0 - np.pi / 2.0, rel=1e-10)


def test_case_b_rejects_vanishing_curvature():
    from flatribbon.errors import VanishingCurvature
    from test_grid_cache import straight_line

    with pytest.raises(VanishingCurvature):
        case_b_energy(straight_line(), 0.5, 0.1, n_t=101)


# ---------------------------------------------------------------- helix ratios


def test_ratio_a_at_zero_angle():
    for r in (0.5, 1.0, 3.0, 10.0):
        assert helix_ratio_a(0.0, r) == 1.0


def test_ratio_b_reference_value():
    assert helix_ratio_b(np.pi, 1.0) == pytest.approx(2.0 - np.pi / 2.0, abs=1e-10)


def test_ratio_b_antiderivative_without_overflow():
    qs = np.linspace(0.0, 2 * np.pi, 33, endpoint=False)[1:]
    c = np.cos(qs / 2.0) / np.sin(qs / 2.0)
    square_form = lambda d: -2.0 * np.arctan(d) + d * (3.0 + d**2) / (1.0 + d**2)
    for r in (1.0, 2.0, 3.0, 4.0):
        want = (square_form(c + r) - square_form(c)) / r
        np.testing.assert_allclose(helix_ratio_b(qs, r), want, rtol=1e-13)
    with np.errstate(all="raise"):  # d^2 overflows beyond d ~ 1e154
        np.testing.assert_allclose(helix_ratio_b(qs, 1e200), 1.0, rtol=1e-12)


def test_ratios_flatten_for_long_helices():
    qs = np.linspace(0.0, 2 * np.pi, 33, endpoint=False)[1:]
    r = 1e4
    assert max(abs(helix_ratio_a(q, r) - 1.0) for q in qs) < 1e-3
    assert max(abs(helix_ratio_b(q, r) - 1.0) for q in qs) < 1e-3


def test_ratio_a_matches_constant_angle_energies():
    # the constant-rotation family of the pi/2 helix field realizes ratio_a
    r = 2.0
    h = make_helix(HelixParams(1.0, 1.0, length=2 * r))
    field = RotatedNormalField(PrincipalNormalField(h), lambda t: -0.5 * t, lambda t: -0.5)
    w = 0.1
    base = case_a_energy(h, field, 0.0, w, n_t=1001)
    for q in np.linspace(0.0, 2 * np.pi, 17, endpoint=False):
        got = case_a_energy(h, field, q, w, n_t=1001) / base
        assert got == pytest.approx(helix_ratio_a(q, r), abs=1e-10)
