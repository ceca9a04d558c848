from decimal import Decimal, getcontext

import numpy as np
import pytest

from flatribbon.angleivp import solved_rotation_field
from flatribbon.curves import (
    HelixParams,
    TorusKnotParams,
    arc_length_reparametrize,
    curve_from_samples,
    make_helix,
    make_torus_knot,
)
from flatribbon.energy import (
    _h2_area,
    _inner_integral,
    bending_energy_closed,
    bending_energy_quadrature,
    case_a_energy,
    case_b_energy,
    family_energy,
    helix_ratio_a,
    helix_ratio_b,
    limit_energy,
)
from flatribbon.errors import (
    DegenerateMetric,
    NotCaseA,
    OutsideRegularDomain,
    WidthTooLarge,
)
from flatribbon.frames import PrincipalNormalField, RotatedNormalField
from flatribbon.numerics import simpson_uniform
from flatribbon.ribbon import FlatRibbon, construct_ribbon, max_regular_width, mu_field
from conftest import case_a_extrema, curve_point


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


# ------------------------------------------------------------ H^2 dA, the quadrature's integrand


def _h2_area_at(rib, us, n_t=None):
    """H^2 dA at rib.rows(n_t) x us, and the rows."""
    _, frame, mu, mup, lam = rib.rows(n_t)
    return _h2_area(mu, mup, frame.kappa_g, frame.kappa_n, lam, us), (frame, mu, lam)


def _identity(frame, mu, lam, us):
    # H = (1 + mu^2) kappa_n / (2 (1 + u lambda)) and dA = 1 + u lambda on a flat ribbon
    return ((1.0 + mu**2) ** 2 * frame.kappa_n**2)[:, None] / (4.0 * (1.0 + us * np.reshape(lam, (-1, 1))))


def test_forms_on_the_curve(tilted_strip):
    # at u = 0: E = 1, F = mu, G = 1 + mu^2, e = kappa_n, so H^2 dA = (1 + mu^2)^2 kappa_n^2 / 4
    got, (frame, mu, _) = _h2_area_at(tilted_strip, np.array([0.0]))
    np.testing.assert_allclose(got[:, 0], (1.0 + mu**2) ** 2 * frame.kappa_n**2 / 4.0, rtol=0.0, atol=1e-12)


def test_helix_rectifying_area_element_is_one(helix_strip, rng):
    # lambda is the flat ribbon's 0.0, so dA = 1 at any u, however large
    us = np.concatenate([rng.uniform(-0.1, 0.1, 3), [-1e20, 1e20]])
    got, (frame, mu, lam) = _h2_area_at(helix_strip, us)
    assert lam == 0.0 and np.ndim(lam) == 0
    h = (1.0 + mu**2) * frame.kappa_n / 2.0
    np.testing.assert_allclose(got, np.broadcast_to((h**2)[:, None], got.shape), rtol=0.0, atol=1e-9)


def test_area_element_identity(tilted_strip, rng):
    # on the ribbon's grid, where mu, mu' and lambda are views of its slope table
    us = rng.uniform(-0.2, 0.2, 3)
    got, rows = _h2_area_at(tilted_strip, us)
    np.testing.assert_allclose(got, _identity(*rows, us), rtol=0.0, atol=1e-10)


def test_forms_outside_regular_domain(tilted_strip):
    _, frame, mu, mup, lam = tilted_strip.rows()
    assert np.min(1.0 + 1.5 * lam) <= 0.0
    with pytest.raises(OutsideRegularDomain):
        _h2_area(mu, mup, frame.kappa_g, frame.kappa_n, lam, np.array([1.5]))


def test_mean_curvature_two_expressions_agree(tilted_strip, rng):
    # on 301 nodes, which do not nest in the ribbon's 801: mu and mu' off the spline, lambda formed from them
    us = rng.uniform(-0.2, 0.2, 2)
    got, rows = _h2_area_at(tilted_strip, us, n_t=301)
    np.testing.assert_allclose(got, _identity(*rows, us), rtol=0.0, atol=1e-12)


def test_mean_curvature_zero_normal_curvature():
    mu, mup, kg = np.array([0.3, -1.2]), np.array([0.1, 0.4]), np.array([0.2, 0.5])
    got = _h2_area(mu, mup, kg, np.zeros(2), mup - (1.0 + mu**2) * kg, np.array([-0.1, 0.0, 0.1]))
    assert np.all(got == 0.0)


def test_mean_curvature_helix_rectifying_constant(helix_strip):
    # kappa_g = mu' = 0: H^2 dA = ((1 + mu^2) kappa / 2)^2 = 1/4 at every (t, u)
    got, _ = _h2_area_at(helix_strip, np.array([-0.05, 0.08]))
    np.testing.assert_allclose(got, 0.25, rtol=0.0, atol=1e-9)


def test_degenerate_metric_rejected():
    # 1 + u lambda = 1.5 > 0, but at u = 1 these mu' and kappa_g give E = 0, F = 0: EG - F^2 = 0
    one = np.ones(1)
    with pytest.raises(DegenerateMetric):
        _h2_area(0.0 * one, 0.0 * one, one, 0.5 * one, 0.5 * one, one)


def _reference_h2_area(mu, mup, kg, kn, lam, u):
    """H^2 dA as the record of the forms (E, F, G, e, f = g = 0, det) gave it: H = G e / (2 det), then H^2 sqrt(det)."""
    stretch = 1.0 + u * lam
    with np.errstate(over="ignore"):
        E = (1.0 + u * (mup - kg)) ** 2 + (u * mu * kg) ** 2
        F = mu * (1.0 + u * mup)
    G = 1.0 + mu**2
    e = kn * stretch
    det = 1.0 if np.ndim(lam) == 0 and lam == 0.0 else E * G - F**2
    mean_curvature = G * e / (2.0 * det)
    return mean_curvature**2 * np.sqrt(det)


@pytest.mark.parametrize("strip", ["tilted_strip", "helix_strip"])
def test_forms_keep_the_bits_of_eg_minus_f_squared(strip, request):
    # det = EG - F^2 taken once (1 on a flat ribbon), the operations in the order of the forms' record
    rib = request.getfixturevalue(strip)
    us = np.linspace(-rib.w, rib.w, 41)
    got, _ = _h2_area_at(rib, us)
    _, frame, mu, mup, lam = rib.rows()
    mu, mup, kg, kn = (a[:, None] for a in (mu, mup, frame.kappa_g, frame.kappa_n))
    want = _reference_h2_area(mu, mup, kg, kn, lam if rib.flat else lam[:, None], us)
    assert np.array_equal(got, want)


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
    assert rib.flat and np.isinf(rib.mu.max_width)
    want = w * helix11.length / 2.0
    closed = bending_energy_closed(rib, n_t=801)
    assert closed.method == "special_case_lambda_zero"
    for report in (closed, bending_energy_quadrature(rib, n_t=801, n_u=21), limit_energy(helix11, pn11, w, n_t=801)):
        assert report.value == pytest.approx(want, rel=1e-12)


def test_closed_energy_rejects_width_beyond_log_domain(knot, torus_field):
    mu = mu_field(knot, torus_field, grid_size=1001)
    too_wide = 1.05 / float(np.max(np.abs(mu.lam)))
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


def test_inner_integral_where_w_lambda_underflows():
    # 0.5 * 5e-324 rounds to 0, which the quotient turns into 0; 1e-310 * 0.5 is subnormal, short of bits
    assert _inner_integral(0.5, np.array([5e-324]))[0] == 1.0
    w = 1e-310
    assert _inner_integral(w, np.array([0.5, -0.5, 0.0])).tolist() == [2.0 * w] * 3
    # wherever w lambda is a normal double the quotient is kept, bit for bit
    tiny = np.finfo(float).tiny
    lam = np.array([tiny / 0.3, -tiny / 0.3, 1e-300, 1e-9, 0.7, -2.0])
    with np.errstate(divide="ignore", invalid="ignore"):
        assert np.array_equal(_inner_integral(0.3, lam), 2.0 * np.arctanh(0.3 * lam) / lam)


def test_energies_agree_at_a_subnormal_width(knot, torus_field):
    # at w = 1e-310 the closed form took 2 artanh(w lambda)/lambda on subnormals, 5e-4 off the other two
    rib = construct_ribbon(knot, torus_field, 1e-310, grid_size=2001)
    closed = bending_energy_closed(rib).value
    assert closed == pytest.approx(bending_energy_quadrature(rib).value, rel=1e-11, abs=0.0)
    assert closed == pytest.approx(limit_energy(knot, torus_field, 1e-310, n_t=2001).value, rel=1e-11, abs=0.0)


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
    family = family_energy(helix11, pn11, [0.0, 1.0], 0.1, n_t=n)
    assert np.all(family.values <= family.additive_bound * (1.0 + 1e-12))
    assert arc_length_reparametrize(helix11.spec, grid_size=n).grid_size == n + 2


def test_sampled_curves_at_4k_plus_3_nodes():
    knot = make_torus_knot(TorusKnotParams(grid_size=4003))
    assert knot.grid_size == 4005
    ts = knot.grid(121)
    assert curve_from_samples(ts, curve_point(knot, ts), grid_size=1003).grid_size == 1005


def test_energy_bound_self_is_trivial(knot, torus_field):
    # the member from theta(0) = 0 is the base field itself
    report = family_energy(knot, torus_field, [0.0], 0.1, n_t=501)
    e_base = limit_energy(knot, torus_field, 0.1, n_t=501).value
    assert report.additive_bound >= e_base
    assert report.values[0] == pytest.approx(e_base, rel=1e-12)
    assert report.ratio_bound is not None and report.ratio_bound >= 1.0


def test_energy_bound_ratio_with_equal_curvatures(helix11):
    # constant pi/4 rotation: kappa_g = kappa_n, so the ratio bound is 2
    field = RotatedNormalField(PrincipalNormalField(helix11), np.pi / 4)
    report = family_energy(helix11, field, [0.0], 0.1, n_t=501)
    assert report.ratio_bound == pytest.approx(2.0, abs=1e-9)


# ---------------------------------------------------------------- family energy


# (base field, prescribed phi) of each family; phi None is the same-angle family
FAMILIES = {
    "helix_same_angle": lambda c: (c["pn11"], None),
    "knot_same_angle": lambda c: (c["torus_field"], None),
    "knot_phi_1.2": lambda c: (c["torus_field"], lambda t: 1.2),
    "helix_phi_pi/2": lambda c: (c["pn11"], lambda t: 0.5 * np.pi),
    "knot_principal": lambda c: (PrincipalNormalField(c["knot"]), None),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_energy_is_the_limit_energy_of_each_member_within_its_bounds(name, pn11, knot, torus_field):
    base, phi = FAMILIES[name]({"pn11": pn11, "torus_field": torus_field, "knot": knot})
    curve, w, n_t = base.curve, 0.1, 2001
    qs = np.linspace(-np.pi, np.pi, 8, endpoint=False) + 0.3
    family = family_energy(curve, base, qs, w, phi=phi, n_t=n_t)
    assert np.array_equal(family.qs, qs)
    members = [solved_rotation_field(base, q, n_t - 1, n_t, phi=phi)[0] for q in qs]
    want = [limit_energy(curve, member, w, n_t=n_t).value for member in members]
    assert family.values == pytest.approx(want, rel=1e-13)
    # E(base) = (w/2) integral of kappa_n^2 (1 + mu^2)^2, mu the base field's slope or cot phi
    ts, frame = curve.grid(n_t), base.on_grid(n_t)
    mu = mu_field(curve, base, grid_size=n_t).values if phi is None else 1.0 / np.tan(phi(ts))
    e_base = 0.5 * w * simpson_uniform(frame.kappa_n**2 * (1.0 + mu**2) ** 2, ts[1] - ts[0])
    assert np.all(family.values <= family.additive_bound * (1.0 + 1e-12))
    assert family.ratio_bound is not None  # kappa_n has no zero on these fields
    assert np.all(family.values <= family.ratio_bound * e_base * (1.0 + 1e-12))


def test_family_energy_is_case_b_on_the_helix_principal_normal(helix11, pn11):
    qs = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    values = family_energy(helix11, pn11, qs, 0.1).values
    assert values == pytest.approx([case_b_energy(helix11, q, 0.1) for q in qs], rel=1e-12)


@pytest.mark.parametrize(
    "case, n_t, want",
    [("helix", 2001, 0.44428829381583673), ("knot", 501, 1.4555939207500521), ("helix_pi/4", 501, 0.9996486610856326)],
)
def test_family_energy_additive_bound_is_the_two_field_bound(case, n_t, want, helix11, pn11, knot, torus_field):
    # the values of the two-field energy_bound that family_energy replaced, on the same base fields and grids
    base = {"helix": pn11, "knot": torus_field, "helix_pi/4": RotatedNormalField(pn11, np.pi / 4)}[case]
    assert family_energy(base.curve, base, [0.3], 0.1, n_t=n_t).additive_bound == pytest.approx(want, rel=1e-15)


def test_family_energy_reads_the_frame_off_the_flows_stage_table(helix11):
    # n_t = 399 rounds up to 401; the 801 stage nodes of the 400-step flow hold the 401-node frame as a view
    base = PrincipalNormalField(helix11)
    family = family_energy(helix11, base, [0.0, 1.0], 0.1, n_t=399)
    assert family.values.shape == (2,)
    assert np.shares_memory(base.on_grid(401).kappa_n, base.on_grid(801).kappa_n)


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


def test_case_a_extrema_generic(helix11, case_a_field):
    w = 0.1
    ex = case_a_extrema(helix11, case_a_field, w)
    assert ex.B != 0.0 and len(ex.q_candidates) == 2
    want = (ex.e_max, ex.e_min)
    assert [case_a_energy(helix11, case_a_field, q, w) for q in ex.q_candidates] == pytest.approx(want, rel=1e-12)
    assert family_energy(helix11, case_a_field, ex.q_candidates, w).values == pytest.approx(want, rel=1e-12)
    # the energy at any other angle stays inside the analytic range, and it is case A's closed form
    qs = np.linspace(0.0, 2 * np.pi, 37)
    values = family_energy(helix11, case_a_field, qs, w).values
    assert np.all((ex.e_min - 1e-12 <= values) & (values <= ex.e_max + 1e-12))
    assert values == pytest.approx([case_a_energy(helix11, case_a_field, q, w) for q in qs], rel=1e-12)


def test_case_a_extrema_zero_cross_term(circle):
    # circle normal: kappa_g = 0 everywhere, so B = 0 and A = -L < 0
    w = 0.1
    field = PrincipalNormalField(circle)
    ex = case_a_extrema(circle, field, w)
    assert ex.B == pytest.approx(0.0, abs=1e-12)
    assert ex.A == pytest.approx(-circle.length, rel=1e-12)
    assert ex.q_candidates == (0.0, np.pi / 2.0)
    e_max, e_min = family_energy(circle, field, ex.q_candidates, w).values
    assert e_max == pytest.approx(ex.e_max, rel=1e-12) and e_max == pytest.approx(0.5 * w * circle.length, rel=1e-12)
    assert e_min == pytest.approx(0.0, abs=1e-15) and ex.e_min == pytest.approx(0.0, abs=1e-15)


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
    qs = np.linspace(0, 2 * np.pi, 17)
    vals = [case_a_energy(h, field, q, w) for q in qs]
    assert max(vals) - min(vals) < 1e-14
    vals = family_energy(h, field, qs, w).values
    assert max(vals) - min(vals) < 1e-14 and vals[0] == pytest.approx(want, rel=1e-10)


def test_case_a_constants_stable_under_grid_doubling(helix11, case_a_field):
    e1 = case_a_extrema(helix11, case_a_field, 0.1, n_t=1001)
    e2 = case_a_extrema(helix11, case_a_field, 0.1, n_t=2001)
    assert abs(e1.A - e2.A) < 1e-8
    assert abs(e1.B - e2.B) < 1e-8
    # E(q) = (w/4) (K - A cos 2q - 2B sin 2q) moves by at most (w/4) (|dK| + |dA| + 2 |dB|)
    qs = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    coarse, fine = (family_energy(helix11, case_a_field, qs, 0.1, n_t=n).values for n in (1001, 2001))
    assert np.max(np.abs(coarse - fine)) < 1e-10


@pytest.mark.parametrize("s", [1e-9, 1.0, 1e10])
def test_case_a_and_ratio_gates_are_scale_free(s):
    # the helix a = b = s rotated by -tau t: the energy at w = 0.1 s is free of s, and so are
    # sup|tau_g| L (rounding, 2e-15 at every s) and min|kappa_n| L = 2 pi / sqrt(2) for the principal normal
    h = make_helix(HelixParams(s, s))
    pn = PrincipalNormalField(h)
    tau = 0.5 / s
    field = RotatedNormalField(pn, lambda t: -tau * t, lambda t: -tau)
    assert case_a_energy(h, field, 0.7, 0.1 * s, n_t=201) == pytest.approx(0.0675261669914, rel=1e-11)
    assert family_energy(h, field, [0.7], 0.1 * s, n_t=201).values[0] == pytest.approx(0.0675261669914, rel=1e-11)
    assert family_energy(h, pn, [0.0], 0.1 * s, n_t=201).ratio_bound == 1.0


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
    want = (0.059430972519724, 0.040533893588839)
    assert (ex.e_max, ex.e_min) == pytest.approx(want, rel=1e-9)
    assert family_energy(h, field, ex.q_candidates, 0.1 * s, n_t=201).values == pytest.approx(want, rel=1e-9)


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
