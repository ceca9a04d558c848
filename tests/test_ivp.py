import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatribbon.angleivp import (
    AngleRHS,
    closed_form_case_b,
    closed_form_helix_pi2,
    integrated_torsion,
    lipschitz_bound,
    prescribed_angle_rhs,
    rhs_prescribed,
    rhs_same_angle,
    same_angle_rhs,
    solve_theta,
    solved_rotation_field,
)
from flatribbon.errors import NormalCurvatureZero, StepSizeUnderflow
from flatribbon.frames import DarbouxScalars, rotate, sampled_scalars
from flatribbon.numerics import central_difference

finite = st.floats(-5.0, 5.0, allow_nan=False)


@pytest.fixture(scope="module")
def pn_scalars(pn11):
    return sampled_scalars(pn11, 4 * 2000 + 1)  # exact at every stage node of the 2000-step runs


# ---------------------------------------------------------------- right sides


def test_prescribed_rhs_at_right_angle():
    s = DarbouxScalars(0.3, -0.7, 0.4)
    assert rhs_prescribed(0.0, 1.1, s, np.pi / 2) == pytest.approx(-s.tau_g, abs=1e-15)


def test_prescribed_rhs_zero_geodesic_curvature():
    s = DarbouxScalars(0.0, 0.9, 0.4)
    # at theta = pi/2 the cos theta term drops and only -tau_g remains
    assert rhs_prescribed(0.0, np.pi / 2, s, np.pi / 3) == pytest.approx(-s.tau_g, abs=1e-15)


@given(finite, finite, finite, finite, st.floats(0.1, np.pi - 0.1))
@settings(deadline=None, max_examples=100)
def test_prescribed_rhs_enforces_angle_condition(kg, kn, tg, theta, phi):
    # rotating by theta with theta' = F makes cot(phi) kappa_n(theta) + tau_g(theta) vanish
    s = DarbouxScalars(kg, kn, tg)
    f = rhs_prescribed(0.0, theta, s, phi)
    r = rotate(s, theta, f)
    cot = np.cos(phi) / np.sin(phi)
    scale = max(1.0, abs(kg), abs(kn), abs(tg)) * max(1.0, abs(cot))
    assert abs(r.kappa_n * cot + r.tau_g) <= 1e-12 * scale


def test_same_angle_rhs_fixed_points():
    s = DarbouxScalars(0.3, 0.9, 0.4)
    assert rhs_same_angle(0.0, 0.0, s) == pytest.approx(0.0, abs=1e-15)
    flat = DarbouxScalars(0.3, 0.9, 0.0)
    assert rhs_same_angle(0.0, 1.234, flat) == pytest.approx(0.0, abs=1e-15)


def test_same_angle_rhs_separable_form():
    s = DarbouxScalars(0.0, 0.9, 0.4)
    for theta in (0.3, 2.0):
        want = s.tau_g * (np.cos(theta) - 1.0)
        assert rhs_same_angle(0.0, theta, s) == pytest.approx(want, abs=1e-15)


def test_same_angle_rhs_rejects_zero_normal_curvature():
    with pytest.raises(NormalCurvatureZero):
        rhs_same_angle(0.0, 0.5, DarbouxScalars(0.3, 0.0, 0.4))


# ---------------------------------------------------------------- integrator


def test_constant_solution_for_zero_rhs():
    family = solve_theta(AngleRHS(lambda ts: (0.0, 0.0, 0.0)), 2.0, [1.3, -2.0], grid_size=100)
    for q, sol in zip(family.qs, family):
        assert np.max(np.abs(sol.values - q)) == 0.0
        assert sol.error_estimate == 0.0


def test_helix_right_angle_solution(helix11, pn_scalars):
    rhs = prescribed_angle_rhs(pn_scalars, lambda t: np.pi / 2)
    sol = solve_theta(rhs, helix11.length, [0.0], grid_size=2000)[0]
    exact = closed_form_helix_pi2(1.0, 1.0)
    assert np.max(np.abs(sol.values - exact(sol.ts))) <= 1e-6


def test_separable_solution_matches_closed_form(helix11, pn_scalars):
    rhs = same_angle_rhs(pn_scalars)
    sol = solve_theta(rhs, helix11.length, [np.pi / 2], grid_size=2000)[0]
    psi = integrated_torsion(helix11)
    exact = closed_form_case_b(np.pi / 2, psi)
    assert np.max(np.abs(sol.values - exact(sol.ts))) <= 1e-6


def test_solver_reports_nonfinite_values():
    with pytest.raises(StepSizeUnderflow):
        solve_theta(AngleRHS(lambda ts: (0.0, 0.0, np.nan)), 1.0, [0.0], grid_size=50)


def test_solver_reports_infinite_values():
    # an infinite slope makes the step matrices, and so theta, NaN
    with pytest.raises(StepSizeUnderflow):
        solve_theta(AngleRHS(lambda ts: (0.0, 0.0, np.inf)), 1.0, [0.0], grid_size=50)


# RK4 on theta itself, the reference discretization for the flow: every q at once, each stage reading
# its (a, b, c) row off the 4n+1-node coefficient table
def _reference_sweep(nodes, table, stride, qs):
    a, b, c = table
    F = lambda j, y: a[j] * np.sin(y) + b[j] * np.cos(y) + c[j]
    half = stride // 2
    theta = np.empty((len(qs), (len(nodes) - 1) // stride + 1))
    theta[:, 0] = qs
    for i in range(theta.shape[1] - 1):
        j = i * stride
        h = nodes[j + stride] - nodes[j]
        y = theta[:, i]
        k1 = F(j, y)
        k2 = F(j + half, y + 0.5 * h * k1)
        k3 = F(j + half, y + 0.5 * h * k2)
        k4 = F(j + stride, y + h * k3)
        theta[:, i + 1] = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return theta


def reference_solve(rhs, length, qs, n):
    """(values, error estimates) of theta-RK4 from theta(0) = q for every q: n steps, against 2n for the estimate."""
    nodes = np.linspace(0.0, length, 4 * n + 1)
    table = [np.broadcast_to(np.asarray(x, dtype=float), nodes.shape) for x in rhs.coefficients(nodes)]
    theta, theta_half = _reference_sweep(nodes, table, 4, qs), _reference_sweep(nodes, table, 2, qs)
    return theta, np.max(np.abs(theta - theta_half[:, ::2]), axis=1)


def test_angle_rhs_matches_pointwise_forms(pn_scalars, helix11):
    phi = lambda t: np.pi / 3 + 0.5 * np.sin(t)
    prescribed = prescribed_angle_rhs(pn_scalars, phi)
    same = same_angle_rhs(pn_scalars)
    ts = np.linspace(0.0, helix11.length, 37)
    thetas = np.linspace(-4.0, 7.0, 37)
    want_p = [rhs_prescribed(t, y, pn_scalars(t), phi(t)) for t, y in zip(ts, thetas)]
    want_s = [rhs_same_angle(t, y, pn_scalars(t)) for t, y in zip(ts, thetas)]
    for i, (t, y) in enumerate(zip(ts, thetas)):
        assert prescribed(t, y) == want_p[i]
        assert same(t, y) == want_s[i]
    np.testing.assert_allclose(prescribed(ts, thetas), want_p, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(same(ts, thetas), want_s, rtol=0.0, atol=1e-15)


def test_same_angle_table_rejects_zero_normal_curvature():
    flat = lambda ts: DarbouxScalars(0.3 + 0.0 * ts, np.where(ts >= 0.5, 0.0, 1.0), 0.4 + 0.0 * ts)
    with pytest.raises(NormalCurvatureZero, match="t=0.5"):
        solve_theta(same_angle_rhs(flat), 1.0, [0.0], grid_size=10)


def test_solution_residual_and_derivative(helix11, pn_scalars):
    rhs = same_angle_rhs(pn_scalars)
    sol = solve_theta(rhs, helix11.length, [2.0], grid_size=2000)[0]
    for t in (0.5, 3.0):  # off the nodes derivative(t) is F(t, theta(t)), so this is the ODE residual at t
        fd = central_difference(sol, t, 1, 1e-3)
        assert sol.derivative(t) == pytest.approx(float(fd), abs=1e-8)


def test_continuity_in_initial_condition(helix11, pn_scalars):
    phi = lambda t: np.pi / 4
    rhs = prescribed_angle_rhs(pn_scalars, phi)
    eps = 1e-6
    a = solve_theta(rhs, helix11.length, [0.3], grid_size=2000)[0]
    b = solve_theta(rhs, helix11.length, [0.3 + eps], grid_size=2000)[0]
    grid = helix11.grid(101)
    c = lipschitz_bound(pn_scalars(grid), phi(grid))
    gap = float(np.max(np.abs(a.values - b.values)))
    assert gap <= eps * np.exp(c * helix11.length) * (1.0 + 1e-6)


# ------------------------------------------------------------- Lipschitz bound


def test_lipschitz_bound_values(pn_scalars, helix11):
    grid = helix11.grid(41)
    scalars = pn_scalars(grid)
    assert lipschitz_bound(scalars, np.full(len(grid), np.pi / 2)) == pytest.approx(0.0, abs=1e-12)
    assert lipschitz_bound(scalars, np.full(len(grid), np.pi / 4)) == pytest.approx(0.5, abs=1e-9)


@given(finite, finite, st.floats(0.3, np.pi - 0.3), finite, finite)
@settings(deadline=None, max_examples=100)
def test_lipschitz_bound_controls_rhs_variation(kg, kn, phi, x, y):
    s = DarbouxScalars(kg, kn, 0.7)
    c = lipschitz_bound(s, phi)
    fx = rhs_prescribed(0.0, x, s, phi)
    fy = rhs_prescribed(0.0, y, s, phi)
    assert abs(fx - fy) <= c * abs(x - y) + 1e-12


# ---------------------------------------------------------------- closed forms


def test_case_b_zero_branch(helix11):
    psi = integrated_torsion(helix11)
    theta = closed_form_case_b(0.0, psi)
    assert np.max(np.abs(theta(np.linspace(0, helix11.length, 20)))) == 0.0


@pytest.mark.parametrize("q", [0.5, np.pi / 2, np.pi, 4.0, 6.0])
def test_case_b_initial_value(helix11, q):
    psi = integrated_torsion(helix11)
    theta = closed_form_case_b(q, psi)
    assert float(theta(0.0)) == pytest.approx(q, abs=1e-12)


def test_case_b_satisfies_its_equation(helix11):
    # theta' = tau (cos theta - 1) with tau = 1/2, checked by differencing
    psi = integrated_torsion(helix11)
    theta = closed_form_case_b(1.1, psi)
    for t in np.linspace(0.5, helix11.length - 0.5, 40):
        lhs = float(central_difference(theta, t, 1, 1e-3))
        rhs = 0.5 * (np.cos(float(theta(t))) - 1.0)
        assert abs(lhs - rhs) <= 1e-10


def test_helix_linear_solution_values():
    assert closed_form_helix_pi2(1.0, 0.0)(3.0) == 0.0
    theta = closed_form_helix_pi2(1.0, 1.0)
    L = 2 * np.pi * np.sqrt(2.0)
    for k in (1, 2):
        assert float(theta(k * L)) == pytest.approx(-np.pi * np.sqrt(2.0) * k, abs=1e-12)


def test_helix_linear_solution_rotated_scalars(helix11, pn11):
    # rotating the principal normal by theta(t) = -t/2 yields
    # kappa_n = (1/2) cos(t/2), kappa_g = -(1/2) sin(t/2), tau_g = 0
    theta = closed_form_helix_pi2(1.0, 1.0)
    from flatribbon.frames import RotatedNormalField

    field = RotatedNormalField(pn11, lambda t: float(theta(t)), lambda t: -0.5)
    for t in (0.5, 2.0, 5.0):
        sc = field.scalars(t)
        assert sc.kappa_n == pytest.approx(0.5 * np.cos(t / 2), abs=1e-10)
        assert sc.kappa_g == pytest.approx(-0.5 * np.sin(t / 2), abs=1e-10)
        assert sc.tau_g == pytest.approx(0.0, abs=1e-10)


# ------------------------------------------------------------- solved fields


def test_solved_field_matches_angle_of_base(knot, torus_field):
    # same-angle path: the rotated field keeps the base ruling slope
    from flatribbon.ribbon import mu_field

    field, sol = solved_rotation_field(torus_field, 0.8, grid_size=1000, scalars_grid=1001)
    assert float(sol(0.0)) == pytest.approx(0.8, abs=1e-12)
    mu_base = mu_field(knot, torus_field, grid_size=501)
    mu_rot = mu_field(knot, field, grid_size=501)
    assert np.max(np.abs(mu_base.values - mu_rot.values)) < 1e-5
