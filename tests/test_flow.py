"""The ruling-angle IVP as a linear SL(2) flow: ``solve_theta``.

theta' = a sin theta + b cos theta + c is the projective image of
(p, r)' = G (p, r), G = 1/2 [[a, b + c], [b - c, -a]]; the solver takes the
RK4 step matrices of that system through one prefix product and reads
theta(t; q) off for every q.  RK4 on theta itself (``reference_solve`` of
test_ivp.py) is the reference: the two discretizations differ at the order
of their Richardson estimates.
"""

import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatribbon import angleivp, cli
from flatribbon.angleivp import (
    ThetaFamily,
    ThetaSolution,
    prescribed_angle_rhs,
    same_angle_rhs,
    solve_theta,
    solved_rotation_field,
)
from flatribbon.curves import TorusKnotParams, make_torus_knot
from flatribbon.energy import limit_energy
from flatribbon.errors import StepSizeUnderflow
from flatribbon.frames import PrincipalNormalField, TorusNormalField, sampled_scalars
from flatribbon.numerics import Cubic, arccot, nested_stride, spline
from flatribbon.ribbon import mu_field
from test_grid_cache import EXAMPLE
from test_ivp import F, reference_solve
from test_numerics import reference_scan

QS = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)

# curve, phi: a constant, None for the same-angle form, "base" for the base ruling angle
CASES = {
    "helix_pi2": ("helix", np.pi / 2),
    "helix_same_angle": ("helix", None),
    "helix_phi_1.2": ("helix", 1.2),
    "knot_same_angle": ("knot", None),
    "knot_phi_1.0": ("knot", 1.0),
    "knot_phi_1.2": ("knot", 1.2),
    "knot_base_angle": ("knot", "base"),
}


@pytest.fixture(scope="module")
def bases(pn11, torus_field):
    return {"helix": pn11, "knot": torus_field}


def case_rhs(case, base, scalars_fn, grid):
    """The case's F on ``scalars_fn``; the base ruling angle from ``mu_field`` on a grid holding the stage nodes."""
    phi = CASES[case][1]
    if phi is None:
        return same_angle_rhs(scalars_fn)
    if phi == "base":
        mu = mu_field(base.curve, base, grid_size=(4 if grid % 2 else 2) * grid + 1)
        return prescribed_angle_rhs(scalars_fn, lambda t: arccot(mu(t)))
    return prescribed_angle_rhs(scalars_fn, lambda t: phi)


@pytest.fixture(scope="module")
def problems(bases):
    """problems(grid)[case] = (length, rhs), F read exactly off the 2 grid + 1 stage nodes.

    As in ``solved_rotation_field``, an odd grid's stage nodes nest in no 4k+1 grid, so F samples the field there.
    """

    @functools.cache
    def at(grid):
        out = {}
        for case, (curve_name, _) in CASES.items():
            base = bases[curve_name]
            scalars = base.sample if grid % 2 else sampled_scalars(base, 2 * grid + 1)
            out[case] = (base.curve.length, case_rhs(case, base, scalars, grid))
        return out

    return at


def within_twice_richardson(family, rhs, length, grid):
    """Whether every q has |theta_flow - theta_rk4| <= 2 x the larger Richardson estimate plus a rounding floor.

    The floor grid * eps * max|theta| covers the rounding that either solver
    adds over its grid steps; the Richardson estimates cannot see it, and
    they fall below 1e-16 where theta barely moves.
    """
    values, estimates = reference_solve(rhs, length, family.qs, grid)
    gap = np.max(np.abs(family.values - values), axis=1)
    floor = grid * np.finfo(float).eps * np.max(np.abs(values), axis=1)
    return bool(np.all(gap <= 2.0 * np.maximum(family.error_estimates, estimates) + floor))


@pytest.mark.parametrize("grid", [400, 401, 2000])
@pytest.mark.parametrize("case", sorted(CASES))
def test_family_matches_rk4_within_twice_richardson(case, grid, problems):
    length, rhs = problems(grid)[case]
    family = solve_theta(rhs, length, QS, grid)
    assert family.values.shape == (len(QS), grid + 1)
    assert within_twice_richardson(family, rhs, length, grid)


@pytest.mark.parametrize("grid", [400, 401, 2000])
@pytest.mark.parametrize("case", sorted(CASES))
def test_estimate_bounds_the_error_of_every_family(case, grid, problems, bases):
    # the reference takes 4x the steps on the field itself, so no error of the table hides from the estimate;
    # the floor is the family's rounding, which the estimate of a theta that stays near 0 cannot see
    length, rhs = problems(grid)[case]
    base = bases[CASES[case][0]]
    family = solve_theta(rhs, length, QS, grid)
    reference = solve_theta(case_rhs(case, base, base.sample, 4 * grid), length, QS, 4 * grid)
    error = np.max(np.abs(family.values - reference.values[:, ::4]), axis=1)
    floor = grid * np.finfo(float).eps * np.max(np.abs(family.values))
    assert np.all(error <= 1.1 * family.error_estimates + floor)


@pytest.mark.parametrize("grid", [400, 401])
@pytest.mark.parametrize("case", sorted(set(CASES) - {"helix_same_angle"}))
def test_richardson_estimate_is_the_error(case, grid, problems):
    # a 4th-order error e_n has e_{n/2} - e_n = 15 e_n, so the gap over 15 is e_n; the same-angle helix flow is exact;
    # an odd n double-steps all but its last step
    length, rhs = problems(grid)[case]
    family = solve_theta(rhs, length, QS, grid)
    fine = solve_theta(problems(8 * grid)[case][1], length, QS, 8 * grid)
    error = np.max(np.abs(family.values - fine.values[:, ::8]), axis=1)
    resolved = error > 1e-12  # theta = 0 solves the same-angle IVP from q = 0
    assert np.count_nonzero(resolved) >= len(QS) - 1
    ratio = family.error_estimates[resolved] / error[resolved]
    assert np.all((0.96 <= ratio) & (ratio <= 1.035))


@pytest.mark.parametrize("case", sorted(CASES))
def test_family_starts_at_q_and_keeps_the_order_of_q(case, problems):
    length, rhs = problems(400)[case]
    family = solve_theta(rhs, length, QS, 400)
    assert np.array_equal(family.values[:, 0], QS)
    assert np.all(np.diff(family.values, axis=0) > 0.0)


def test_shift_by_two_pi_shifts_theta(problems):
    length, rhs = problems(400)["knot_same_angle"]
    family = solve_theta(rhs, length, QS, 400)
    shifted = solve_theta(rhs, length, QS + 2.0 * np.pi, 400)
    assert np.max(np.abs(shifted.values - family.values - 2.0 * np.pi)) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [0, 1, 2])
def test_nonfinite_coefficients_raise_without_warnings(entry, bad):
    coefficients = [0.3, -0.2, 0.5]
    coefficients[entry] = bad
    rhs = lambda ts: tuple(coefficients)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepSizeUnderflow):
            solve_theta(rhs, 1.0, [0.0, 1.0], 50)


@pytest.mark.parametrize("node", [400, 402, 401], ids=["step_node", "half_step_stage", "midpoint"])
def test_one_nan_mid_interval_raises(node):
    # of the 801 stage nodes, 400 is a step node of both runs, 402 a step node of run 0 and the half-step stage
    # of one of run 1's double steps, and 401 a midpoint that run 0 alone reads: its NaN reaches only run 0
    def rhs(ts):
        a = np.full(ts.shape, 0.3)
        a[node] = np.nan
        return a, -0.2, 0.5

    with pytest.raises(StepSizeUnderflow):
        solve_theta(rhs, 1.0, [0.0, 1.0], 400)


def test_rk4_propagators_are_bitwise_the_out_of_place_formula(rng):
    g0, gm, g1 = rng.normal(size=(3, 2, 2, 57))
    h = 0.0173
    mm = lambda x, y: np.einsum("ij...,jk...->ik...", x, y)
    k2 = gm + 0.5 * h * mm(gm, g0)
    k3 = gm + 0.5 * h * mm(gm, k2)
    k4 = g1 + h * mm(g1, k3)
    want = np.eye(2)[..., None] + h / 6.0 * (g0 + 2.0 * k2 + 2.0 * k3 + k4)
    got = angleivp._rk4_propagators(g0, gm, g1, h)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_rk4_propagators_broadcast_over_batch_axes(rng):
    # a (2, 2, 2, 57) table gives, along its batch axis, bitwise the step matrices of its two (2, 2, 57) tables
    g0, gm, g1 = rng.normal(size=(3, 2, 2, 2, 57))
    got = angleivp._rk4_propagators(g0.copy(), gm.copy(), g1.copy(), 0.0173)
    for run in (0, 1):
        want = angleivp._rk4_propagators(g0[:, :, run].copy(), gm[:, :, run].copy(), g1[:, :, run].copy(), 0.0173)
        assert got[:, :, run].tobytes() == want.tobytes()


STIFF = lambda ts: (40.0, 0.3, 0.1)  # (p, r) grows like exp(20 t): exp(800) over [0, 40]


def test_rescaled_products_keep_a_stiff_flow_finite(monkeypatch):
    qs = QS[::4]
    family = solve_theta(STIFF, 40.0, qs, 2000)
    assert np.all(np.isfinite(family.values))
    assert within_twice_richardson(family, STIFF, 40.0, 2000)
    # without the rescale the products overflow and theta is NaN
    monkeypatch.setattr(angleivp, "prefix_products", lambda m: reference_scan(m, rescale=False))
    with pytest.raises(StepSizeUnderflow):
        solve_theta(STIFF, 40.0, qs, 2000)


def test_items_are_theta_solutions(problems):
    length, rhs = problems(200)["helix_phi_1.2"]
    family = solve_theta(rhs, length, [0.3, 2.0], 200)
    assert isinstance(family, ThetaFamily) and len(family) == 2
    items = list(family)
    assert all(isinstance(item, ThetaSolution) for item in items)
    assert np.array_equal(items[1].values, family.values[1])
    assert items[1].error_estimate == family.error_estimates[1]
    assert np.array_equal(items[1].derivatives, F(rhs, family.ts, family.values[1]))
    assert family[-1].values[0] == 2.0
    with pytest.raises(IndexError):
        family[2]


@pytest.mark.parametrize("scale", [1e-6, 1e6, 1e9])
def test_scaled_knot_solves_the_same_form_and_angle(scale, knot):
    # min|kappa_n| L picks the form and |kappa_n| <= 1e-9 hypot(kappa_g, kappa_n) guards it, both free of scale
    def solve(curve):
        base = TorusNormalField(curve)
        sol = solved_rotation_field(base, 0.7, grid_size=400, scalars_grid=401)[1]
        return [kind for kind, _ in base._grid_tables if kind[0] == "flow"], sol

    want_forms, want = solve(knot)
    got_forms, got = solve(make_torus_knot(TorusKnotParams(2.0 * scale, scale)))
    assert want_forms == got_forms == [("flow", "same_angle")]
    assert np.max(np.abs(got.values - want.values)) <= 1e-12


def test_same_angle_test_reads_the_grid_table(monkeypatch, helix11):
    # min|kappa_n| and the 2n+1 stage coefficients come from frame tables, so no spline is evaluated
    shapes = []
    original = Cubic.__call__

    def counted(self, t, nu=0):
        shapes.append(np.shape(t))
        return original(self, t, nu)

    monkeypatch.setattr(Cubic, "__call__", counted)
    solved_rotation_field(PrincipalNormalField(helix11), 0.7, grid_size=400, scalars_grid=401)
    assert shapes == []


# ---------------------------------------------------------------- kept flow


def counted_scans(monkeypatch):
    """A list that gains one entry per prefix_products scan, that is per flow built."""
    scans = []
    original = angleivp.prefix_products
    monkeypatch.setattr(angleivp, "prefix_products", lambda m: scans.append(1) or original(m))
    return scans


def solve_on(base, q, phi):
    return solved_rotation_field(base, q, grid_size=400, scalars_grid=401, phi=phi)[1]


def assert_same_solution(got, want):
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.derivatives, want.derivatives)
    assert got.error_estimate == want.error_estimate


@pytest.mark.parametrize("phi", [None, 1.2], ids=["same_angle", "phi_1.2"])
def test_second_q_reads_the_kept_flow(phi, monkeypatch, helix11):
    scans = counted_scans(monkeypatch)
    base = PrincipalNormalField(helix11)
    prescribe = None if phi is None else (lambda t: phi)
    solve_on(base, 0.3, prescribe)
    assert len(scans) == 1
    second = solve_on(base, 2.0, None if phi is None else (lambda t: phi))  # a new callable, the same table
    assert len(scans) == 1
    assert_same_solution(second, solve_on(PrincipalNormalField(helix11), 2.0, prescribe))


def test_alternating_forms_keep_one_flow_each(monkeypatch, helix11):
    # the helix_q_family pattern: same-angle and phi = pi/2 jobs alternate on one base field
    scans = counted_scans(monkeypatch)
    base = PrincipalNormalField(helix11)
    for q, phi in ((0.3, None), (1.1, np.pi / 2), (2.5, None), (4.0, np.pi / 2)):
        solve_on(base, q, None if phi is None else (lambda t, phi=phi: phi))
    assert len(scans) == 2


def test_a_new_phi_rebuilds_the_flow(monkeypatch, helix11):
    scans = counted_scans(monkeypatch)
    base = PrincipalNormalField(helix11)
    solve_on(base, 0.7, lambda t: 1.2)
    got = solve_on(base, 0.7, lambda t: 1.0)
    assert len(scans) == 2
    assert_same_solution(got, solve_on(PrincipalNormalField(helix11), 0.7, lambda t: 1.0))


def counted_tables(monkeypatch):
    """A list that gains one entry per coefficient table built."""
    tables = []
    original = angleivp._coefficient_table
    monkeypatch.setattr(angleivp, "_coefficient_table", lambda rhs, nodes: tables.append(1) or original(rhs, nodes))
    return tables


@pytest.mark.parametrize("phi", [None, 1.2], ids=["same_angle", "phi_array_1.2"])
def test_a_reuse_call_builds_no_coefficient_table(phi, monkeypatch, helix11):
    # the kept flow is keyed by its inputs: the form, and for a prescribed phi its values on the stage nodes
    scans, tables = counted_scans(monkeypatch), counted_tables(monkeypatch)
    base = PrincipalNormalField(helix11)
    prescribe = lambda: None if phi is None else (lambda t: np.full(np.shape(t), phi))  # a new callable each call
    first = solve_on(base, 0.7, prescribe())
    second = solve_on(base, 0.7, prescribe())
    assert len(scans) == len(tables) == 1
    assert_same_solution(second, first)


def test_a_phi_one_node_off_rebuilds_the_flow(monkeypatch, helix11):
    scans = counted_scans(monkeypatch)
    base = PrincipalNormalField(helix11)

    def nudged(t):
        phi = np.full(np.shape(t), 1.2)
        phi[len(phi) // 2] = np.nextafter(1.2, 2.0)
        return phi

    solve_on(base, 0.7, lambda t: np.full(np.shape(t), 1.2))
    got = solve_on(base, 0.7, nudged)
    assert len(scans) == 2
    assert_same_solution(got, solve_on(PrincipalNormalField(helix11), 0.7, nudged))


def test_a_nan_phi_rebuilds_and_raises_on_every_call(monkeypatch, helix11):
    scans = counted_scans(monkeypatch)
    base = PrincipalNormalField(helix11)
    for calls in (1, 2):
        with pytest.raises(StepSizeUnderflow):
            solve_on(base, 0.7, lambda t: np.full(np.shape(t), np.nan))
        assert len(scans) == calls


def test_odd_and_even_grids_keep_their_own_flows(helix11):
    # 2n + 1 stage nodes: an odd n's 35 are no 4k+1 grid, and n = 17 runs 17 steps, not those of n = 18
    base = PrincipalNormalField(helix11)
    sols = [solved_rotation_field(base, 0.7, grid_size=n, scalars_grid=401)[1] for n in (17, 18)]
    assert [len(sol.values) for sol in sols] == [18, 19]
    flows = {size: table[1] for (kind, size), table in base._grid_tables.items() if kind[0] == "flow"}
    assert sorted(flows) == [35, 37] and [flows[35].images.shape[-1], flows[37].images.shape[-1]] == [18, 19]
    assert np.array_equal(sols[0].ts, np.linspace(0.0, helix11.length, 18))


def test_a_field_keeps_one_flow_per_form(helix11):
    base = PrincipalNormalField(helix11)
    for phi in (0.6, 0.9, 1.2, 1.5, 2.1):
        solve_on(base, 0.7, lambda t, phi=phi: phi)
    solve_on(base, 0.7, None)
    flows = [kind for kind, _ in base._grid_tables if kind[0] == "flow"]
    assert sorted(flows) == [("flow", "prescribed"), ("flow", "same_angle")]


@pytest.mark.parametrize("grid", [400, 2000])
@pytest.mark.parametrize("phi", [None, 1.2], ids=["same_angle", "phi_1.2"])
def test_estimate_bounds_the_error_of_the_exact_table(phi, grid, knot):
    # the reference takes 4x the steps on the field itself, so no interpolation error hides from the estimate
    base = TorusNormalField(knot)
    prescribe = None if phi is None else (lambda t: phi)
    sol = solved_rotation_field(base, 0.7, grid_size=grid, scalars_grid=grid + 1, phi=prescribe)[1]
    rhs = same_angle_rhs(base.sample) if phi is None else prescribed_angle_rhs(base.sample, prescribe)
    reference = solve_theta(rhs, knot.length, [0.7], 4 * grid)
    error = np.max(np.abs(sol.values - reference.values[0, ::4]))
    assert error <= 1.1 * sol.error_estimate


# ---------------------------------------------------------------- lazy spline


def test_solve_command_builds_no_theta_spline(tmp_path, monkeypatch):
    built = []
    monkeypatch.setattr(angleivp, "spline", lambda *args: built.append(args))
    assert cli.main(["solve", "--config", EXAMPLE, "--out", str(tmp_path), "--q", "0.7"]) == 0
    assert built == []


def test_lazy_spline_equals_the_eager_one_bit_for_bit(helix11, pn11):
    rhs = prescribed_angle_rhs(sampled_scalars(pn11, 4 * 400 + 1), lambda t: 1.2)
    sol = solve_theta(rhs, helix11.length, [0.7], 400)[0]
    assert "_spline" not in vars(sol)
    mids = 0.5 * (sol.ts[:-1] + sol.ts[1:])
    got = sol(mids)
    assert "_spline" in vars(sol)  # built once, then kept
    eager = spline(sol.ts, sol.values)
    assert np.array_equal(sol._spline._table, eager._table)
    assert np.array_equal(got, eager(mids))
    assert np.array_equal(sol.derivative(mids), F(rhs, mids, eager(mids)))


# ---------------------------------------------------------------- node table


@pytest.mark.parametrize("case", sorted(CASES))
def test_nested_grids_read_the_node_table(case, problems, bases):
    length, rhs = problems(400)[case]
    curve = bases[CASES[case][0]].curve
    family = solve_theta(rhs, length, [0.3, 2.0], 400)
    for values, derivatives in ((family.values, family.derivatives), (family[1].values, family[1].derivatives)):
        for table in (values, derivatives):
            with pytest.raises(ValueError):
                table[0] = 0.0
    sol = family[1]
    eager = spline(sol.ts, sol.values)
    for m in (401, 201, 101):
        t = curve.grid(m)
        theta, dtheta = sol(t), sol.derivative(t)
        for got, table in ((theta, sol.values), (dtheta, sol.derivatives)):
            assert np.shares_memory(got, table) and not got.flags.writeable
            assert np.array_equal(got, table[:: 400 // (m - 1)])
        # interior nodes: the spline returns its node value and F sees the same t
        want = eager(t)
        assert np.array_equal(theta[:-1], want[:-1])
        assert np.array_equal(dtheta[:-1], F(rhs, t, want)[:-1])
        # at t = L the spline's last piece may round differently
        assert abs(theta[-1] - want[-1]) <= 1e-13 * max(1.0, abs(want[-1]))
    assert "_spline" not in vars(sol)


@pytest.mark.parametrize("case", ["helix_phi_1.2", "knot_same_angle"])
def test_other_arguments_read_the_spline(case, problems, bases):
    length, rhs = problems(400)[case]
    curve = bases[CASES[case][0]].curve
    sol = solve_theta(rhs, length, [0.7], 400)[0]
    eager = spline(sol.ts, sol.values)
    grid = curve.grid(201)
    # stride 10, the 400-point mesh grid, a scalar, a 2-D array and off the nodes
    mesh = np.linspace(0.0, length, 400)
    for t in (curve.grid(41), mesh, 0.5 * length, np.stack([grid, grid[::-1]]), grid[:-1] + 1e-3):
        theta, dtheta = sol(t), sol.derivative(t)
        assert not np.shares_memory(theta, sol.values) and not np.shares_memory(dtheta, sol.derivatives)
        assert np.array_equal(theta, eager(t))
        assert np.array_equal(dtheta, F(rhs, t, eager(t)))
    assert "_spline" in vars(sol)


@pytest.mark.parametrize("field", [PrincipalNormalField, TorusNormalField])
def test_rotated_field_on_nested_grids_builds_no_theta_spline(field, helix11, knot):
    # solved_rotation_field and limit_energy as in the helix_q_family benchmark
    base = field(knot if field is TorusNormalField else helix11)
    rotated, solution = solved_rotation_field(base, 0.7, grid_size=400, scalars_grid=401)
    report = limit_energy(base.curve, rotated, 0.1, n_t=201)
    assert np.isfinite(report.value)
    assert "_spline" not in vars(solution)


def test_rk4_solution_tables_are_read_only(problems):
    length, rhs = problems(200)["helix_phi_1.2"]
    sol = solve_theta(rhs, length, [0.7], 200)[0]
    assert np.shares_memory(sol(sol.ts[::2]), sol.values)
    for table in (sol.ts, sol.values, sol.derivatives):
        with pytest.raises(ValueError):
            table[0] = 0.0


def test_family_keeps_the_callers_angles_writable(problems):
    length, rhs = problems(100)["helix_phi_1.2"]
    qs = np.array([0.3, 2.0])
    family = solve_theta(rhs, length, qs, 100)
    qs[0] = 0.4
    assert family.qs[0] == 0.3 and not family.qs.flags.writeable


def test_nested_stride_rejects_what_is_not_a_grid():
    nodes = np.linspace(0.0, 2.0, 401)
    assert nested_stride(nodes, nodes) == 1
    assert nested_stride(nodes, nodes[::4].copy()) == 4
    off = nodes[::8].copy()
    off[7] = np.nextafter(off[7], 3.0)
    assert nested_stride(nodes, off) is None  # one node one bit off
    assert nested_stride(nodes, np.linspace(0.0, 2.0, 41)) is None  # stride 10
    for t in (1.0, nodes[:1], nodes[None, ::4], np.linspace(0.0, 2.0, 400), nodes[:201]):
        assert nested_stride(nodes, t) is None


@given(st.floats(1e-6, 1e6), st.integers(1, 250), st.sampled_from([1, 2, 3, 4, 8, 10]))
@settings(deadline=None, max_examples=200)
def test_nested_stride_is_the_bitwise_check_at_powers_of_two(length, k, s):
    m = 4 * k + 1  # <= 1001 nodes, as curve.grid gives them
    nodes, t = np.linspace(0.0, length, s * (m - 1) + 1), np.linspace(0.0, length, m)
    got = nested_stride(nodes, t)
    if s & (s - 1):
        assert got is None
    else:
        assert got == (s if np.array_equal(nodes[::s], t) else None)
