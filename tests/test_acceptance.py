"""End-to-end acceptance checks.

Each test covers one headline capability of the package, prints a single
pass/fail line with the measured quantity and its tolerance, and asserts
the stated bound.  Run with ``pytest -v`` to get one line per criterion.
"""

import time

import numpy as np
import pytest

from flatribbon.angleivp import (
    closed_form_case_b,
    closed_form_helix_pi2,
    integrated_torsion,
    prescribed_angle_rhs,
    same_angle_rhs,
    solve_theta,
    solved_rotation_field,
)
from flatribbon.curves import HelixParams, make_helix
from flatribbon.energy import (
    bending_energy_closed,
    bending_energy_quadrature,
    case_a_energy,
    case_a_extrema,
    case_b_energy,
    energy_bound,
    helix_ratio_a,
    helix_ratio_b,
    limit_energy,
)
from flatribbon.frames import (
    DarbouxScalars,
    PrincipalNormalField,
    RotatedNormalField,
    frenet_rotation_field,
    isometric_partner_angle,
    rotate,
    sampled_scalars,
)
from flatribbon.numerics import arccot
from flatribbon.ribbon import (
    construct_ribbon,
    flatness_residuals,
    max_regular_width,
    mu_field,
    ruling_angle,
)
from flatribbon.validate import run_checks


def report(label, measured, bound, passed=None):
    if passed is None:
        passed = measured <= bound
    verdict = "PASS" if passed else "FAIL"
    print(f"[acceptance] {label}: measured={measured:.6e} bound={bound:.6e} {verdict}")
    return passed


# 1. Fixed-step RK4 reproduces the linear solution of the right-angle ruling
#    equation on a helix.
def test_criterion_01_helix_right_angle_ivp(helix11, pn11):
    scalars = sampled_scalars(pn11, 4 * 2000 + 1)  # exact at every stage node of the 2000-step runs
    rhs = prescribed_angle_rhs(scalars, lambda t: np.pi / 2)
    sol = solve_theta(rhs, helix11.length, [0.0], grid_size=2000)[0]
    exact = closed_form_helix_pi2(1.0, 1.0)
    err = float(np.max(np.abs(sol.values - exact(sol.ts))))
    assert report("helix right-angle IVP vs closed form", err, 1e-6)


# 2. The same-angle equation integrates to the cotangent-shift closed form for
#    several starting angles.
def test_criterion_02_same_angle_closed_form(helix11, pn11):
    scalars = sampled_scalars(pn11, 4 * 2000 + 1)  # exact at every stage node of the 2000-step runs
    rhs = same_angle_rhs(scalars)
    psi = integrated_torsion(helix11)
    worst = 0.0
    for q in (np.pi / 4, np.pi / 2, np.pi, 3 * np.pi / 2):
        sol = solve_theta(rhs, helix11.length, [q], grid_size=2000)[0]
        exact = closed_form_case_b(q, psi)
        worst = max(worst, float(np.max(np.abs(sol.values - exact(sol.ts)))))
    assert report("same-angle IVP vs closed form (4 starts)", worst, 1e-6)


# 3. A one-parameter family of flat ribbons on the torus knot shares the ruling
#    angle of the torus-tangent ribbon.
def test_criterion_03_prescribed_angle_family(knot, torus_field):
    mu_base = mu_field(knot, torus_field, grid_size=2001)
    phi = lambda t: arccot(mu_base(t))
    worst_residual = 0.0
    worst_angle = 0.0
    for q in (-np.pi / 2, -np.pi / 3, -np.pi / 6):
        field, _ = solved_rotation_field(
            torus_field, q, grid_size=2000, scalars_grid=2001, phi=phi
        )
        w = 0.5 * max_regular_width(knot, field, grid_size=1001)
        rib = construct_ribbon(knot, field, w, grid_size=1001)
        rep = flatness_residuals(rib, 101)
        worst_residual = max(worst_residual, rep.ruling_in_plane, rep.tangent_plane)
        for t in knot.grid(401):
            if abs(field.scalars(t).kappa_n) > 1e-4:
                worst_angle = max(worst_angle, abs(ruling_angle(rib, t) - phi(t)))
    ok = report("ribbon family flatness residuals", worst_residual, 1e-7)
    ok &= report("ribbon family ruling angle error", worst_angle, 1e-5)
    assert ok


# 4. The logarithmic closed form of the bending energy agrees with a double
#    Simpson quadrature of H^2 dA.
def test_criterion_04_energy_oracle_equivalence(knot, torus_field):
    w = 0.5 * max_regular_width(knot, torus_field, grid_size=2001)
    rib = construct_ribbon(knot, torus_field, w, grid_size=2001)
    ec = bending_energy_closed(rib, n_t=2001).value
    eq = bending_energy_quadrature(rib, n_t=2001, n_u=41).value
    rel = abs(ec - eq) / abs(ec)
    assert report("closed form vs quadrature (relative)", rel, 1e-6)


# 5. The per-width energy approaches the zero-width limit quadratically.
def test_criterion_05_limit_energy_rate(knot, torus_field):
    w = max_regular_width(knot, torus_field, grid_size=2001) / 8.0
    e0 = limit_energy(knot, torus_field, 1.0, n_t=2001).value
    gaps = []
    for wk in (w, w / 2):
        rib = construct_ribbon(knot, torus_field, wk, grid_size=2001)
        gaps.append(bending_energy_closed(rib, n_t=2001).value / wk - e0)
    ratio = gaps[0] / gaps[1]
    ok = 3.5 <= ratio <= 4.5
    assert report("Richardson ratio of (e(w)-e0)", ratio, 4.5, ok)


# 6. The rectifying strip of a helix hits the degenerate flat branch and its
#    energy equals w L / (2 a^2) exactly.
def test_criterion_06_helix_rectifying_energy():
    worst = 0.0
    for a, b, w in ((1.0, 1.0, 0.1), (3.0, 4.0, 0.05)):
        helix = make_helix(HelixParams(a, b))
        rib = construct_ribbon(helix, PrincipalNormalField(helix), w, grid_size=801)
        got = bending_energy_closed(rib, n_t=801)
        assert got.method == "special_case_lambda_zero"
        want = w * helix.length / (2.0 * a * a)
        worst = max(worst, abs(got.value - want) / want)
    assert report("rectifying helix energy (relative)", worst, 1e-12)


# 7. Constant-rotation energy extrema: the analytic critical angles and values
#    match a dense grid scan, including both degenerate branches.
def test_criterion_07_constant_rotation_extrema(helix11, pn11, circle):
    field = RotatedNormalField(pn11, lambda t: -0.5 * t, lambda t: -0.5)
    w = 0.1
    ex = case_a_extrema(helix11, field, w, n_t=2001)
    qs = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
    energies = np.array([case_a_energy(helix11, field, q, w, n_t=2001) for q in qs])
    dq = qs[1] - qs[0]

    def cell_distance(q_grid, q_exact):
        return min(abs(q_grid - q_exact - k * np.pi) for k in range(-2, 4))

    assert len(ex.q_candidates) == 2
    q_hi, q_lo = ex.q_candidates
    loc_err = max(
        cell_distance(qs[int(np.argmax(energies))], q_hi),
        cell_distance(qs[int(np.argmin(energies))], q_lo),
    )
    val_err = max(
        abs(case_a_energy(helix11, field, q_hi, w, n_t=2001) - ex.e_max) / ex.e_max,
        abs(case_a_energy(helix11, field, q_lo, w, n_t=2001) - ex.e_min) / ex.e_min,
    )
    ok = report("extrema location error (grid cells)", loc_err / dq, 1.0)
    ok &= report("extrema value error (relative)", val_err, 1e-8)
    ok &= float(np.max(energies)) <= ex.e_max * (1.0 + 1e-12)
    ok &= float(np.min(energies)) >= ex.e_min * (1.0 - 1e-12)

    # degenerate branch B = 0: the circle strip extremizes on the axes
    exc = case_a_extrema(circle, PrincipalNormalField(circle), w, n_t=801)
    ok &= exc.q_candidates == (0.0, np.pi / 2)
    ok &= abs(exc.e_max - 0.5 * w * circle.length) <= 1e-12
    ok &= exc.e_min <= 1e-12

    # degenerate branch A = B = 0: one-period helix, energy independent of q
    short = make_helix(HelixParams(1.0, 1.0, length=2 * np.pi))
    dfield = RotatedNormalField(
        PrincipalNormalField(short), lambda t: -0.5 * t, lambda t: -0.5
    )
    exd = case_a_extrema(short, dfield, w, n_t=801)
    ok &= exd.q_candidates == ()
    ok &= abs(exd.e_max - w * np.pi / 8.0) / (w * np.pi / 8.0) <= 1e-10
    assert ok


# 8. Normalized helix energy ratios: closed forms vs direct quadrature, plus
#    the large-r flattening of both families.
def test_criterion_08_helix_energy_ratios():
    ok = report(
        "ratio_b(pi, 1) vs 2 - pi/2",
        abs(helix_ratio_b(np.pi, 1.0) - (2.0 - np.pi / 2.0)),
        1e-10,
    )
    qs = np.linspace(0.0, 2 * np.pi, 65, endpoint=False)[1:]
    w = 0.1
    worst = 0.0
    for r in (1.0, 2.0, 3.0, 4.0):
        helix = make_helix(HelixParams(1.0, 1.0, length=2.0 * r))
        base = w * helix.length / 2.0  # rectifying energy with a = 1
        for q in qs:
            got = case_b_energy(helix, q, w, n_t=2001) / base
            want = helix_ratio_b(q, r)
            worst = max(worst, abs(got - want) / abs(want))
    ok &= report("quadrature vs ratio_b (relative, 4 radii)", worst, 1e-6)
    ok &= helix_ratio_a(0.0, 2.0) == 1.0
    big = max(
        max(abs(helix_ratio_a(q, 1e4) - 1.0) for q in qs),
        max(abs(helix_ratio_b(q, 1e4) - 1.0) for q in qs),
    )
    ok &= report("both ratios near 1 at r = 1e4", big, 1e-3)
    assert ok


# 9. Energy comparison bounds across the two constant-ruling-angle families.
def test_criterion_09_energy_bounds(helix11, pn11):
    w = 0.1
    qs = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    psi = integrated_torsion(helix11)
    base_a = RotatedNormalField(pn11, lambda t: -0.5 * t, lambda t: -0.5)
    all_ok = True
    ratio_checked = 0
    for q in qs:
        # right-angle family: constant extra rotation by q
        rep = energy_bound(helix11, base_a, RotatedNormalField(base_a, q), w, n_t=501)
        all_ok &= rep.satisfied
        if rep.ratio_bound is not None:
            ratio_checked += 1
            all_ok &= rep.energy_other <= rep.ratio_bound * rep.energy_base + 1e-12
        # rectifying-angle family: the cotangent-shift rotation
        theta = closed_form_case_b(q, psi)
        field = RotatedNormalField(
            pn11,
            theta,
            lambda t, th=theta: 0.5 * (np.cos(th(t)) - 1.0),
        )
        rep = energy_bound(helix11, pn11, field, w, n_t=501)
        all_ok &= rep.satisfied
        if rep.ratio_bound is not None:
            all_ok &= rep.energy_other <= rep.ratio_bound * rep.energy_base + 1e-12
    assert ratio_checked > 0
    assert report("additive and ratio bounds on 2x64 sweeps", 0.0 if all_ok else 1.0, 0.0, all_ok)


# 10. The partner rotation angle preserves geodesic curvature, both on random
#     scalar data and along an actual helix ribbon pair.
def test_criterion_10_isometric_pairs(helix11, rng):
    worst = 0.0
    done = 0
    while done < 100:
        kg, kn, tg = rng.normal(size=3)
        if np.hypot(kg, kn) < 1e-6:
            continue
        s = DarbouxScalars(kg, kn, tg)
        partner = rotate(s, isometric_partner_angle(s))
        worst = max(worst, abs(partner.kappa_g - s.kappa_g))
        done += 1
    ok = report("random pairs kappa_g mismatch", worst, 1e-12)
    field = frenet_rotation_field(helix11, 0.7)
    qbar = isometric_partner_angle(field.scalars(0.0))
    partner_field = RotatedNormalField(field, qbar)
    gap = max(
        abs(partner_field.scalars(t).kappa_g - field.scalars(t).kappa_g)
        for t in helix11.grid(101)
    )
    ok &= report("helix partner kappa_g mismatch", gap, 1e-10)
    assert ok


# 11. The built-in validation suite runs clean and fast.
def test_criterion_11_validation_suite():
    start = time.monotonic()
    checks = run_checks()
    elapsed = time.monotonic() - start
    assert len(checks) > 0
    all_ok = all(c.passed for c in checks)
    ok = report("validation checks failed", sum(not c.passed for c in checks), 0, all_ok)
    ok &= report("validation wall time (s)", elapsed, 300.0)
    assert ok
