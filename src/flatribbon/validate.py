"""Self-contained invariant checks backing the `ribbon validate` command.

Each check returns its measured value and bound; the CLI prints one line
per check and exits nonzero if any fails.  A fault mode deliberately
perturbs the ruling field so the harness can prove it detects
non-flatness.
"""

from dataclasses import dataclass

import numpy as np

from . import angleivp, energy, ribbon as ribbon_mod
from .curves import HelixParams, TorusKnotParams, make_helix, make_torus_knot
from .frames import DarbouxScalars, PrincipalNormalField, RotatedNormalField, RotationMinimizingField, TorusNormalField
from .frames import isometric_partner_angle, rotate, sampled_scalars
from .numerics import cross, rowdot, rownorm

__all__ = ["Check", "run_checks"]


@dataclass(frozen=True)
class Check:
    name: str
    measured: float
    bound: float

    @property
    def passed(self):
        return self.measured <= self.bound


def _unit_speed_defect(curve, n=301):
    return float(np.max(np.abs(rownorm(curve.derivative(curve.grid(n), 1)) - 1.0)))


def run_checks(fault="none"):
    """Run the invariant suite; returns a list of Check results."""
    rng = np.random.default_rng(20220829)
    checks = []
    helix = make_helix(HelixParams(1.0, 1.0))
    pn = PrincipalNormalField(helix)

    checks.append(Check("unit_speed_helix", _unit_speed_defect(helix), 1e-8))

    knot = make_torus_knot(TorusKnotParams())
    checks.append(Check("unit_speed_torus_knot", _unit_speed_defect(knot, 201), 1e-8))

    fr = RotationMinimizingField(helix).sample(helix.grid(101))
    basis = np.stack([fr.T, fr.H, fr.N], axis=-2)
    gram = basis @ np.swapaxes(basis, -1, -2)
    handedness = rowdot(cross(fr.T, fr.H), fr.N)
    defect = max(float(np.max(np.abs(gram - np.eye(3)))), float(np.max(np.abs(handedness - 1.0))))
    checks.append(Check("frame_orthonormality", defect, 1e-10))

    ts = helix.grid(41)
    kappa = rownorm(helix.derivative(ts, 2))
    worst = 0.0
    for q in rng.uniform(0.0, 2.0 * np.pi, 5):
        fr = RotatedNormalField(pn, float(q)).sample(ts)
        worst = max(worst, float(np.max(np.abs(fr.kappa_g**2 + fr.kappa_n**2 - kappa**2))))
    checks.append(Check("pythagoras", worst, 1e-8))

    s = DarbouxScalars(*rng.normal(size=(3, 100)))
    t1, t2, d1, d2 = rng.normal(size=(4, 100))
    composed = rotate(rotate(s, t1, d1), t2, d2)
    direct = rotate(s, t1 + t2, d1 + d2)
    gaps = [getattr(composed, k) - getattr(direct, k) for k in ("kappa_g", "kappa_n", "tau_g")]
    checks.append(Check("rotation_group_action", float(np.max(np.abs(gaps))), 1e-12))

    s = DarbouxScalars(*rng.normal(size=(3, 100)))
    r = rotate(s, rng.uniform(0, 2 * np.pi, 100))
    worst = float(np.max(np.abs(r.kappa_g**2 + r.kappa_n**2 - (s.kappa_g**2 + s.kappa_n**2))))
    checks.append(Check("rotate_norm_invariance", worst, 1e-12))

    scalars_fn = sampled_scalars(pn, 2 * 2000 + 1)  # exact at every stage node of the 2000- and 1000-step runs
    rhs = angleivp.prescribed_angle_rhs(scalars_fn, lambda t: np.pi / 2.0)
    sol = angleivp.solve_theta(rhs, helix.length, [0.0], 2000)[0]
    exact = angleivp.closed_form_helix_pi2(1.0, 1.0)
    checks.append(Check("helix_ivp_pi2", float(np.max(np.abs(sol.values - exact(sol.ts)))), 1e-6))

    rhs_b = angleivp.same_angle_rhs(scalars_fn)
    sol_b = angleivp.solve_theta(rhs_b, helix.length, [np.pi / 2], 2000)[0]
    psi = angleivp.integrated_torsion(helix)
    exact_b = angleivp.closed_form_case_b(np.pi / 2, psi)
    checks.append(Check("case_b_closed_form", float(np.max(np.abs(sol_b.values - exact_b(sol_b.ts)))), 1e-6))

    # Gronwall continuity in the initial condition
    phi = lambda t: np.pi / 4.0
    rhs_p = angleivp.prescribed_angle_rhs(scalars_fn, phi)
    eps = 1e-6
    sol1, sol2 = angleivp.solve_theta(rhs_p, helix.length, [0.3, 0.3 + eps], 2000)
    grid = helix.grid(101)
    c = angleivp.lipschitz_bound(scalars_fn(grid), phi(grid))
    gap = float(np.max(np.abs(sol1.values - sol2.values)))
    checks.append(Check("gronwall_continuity", gap, eps * np.exp(c * helix.length) * 1.000001))

    # a 16-angle family against its exact solution, relative to twice its Richardson estimate plus n eps max|theta|:
    # kappa = tau and phi = pi/4 make eta = theta + pi solve case B's ODE (and G nilpotent, so RK4 is exact)
    qs = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    worst = 0.0
    for q, sol in zip(qs, angleivp.solve_theta(rhs_p, helix.length, qs, 2000)):
        eta0 = (q + np.pi) % (2.0 * np.pi)
        exact = angleivp.closed_form_case_b(eta0, psi)(sol.ts) + (q - eta0)
        floor = 2000 * np.finfo(float).eps * np.max(np.abs(exact))
        worst = max(worst, float(np.max(np.abs(sol.values - exact))) / (2.0 * sol.error_estimate + floor))
    checks.append(Check("theta_flow_vs_exact", worst, 1.0))

    strip = ribbon_mod.construct_ribbon(helix, pn, 0.1, grid_size=801)
    if fault == "perturb_ruling":
        bad = lambda t: strip.ruling(t) + 0.01 * strip.normal.sample(t).N
        report = ribbon_mod.flatness_residuals(strip, 101, ruling=bad)
    else:
        report = ribbon_mod.flatness_residuals(strip, 101)
    checks.append(Check("flatness_residuals", max(report.ruling_in_plane, report.tangent_plane), 1e-8))

    ts = helix.grid(41)
    x, tangent = strip.ruling(ts), helix.derivative(ts, 1)
    measured = np.arctan2(rownorm(cross(tangent, x)), rowdot(tangent, x))
    worst = float(np.max(np.abs(measured - ribbon_mod.ruling_angle(strip, ts))))
    checks.append(Check("ruling_angle_identity", worst, 1e-10))

    # projection of the ruling segment onto the normal plane has length 2w
    proj = x - rowdot(x, tangent)[..., None] * tangent
    worst = float(np.max(np.abs(2.0 * strip.w * rownorm(proj) - 2.0 * strip.w)))
    checks.append(Check("width_projection", worst, 1e-10))

    e_closed = energy.bending_energy_closed(strip, n_t=801)
    expected = strip.w * helix.length / 2.0
    checks.append(Check("rectifying_energy", abs(e_closed.value - expected) / expected, 1e-12))
    checks.append(Check("ratio_b_closed_form", abs(energy.helix_ratio_b(np.pi, 1.0) - (2.0 - np.pi / 2.0)), 1e-10))

    tf = TorusNormalField(knot)
    w = 0.5 * ribbon_mod.max_regular_width(knot, tf, grid_size=801)
    knot_ribbon = ribbon_mod.construct_ribbon(knot, tf, w, grid_size=801)
    ec = energy.bending_energy_closed(knot_ribbon, n_t=801)
    eq = energy.bending_energy_quadrature(knot_ribbon, n_t=801, n_u=21)
    checks.append(Check("energy_oracle_equivalence", abs(ec.value - eq.value) / ec.value, 1e-6))

    # the same-angle family's energies off the theta flow: on the helix's principal normal they are case B's
    # closed form, and on the knot every one lies below the additive bound
    family = energy.family_energy(helix, pn, qs, 0.1)
    exact = np.array([energy.case_b_energy(helix, q, 0.1) for q in qs])
    checks.append(Check("family_energy_vs_case_b", float(np.max(np.abs(family.values - exact) / exact)), 1e-10))
    family = energy.family_energy(knot, tf, qs, 0.1)
    checks.append(Check("family_energy_bound", float(np.max(family.values)) / family.additive_bound, 1.0))

    kg, kn, tg = rng.normal(size=(3, 100))
    keep = np.hypot(kg, kn) >= 1e-6
    s = DarbouxScalars(kg[keep], kn[keep], tg[keep])
    partner = rotate(s, isometric_partner_angle(s))
    checks.append(Check("isometric_partner", float(np.max(np.abs(partner.kappa_g - s.kappa_g))), 1e-12))

    return checks
