"""Bending energies of flat ribbons.

Two independent routes compute the finite-width energy: brute-force
double quadrature of H^2 dA from the fundamental forms, and the closed
form obtained by integrating the u-direction analytically (one form,
2 artanh(w lambda) / lambda, exactly 2w at lambda = 0).  The
infinitesimal-width limit, the bound between same-ruling-angle ribbons,
and the closed forms for the two special ruling-angle choices and for the
circular helix live here too.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateMetric,
    NotCaseA,
    OutsideRegularDomain,
    RulingAngleMismatch,
    WidthTooLarge,
)
from .frames import PrincipalNormalField
from .numerics import arccot, cumulative_simpson_uniform, odd_node_count, simpson_uniform
from .ribbon import mu_field

__all__ = [
    "FundamentalForms",
    "EnergyReport",
    "CaseAExtrema",
    "EnergyBoundReport",
    "fundamental_forms",
    "mean_curvature",
    "bending_energy_quadrature",
    "bending_energy_closed",
    "limit_energy",
    "energy_bound",
    "case_a_energy",
    "case_a_extrema",
    "case_b_energy",
    "helix_ratio_a",
    "helix_ratio_b",
]


@dataclass(frozen=True)
class FundamentalForms:
    """First and second fundamental forms of sigma, arrays over the points (t, u) asked for."""

    E: float | np.ndarray
    F: float | np.ndarray
    G: float | np.ndarray
    e: float | np.ndarray
    f: float = 0.0
    g: float = 0.0
    det: float | None = None  # EG - F^2 where it is known exactly

    def metric_det(self):
        """EG - F^2 at every point; DegenerateMetric where it is not positive."""
        det = self.E * self.G - self.F**2 if self.det is None else self.det
        if np.any(det <= 0.0):
            raise DegenerateMetric(f"EG - F^2 = {float(np.min(det)):.3e}")
        return det

    def area_element(self):
        return np.sqrt(self.metric_det())


@dataclass(frozen=True)
class EnergyReport:
    value: float
    method: str  # closed_form | special_case_lambda_zero | quadrature | limit_formula
    width: float
    error_estimate: float


def _lam(ribbon, mu, mup, kg):
    """lambda = mu' - (1 + mu^2) kappa_g; exactly 0 on a ribbon that FlatRibbon found flat."""
    return 0.0 if ribbon.flat else mup - (1.0 + mu**2) * kg


def _forms(mu, mup, kg, kn, lam, u):
    """The forms at (t, u) from mu, mu', kappa_g, kappa_n and lambda at t; all broadcast together.

    A flat ribbon's forms have EG - F^2 = (1 + u lambda)^2.  Where lambda is the 0.0 of a ribbon
    that FlatRibbon found flat, that is 1, free of the cancellation that EG - F^2 suffers where
    u mu' or u kappa_g is large.
    """
    stretch = 1.0 + u * lam
    if np.any(stretch <= 0.0):
        raise OutsideRegularDomain(f"1 + u*lambda = {float(np.min(stretch)):.3e}: outside the regular domain")
    with np.errstate(over="ignore"):  # only at a flat ribbon's widths, where the energies read det = 1
        E = (1.0 + u * (mup - kg)) ** 2 + (u * mu * kg) ** 2
        F = mu * (1.0 + u * mup)
    G = 1.0 + mu**2
    e = kn * stretch
    return FundamentalForms(E, F, G, e, det=1.0 if np.ndim(lam) == 0 and lam == 0.0 else None)


def fundamental_forms(ribbon, t, u):
    """First and second fundamental forms of sigma at (t, u), scalars or arrays broadcast together."""
    frame = ribbon.normal.sample(t)
    mu, mup = ribbon.mu(t), ribbon.mu.derivative(t)
    return _forms(mu, mup, frame.kappa_g, frame.kappa_n, _lam(ribbon, mu, mup, frame.kappa_g), u)


def mean_curvature(forms):
    """H = G e / (2 (EG - F^2)) for a flat ribbon (f = g = 0)."""
    return forms.G * forms.e / (2.0 * forms.metric_det())


def bending_energy_quadrature(ribbon, n_t=None, n_u=41):
    """Double composite-Simpson quadrature of H^2 dA over the ribbon, on its grid unless ``n_t`` is given.

    Independent oracle for :func:`bending_energy_closed`: it integrates
    H^2 times the area element of :func:`fundamental_forms` numerically in u.
    """
    ts = ribbon.curve.grid(len(ribbon.ts) if n_t is None else n_t)
    frame = ribbon.normal.on_grid(len(ts))
    us = np.linspace(-ribbon.w, ribbon.w, odd_node_count(n_u))
    # t down the rows, u across the columns
    mu, mup = ribbon.mu(ts), ribbon.mu.derivative(ts)
    lam = _lam(ribbon, mu, mup, frame.kappa_g)
    rows = [a[:, None] for a in (mu, mup, frame.kappa_g, frame.kappa_n)]
    forms = _forms(*rows, lam if ribbon.flat else lam[:, None], us)
    integrand = mean_curvature(forms) ** 2 * forms.area_element()
    hu = us[1] - us[0]
    ht = ts[1] - ts[0]
    value = simpson_uniform(simpson_uniform(integrand, hu), ht)
    coarse = simpson_uniform(simpson_uniform(integrand[::2, ::2], 2 * hu), 2 * ht)
    return EnergyReport(value, "quadrature", ribbon.w, abs(value - coarse) / 15.0)


def _inner_integral(w, lam):
    """Exact u-integral of 1/(1 + u*lambda) over [-w, w] per entry: 2 artanh(w lambda) / lambda, 2w at 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(lam == 0.0, 2.0 * w, 2.0 * np.arctanh(w * lam) / lam)


def bending_energy_closed(ribbon, n_t=None):
    """Finite-width bending energy, the u-integration in closed form, on the ribbon's grid unless ``n_t`` is given.

    The method is ``special_case_lambda_zero`` on a ribbon that FlatRibbon
    found flat (the dimensionless sup|lambda| L below ``ribbon.LAMBDA_FLAT_TOL``,
    no width bound), where lambda is 0 and the energy is linear in w.
    """
    ts = ribbon.curve.grid(len(ribbon.ts) if n_t is None else n_t)
    mu = ribbon.mu(ts)
    frame = ribbon.normal.on_grid(len(ts))
    lam = _lam(ribbon, mu, ribbon.mu.derivative(ts), frame.kappa_g)
    w = ribbon.w
    sup = float(np.max(np.abs(lam)))
    if w * sup >= 1.0:
        raise WidthTooLarge(f"w = {w:.6g} exceeds 1/sup|lambda|")
    integrand = 0.25 * (1.0 + mu**2) ** 2 * frame.kappa_n**2 * _inner_integral(w, lam)
    h = ts[1] - ts[0]
    value = simpson_uniform(integrand, h)
    coarse = simpson_uniform(integrand[::2], 2 * h)
    method = "special_case_lambda_zero" if ribbon.flat else "closed_form"
    return EnergyReport(value, method, w, abs(value - coarse) / 15.0)


def limit_energy(curve, normal_field, w, n_t=2001):
    """Small-width energy (w/2) * integral of kappa_n^2 (1 + cot(alpha)^2)^2.

    cot(alpha) is the continuous extension of mu, so the integrand is zero
    wherever kappa_n vanishes (tau_g vanishes there too).
    """
    return _limit_report(mu_field(curve, normal_field, grid_size=n_t), w)


def _limit_report(mu, w):
    """The limit energy from a ruling-slope table and its frame scalars."""
    integrand = mu.frame.kappa_n**2 * (1.0 + mu.values**2) ** 2
    h = mu.ts[1] - mu.ts[0]
    value = 0.5 * w * simpson_uniform(integrand, h)
    coarse = 0.5 * w * simpson_uniform(integrand[::2], 2 * h)
    return EnergyReport(value, "limit_formula", w, abs(value - coarse) / 15.0)


@dataclass(frozen=True)
class EnergyBoundReport:
    energy_base: float
    energy_other: float
    additive_bound: float
    ratio_bound: float | None
    satisfied: bool


def energy_bound(curve, base_field, other_field, w, n_t=2001):
    """Upper bounds on the energy of a same-ruling-angle companion ribbon.

    The two ruling angles must agree to 1e-6 (RulingAngleMismatch otherwise).
    Additive bound: E(other) <= E(base) + (w/2) integral of
    kappa_g^2 (1 + cot(alpha)^2)^2 for the base field.  The ratio bound
    1 + max (kappa_g/kappa_n)^2 applies only when min |kappa_n| L > 1e-9, L the
    curve's length, so the test is free of the curve's scale.
    """
    mu_base = mu_field(curve, base_field, grid_size=n_t)
    mu_other = mu_field(curve, other_field, grid_size=n_t)
    angle_gap = float(np.max(np.abs(arccot(mu_base.values) - arccot(mu_other.values))))
    if angle_gap > 1e-6:
        raise RulingAngleMismatch(f"ruling angles differ by up to {angle_gap:.3e}")
    kg, kn = mu_base.frame.kappa_g, mu_base.frame.kappa_n
    h = mu_base.ts[1] - mu_base.ts[0]
    extra = 0.5 * w * simpson_uniform(kg**2 * (1.0 + mu_base.values**2) ** 2, h)
    e_base = _limit_report(mu_base, w).value
    e_other = _limit_report(mu_other, w).value
    additive = e_base + extra
    ratio = None
    if float(np.min(np.abs(kn))) * curve.length > 1e-9:
        ratio = 1.0 + float(np.max((kg / kn) ** 2))
    satisfied = e_other <= additive + 1e-12 * max(1.0, abs(additive))
    return EnergyBoundReport(e_base, e_other, additive, ratio, satisfied)


def _case_a_arrays(curve, normal_field, n_t):
    ts = curve.grid(n_t)
    frame = normal_field.on_grid(n_t)
    tg_sup = float(np.max(np.abs(frame.tau_g)))
    if tg_sup * curve.length > 1e-8:
        raise NotCaseA(f"tau_g is not identically zero (sup {tg_sup:.3e} on length {curve.length:.3e})")
    return ts, frame.kappa_g, frame.kappa_n


def case_a_energy(curve, normal_field, q, w, n_t=2001):
    """Small-width energy (w/2) integral of (kappa_n cos q - kappa_g sin q)^2.

    Valid for a field with tau_g = 0 (ruling angle pi/2), whose rotated
    family has the constant solution theta = q; NotCaseA where
    sup |tau_g| L > 1e-8, L the curve's length.
    """
    ts, kg, kn = _case_a_arrays(curve, normal_field, n_t)
    integrand = (kn * np.cos(q) - kg * np.sin(q)) ** 2
    return 0.5 * w * simpson_uniform(integrand, ts[1] - ts[0])


@dataclass(frozen=True)
class CaseAExtrema:
    """Analytic extrema of the constant-angle energy.

    ``q_candidates`` is ordered (maximizer, minimizer); it is empty when the
    energy is independent of q.
    """

    A: float  # integral of kappa_g^2 - kappa_n^2
    B: float  # integral of kappa_g * kappa_n
    q_candidates: tuple
    e_max: float
    e_min: float


def case_a_extrema(curve, normal_field, w, n_t=2001):
    """Analytic extrema of the constant-angle energy over q in [0, 2 pi)."""
    ts, kg, kn = _case_a_arrays(curve, normal_field, n_t)
    h = ts[1] - ts[0]
    A = simpson_uniform(kg**2 - kn**2, h)
    B = simpson_uniform(kg * kn, h)
    K = simpson_uniform(kg**2 + kn**2, h)
    tiny = 1e-10 * K
    if abs(B) <= tiny and abs(A) <= tiny:
        e = 0.25 * w * K
        return CaseAExtrema(A, B, (), e, e)
    if abs(B) <= tiny:
        e0 = 0.5 * w * simpson_uniform(kn**2, h)
        e1 = 0.5 * w * simpson_uniform(kg**2, h)
        qs = (0.0, np.pi / 2.0) if e0 >= e1 else (np.pi / 2.0, 0.0)
        return CaseAExtrema(A, B, qs, max(e0, e1), min(e0, e1))
    # at cot(q) = (A + root)/(2B) one has cos(2q) = A/root, sin(2q) = 2B/root,
    # which minimizes (K - A cos 2q - 2B sin 2q)/4; the other root maximizes
    root = np.sqrt(A**2 + 4.0 * B**2)
    q_at_min = float(arccot((A + root) / (2.0 * B)))
    q_at_max = float(arccot((A - root) / (2.0 * B)))
    e_max = 0.25 * w * (K + root)
    e_min = 0.25 * w * (K - root)
    return CaseAExtrema(A, B, (q_at_max, q_at_min), e_max, e_min)


def case_b_energy(curve, q, w, n_t=2001):
    """Small-width energy of the rotated rectifying developable family.

    q = 0 gives the Sadowsky energy of the rectifying developable itself;
    otherwise the integrand carries the factor ((1 - d^2)/(1 + d^2))^2
    with d = cot(q/2) + psi(t), psi the cumulative torsion.  The curvature
    and torsion are kappa_n and tau_g of the principal normal, whose sample
    raises VanishingCurvature unless kappa L > KAPPA_MIN.
    """
    ts = curve.grid(n_t)
    frenet = PrincipalNormalField(curve).on_grid(n_t)
    kappa, tau = frenet.kappa_n, frenet.tau_g
    mu = -tau / kappa
    sadowsky = kappa**2 * (1.0 + mu**2) ** 2
    h = ts[1] - ts[0]
    if float(q) == 0.0:
        return 0.5 * w * simpson_uniform(sadowsky, h)
    psi = cumulative_simpson_uniform(tau, h)
    delta = np.cos(q / 2.0) / np.sin(q / 2.0) + psi
    factor = ((1.0 - delta**2) / (1.0 + delta**2)) ** 2
    return 0.5 * w * simpson_uniform(factor * sadowsky, h)


def helix_ratio_a(q, r):
    """Closed-form normalized energy of the constant-angle helix family."""
    return (2.0 * r + np.sin(2.0 * q) - np.sin(2.0 * (q - r))) / (2.0 * r + np.sin(2.0 * r))


def helix_ratio_b(q, r):
    """Closed-form normalized energy of the rotated rectifying helix family.

    r = b L / (a^2 + b^2); q in (0, 2 pi).  The value for q -> 0 tends
    to 1 (the rectifying developable itself).
    """

    def antiderivative(d):  # -2 arctan d + d (3 + d^2) / (1 + d^2), with no d^2 to overflow
        return -2.0 * np.arctan(d) + d + np.sin(2.0 * np.arctan(d))

    c = np.cos(q / 2.0) / np.sin(q / 2.0)
    return (antiderivative(c + r) - antiderivative(c)) / r
