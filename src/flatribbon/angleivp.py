"""Rotation-angle initial value problems and their closed-form solutions.

Rotating a Darboux frame about the tangent by theta(t) changes the ruling
angle of the associated flat ribbon; prescribing that angle turns into a
first-order nonlinear ODE for theta, globally solvable because the right
hand side is Lipschitz in theta.  A fixed-step classical RK4 integrator
is used throughout: the right hand side is smooth, so adaptivity buys
nothing and determinism keeps the tests simple.

Both ODEs have the form theta' = a(t) sin theta + b(t) cos theta + c(t),
so ``solve_theta`` tabulates a, b, c once at every stage node and solves
every initial angle theta(0) = q at once through the linearization: with
(p, r) = (sin theta/2, cos theta/2) up to a positive factor, the ODE is
the traceless linear system (p, r)' = G(t) (p, r),
G = 1/2 [[a, b + c], [b - c, -a]] (the Riccati linearization, W. T. Reid,
*Riccati Differential Equations*, 1972), whose RK4 step matrices compose
by a prefix product.  That :class:`ThetaFlow` depends on the table and n
but not on q, which enters only through the start vector
(sin q/2, cos q/2); one q is item 0 of the family of ``[q]``.  The table
holds the 2n+1 stage nodes of the n-step run, and the Richardson estimate
compares it with the n/2 double steps that the same table serves.
``solved_rotation_field`` reads its table exactly,
through :func:`~flatribbon.frames.sampled_scalars` on the 2n+1 stage nodes,
and keeps one flow per form and n on the base field, keyed by its inputs
(the form, and a prescribed phi on the stage nodes), so further angles on
that field read the kept flow without building a table.
"""

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NormalCurvatureZero, StepSizeUnderflow
from .frames import PrincipalNormalField, RotatedNormalField, sampled_scalars
from .numerics import arccot, cumulative_simpson_uniform, first_where, nested_stride, prefix_products, read_only, spline
from .ribbon import mu_field

__all__ = [
    "ThetaSolution",
    "ThetaFamily",
    "ThetaFlow",
    "rhs_prescribed",
    "rhs_same_angle",
    "prescribed_angle_rhs",
    "same_angle_rhs",
    "solve_theta",
    "lipschitz_bound",
    "closed_form_case_b",
    "closed_form_helix_pi2",
    "solved_rotation_field",
    "integrated_torsion",
]


def _prescribed_coefficients(scalars, phi):
    cot = np.cos(phi) / np.sin(phi)
    return cot * scalars.kappa_g, -cot * scalars.kappa_n, -scalars.tau_g


def _same_angle_coefficients(t, scalars):
    small = np.abs(scalars.kappa_n) <= 1e-9 * np.hypot(scalars.kappa_g, scalars.kappa_n)
    if np.any(small):
        raise NormalCurvatureZero(
            f"kappa_n vanishes at t={first_where(small, t):.6g}; use the prescribed-angle form"
        )
    tg = scalars.tau_g
    return -(scalars.kappa_g * tg / scalars.kappa_n), tg, -tg


def _combine(coefficients, theta):
    a, b, c = coefficients
    return a * np.sin(theta) + b * np.cos(theta) + c


def rhs_prescribed(t, theta, scalars, phi):
    """theta' for a prescribed ruling angle phi(t) in (0, pi).

    F(t, theta) = cot(phi) (kappa_g sin theta - kappa_n cos theta) - tau_g.
    """
    return _combine(_prescribed_coefficients(scalars, phi), theta)


def rhs_same_angle(t, theta, scalars):
    """theta' for a ribbon sharing the ruling angle of the base field.

    F(t, theta) = tau_g cos theta - tau_g - (kappa_g tau_g / kappa_n) sin theta.
    Requires kappa_n != 0; reformulate through :func:`rhs_prescribed` with
    phi equal to the (continuously extended) base ruling angle otherwise.
    """
    return _combine(_same_angle_coefficients(t, scalars), theta)


def prescribed_angle_rhs(scalars_fn, phi_fn):
    """The prescribed-angle right hand side: the map ts -> (a, b, c) of a curve's scalar data and phi(t)."""
    return lambda ts: _prescribed_coefficients(scalars_fn(ts), phi_fn(ts))


def same_angle_rhs(scalars_fn):
    """The same-angle map ts -> (a, b, c); NormalCurvatureZero where |kappa_n| <= 1e-9 hypot(kappa_g, kappa_n)."""
    return lambda ts: _same_angle_coefficients(ts, scalars_fn(ts))


@dataclass
class ThetaSolution:
    """Dense numerical solution of a rotation-angle IVP on [0, L].

    Values are continuous real angles (never wrapped, so theta' stays
    meaningful); ``error_estimate`` comes from a double-step Richardson run.
    ``values`` and ``derivatives`` are read-only.  On every s-th node of
    ``ts``, s a power of two (:func:`~flatribbon.numerics.nested_stride`),
    a call and :meth:`derivative` return the views ``values[::s]`` and
    ``derivatives[::s]``; any other t (off the nodes, a scalar, a 2-D array)
    reads the not-a-knot spline through the values, built on first use.
    The two agree bitwise at interior nodes, where the spline returns its
    node value and F sees the same t; only at t = L may the spline's last
    piece round differently.
    """

    ts: np.ndarray
    values: np.ndarray
    derivatives: np.ndarray
    step: float
    error_estimate: float
    rhs: Callable = field(repr=False)

    @cached_property
    def _spline(self):
        return spline(self.ts, self.values)

    def __call__(self, t):
        s = nested_stride(self.ts, t)
        return self._spline(t) if s is None else self.values[::s]

    def derivative(self, t):
        # exact along the solution: theta' = F(t, theta(t))
        s = nested_stride(self.ts, t)
        return _combine(self.rhs(t), self._spline(t)) if s is None else self.derivatives[::s]


def _coefficient_table(rhs, nodes):
    """(a, b, c) at every node of ``nodes``, the 2n+1 nodes that hold every stage of the n- and n/2-step runs."""
    table = [np.asarray(x, dtype=float) for x in rhs(nodes)]
    return [x if x.shape == nodes.shape else np.broadcast_to(x, nodes.shape) for x in table]


def _matmul(x, y):
    """Products of 2x2 matrices stacked along the trailing axes."""
    return np.einsum("ij...,jk...->ik...", x, y)


def _rk4_propagators(g0, gm, g1, h):
    """RK4 step matrices of y' = G(t) y, y_{k+1} = M_k y_k, from G at each step's start, middle and end.

    M = I + h/6 (K1 + 2 K2 + 2 K3 + K4), K1 = G0, K2 = Gm + h/2 Gm K1, K3 = Gm + h/2 Gm K2, K4 = G1 + h G1 K3,
    each sum formed in place in this order.
    """
    k2 = _scale_add(_matmul(gm, g0), 0.5 * h, gm)
    k3 = _scale_add(_matmul(gm, k2), 0.5 * h, gm)
    k4 = _scale_add(_matmul(g1, k3), h, g1)
    total = _scale_add(k2, 2.0, g0)
    total += np.multiply(k3, 2.0, out=k3)
    total += k4
    return _scale_add(total, h / 6.0, np.eye(2).reshape(2, 2, *[1] * (total.ndim - 2)))  # over any batch axes


def _scale_add(x, a, y):
    """y + a x, formed in x."""
    x *= a
    x += y
    return x


@dataclass(eq=False)
class ThetaFamily(Sequence):
    """Solutions theta(t; q) of one IVP from theta(0) = q, for every q of ``qs``.

    ``values`` and ``derivatives`` hold one row per q over ``ts``, and
    ``error_estimates`` one Richardson estimate per q; item i is the
    :class:`ThetaSolution` of ``qs[i]``, on rows of these tables.  Every
    array is read-only.
    """

    qs: np.ndarray
    ts: np.ndarray
    values: np.ndarray
    derivatives: np.ndarray
    step: float
    error_estimates: np.ndarray
    rhs: Callable = field(repr=False)

    def __len__(self):
        return len(self.qs)

    def __getitem__(self, i):
        i = range(len(self))[i]  # an int in range, else IndexError or TypeError
        est = float(self.error_estimates[i])
        return ThetaSolution(self.ts, self.values[i], self.derivatives[i], self.step, est, self.rhs)


@dataclass(frozen=True, eq=False)
class ThetaFlow:
    """The q-independent RK4 flow of (p, r)' = G (p, r) over [0, L], from which every q is read.

    ``nodes`` are the 2n+1 stage nodes and ``table`` holds the coefficients
    (a, b, c) at each (:func:`solve_theta`'s table).  ``images[run, j, k]`` is
    r + i p at step node k of the n-step run (run 0) and of the double-step
    run (run 1), started from the j-th unit vector of (p, r)(0): the running
    products of the step matrices, each up to a positive factor.  Run 1's
    steps of 2h read nodes 4i, 4i + 2, 4i + 4; it holds its own image at every
    even k, that of k - 1 at every odd k, and an odd n ends on run 0's last
    step.  ``nodes`` and ``images`` are read-only, so one flow can be shared.
    """

    nodes: np.ndarray
    table: tuple
    images: np.ndarray

    @classmethod
    def of(cls, nodes, table):
        """The flow of ``table`` on ``nodes``: RK4 step matrices of both runs and one :func:`prefix_products`."""
        a, b, c = table
        n = (len(nodes) - 1) // 2
        h = nodes[-1] / n  # linspace ends on the length exactly
        with np.errstate(all="ignore"):  # a non-finite table ends in NaN angles, reported by family()
            g = 0.5 * np.array([[a, b + c], [b - c, -a]])
            double = g[..., : 4 * (n // 2) + 1]  # the stages of run 1's n // 2 double steps
            # m[:, :, run, k] is step k of the run, the identity at k = 0 and at run 1's odd k
            m = np.empty((2, 2, 2, n + 1))
            m[:, :, :, 0] = m[:, :, 1, 1::2] = np.eye(2)[:, :, None]
            m[:, :, 0, 1:] = _rk4_propagators(g[..., 0:-1:2], g[..., 1::2], g[..., 2::2], h)
            m[:, :, 1, 2::2] = _rk4_propagators(double[..., 0:-1:4], double[..., 2::4], double[..., 4::4], 2.0 * h)
            if n % 2:
                m[:, :, 1, -1] = m[:, :, 0, -1]
            m = prefix_products(m)
            images = (m[1] + 1j * m[0]).transpose(1, 0, 2)
        return read_only(cls(nodes, tuple(table), images))

    def family(self, qs, rhs):
        """The :class:`ThetaFamily` from theta(0) = q for every q of ``qs``; ``rhs`` is the family's coefficient map.

        From (p, r)(0) = (sin q/2, cos q/2), theta adds twice the angle turned
        by (p, r) over each step, 0 over run 1's identity steps.  Every q's
        error estimate is the largest gap between its runs on the nodes they
        share (the even ones and the end) over 15, to 4th order the n-step
        error.  StepSizeUnderflow on a non-finite angle.
        """
        qs = np.array(qs, dtype=float, ndmin=1)  # a copy: the family flags its arrays read-only
        with np.errstate(all="ignore"):
            start = np.array([np.sin(0.5 * qs), np.cos(0.5 * qs)])  # (p, r)(0) of every q
            z = start.T @ self.images  # r + i p, shape (run, q, n + 1)
            p, r = z.imag, z.real
            # theta/2 = arg z, so theta turns by twice the angle from z_{k-1} to z_k over step k, taken in
            # real arithmetic: numpy's z_k conj(z_{k-1}) can round off the real axis where z does not turn
            cross, term = p[..., 1:] * r[..., :-1], r[..., 1:] * p[..., :-1]
            cross -= term
            dot = r[..., 1:] * r[..., :-1]
            dot += np.multiply(p[..., 1:], p[..., :-1], out=term)
            theta = np.empty(z.shape)
            theta[..., 0] = 0.0
            np.cumsum(np.arctan2(cross, dot, out=cross), axis=-1, out=theta[..., 1:])
            theta *= 2.0
            theta += qs[:, None]
        if not np.all(np.isfinite(theta[..., -1])):  # a NaN angle carries through the cumulative sum to the end
            raise StepSizeUnderflow("the RK4 flow produced non-finite values")
        values = theta[0]
        ts = self.nodes[::2]
        derivs = _combine([x[::2] for x in self.table], values)
        gap = np.abs(values - theta[1])
        err = np.maximum(np.max(gap[:, ::2], axis=-1), gap[:, -1]) / 15.0
        return read_only(ThetaFamily(qs, ts, values, derivs, ts[1] - ts[0], err, rhs=rhs))


def solve_theta(rhs, length, qs, grid_size=2000):
    """Integrate theta' = F(t, theta) over [0, length] from theta(0) = q, for every q of ``qs``.

    ``rhs`` is the map ts -> (a, b, c) of F = a sin theta + b cos theta + c
    (a scalar entry stands for a constant), tabulated once on the 2n+1 nodes
    ``linspace(0, length, 2n + 1)``, n = grid_size, that hold every stage of
    the n-step run and of the run of n // 2 double steps (for an odd n the
    last step is the n-step run's).  RK4 runs on the linear system
    (p, r)' = G (p, r), G = 1/2 [[a, b + c], [b - c, -a]], in both runs; the
    running products of both runs come from one :func:`prefix_products`.
    That :class:`ThetaFlow` does not depend on q; :meth:`ThetaFlow.family`
    reads every q off it.  NormalCurvatureZero comes from the table,
    StepSizeUnderflow from a non-finite angle.
    """
    nodes = np.linspace(0.0, float(length), 2 * max(int(grid_size), 2) + 1)
    return ThetaFlow.of(nodes, _coefficient_table(rhs, nodes)).family(qs, rhs)


def lipschitz_bound(scalars, phi):
    """Lipschitz constant of the prescribed-angle RHS in theta.

    c = sup|kappa_g cot(phi)| + sup|kappa_n cot(phi)| over a grid, from the
    scalars (arrays over the grid) and phi there (an array or a constant).
    """
    cot = np.cos(phi) / np.sin(phi)
    return float(np.max(np.abs(scalars.kappa_g * cot)) + np.max(np.abs(scalars.kappa_n * cot)))


def closed_form_case_b(q, psi):
    """Solution of theta' = tau (cos theta - 1) with theta(0) = q in [0, 2 pi).

    psi is the cumulative torsion integral; the q = 0 branch is the
    constant zero solution.
    """
    q = float(q)
    if q == 0.0:
        return lambda t: 0.0 * np.asarray(t, dtype=float)
    cot_half = np.cos(q / 2.0) / np.sin(q / 2.0)
    return lambda t: 2.0 * arccot(cot_half + psi(t))


def closed_form_helix_pi2(a, b):
    """The linear solution theta(t) = -b t / (a^2 + b^2) for phi = pi/2 on a helix."""
    slope = -float(b) / (float(a) ** 2 + float(b) ** 2)
    return lambda t: slope * np.asarray(t, dtype=float)


def solved_rotation_field(base_field, q, grid_size=2000, scalars_grid=2001, phi=None):
    """Rotate ``base_field`` by the IVP solution with theta(0) = q.

    With ``phi`` given (a callable ruling-angle prescription) the
    prescribed-angle ODE is integrated; otherwise the same-angle shortcut
    is used when min |kappa_n| L on the base field's ``scalars_grid`` table
    exceeds 1e-6, free of the curve's scale, falling back to the prescribed
    form with phi equal to the base ruling angle, from ``mu_field`` on the
    2n+1 stage nodes, n = grid_size (for an odd n, on the 4n+1 nodes that
    hold them).  For an even n, F reads the scalars through
    ``sampled_scalars(base_field, 2n + 1)``, taken first so that the field's
    coarser grid tables nest in its table as views; an odd n's 2n+1 nodes
    nest in no 4k+1 grid, so F reads ``base_field.sample``, once on the stage
    nodes.  Either way the coefficient table is exact on the stage nodes, and
    off them (``ThetaSolution.derivative`` at other t) F samples the base
    field.  The base field keeps one :class:`ThetaFlow` per form (same-angle,
    prescribed, base angle) and node count 2n+1 next to its grid tables, so n
    and n + 1 never share one, keyed by the flow's inputs: the form, whose
    tables are the field's kept read-only ones, and in the
    prescribed form phi on the stage nodes.  A call whose phi there equals
    the kept one (``np.array_equal``, so a NaN never does), or any call of
    the other two forms, reads q off the kept flow with no coefficient table
    and no new scan; any other phi builds the flow again and replaces it.
    On a grid nested in the solution's n + 1 nodes by a power of two, the
    rotated field reads theta and theta' off the solution's node table, with
    no spline and no new evaluation of F.  Returns (rotated_field, theta_solution).
    """
    curve = base_field.curve
    n = max(int(grid_size), 2)
    if n % 2:
        nodes, scalars = np.linspace(0.0, curve.length, 2 * n + 1), base_field.sample
    else:
        nodes, scalars = curve.grid(2 * n + 1), sampled_scalars(base_field, 2 * n + 1)
    angle = same_phi = None
    if phi is not None:
        angle = np.array(phi(nodes))  # a copy, so the kept flow's key cannot change
        form, rhs = "prescribed", prescribed_angle_rhs(scalars, phi)
        same_phi = lambda kept: np.array_equal(kept[0], angle)
    elif float(np.min(np.abs(base_field.on_grid(scalars_grid).kappa_n))) * curve.length > 1e-6:
        form, rhs = "same_angle", same_angle_rhs(scalars)
    else:
        mu = mu_field(curve, base_field, grid_size=(4 if n % 2 else 2) * n + 1)  # a 4k+1 grid holding the nodes
        form, rhs = "base_angle", prescribed_angle_rhs(scalars, lambda t: arccot(mu(t)))
    # kept as (angle, flow); the table reads phi once per call, the other forms only the field's kept tables
    table_rhs = rhs if phi is None else prescribed_angle_rhs(scalars, lambda ts: angle)
    build = lambda ts: (angle, ThetaFlow.of(ts, _coefficient_table(table_rhs, ts)))
    flow = base_field.grid_table(("flow", form), nodes, build, keep=same_phi)[1]
    solution = flow.family([float(q)], rhs)[0]
    field = RotatedNormalField(base_field, solution, solution.derivative)
    return field, solution


def integrated_torsion(curve):
    """psi(t) = integral of the Frenet torsion from 0 to t, as a spline through a 2001-node table.

    The torsion is tau_g of the principal normal, whose sample raises
    VanishingCurvature unless kappa L > KAPPA_MIN.
    """
    ts = curve.grid(2001)
    table = cumulative_simpson_uniform(PrincipalNormalField(curve).on_grid(2001).tau_g, ts[1] - ts[0])
    return spline(ts, table)
