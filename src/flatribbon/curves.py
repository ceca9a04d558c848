"""Smooth space curves, arc-length reparametrization, and example curves.

A curve enters the package as a :class:`CurveSpec` (position map plus one
jet map x -> (c', c'', c''') on an arbitrary parameter interval) and is used
everywhere else as an :class:`ArcLengthCurve`, whose parameter is arc
length on [0, L].  The reparametrized curve is unit-speed to machine
precision by construction: derivatives with respect to arc length are
obtained from the raw derivatives by the chain rule, with dx/ds = 1/|c'|.
The map s(x) is one table: cumulative Simpson values at the raw nodes, in
Hermite form on the node speeds |c'(x_i)| that the quadrature already
evaluated.  Its inverse starts from the linear interpolant of that table
and takes Newton steps on s(x).  A curve may give its speed in closed form
(the torus knot does); the table and every Newton step then read that one
speed map, and neither evaluates c'.
:meth:`ArcLengthCurve.jet` is the one evaluation point: a single arc-length
inversion and one call of the jet map give the raw parameter, the raw speed
and gamma', gamma'', gamma'''; ``derivative`` is one of them.  The chain
rule is :meth:`ArcLengthCurve.raw_jet`, the same jet at a raw parameter,
which nodes from :meth:`ArcLengthCurve.near_grid` reach with no inversion.
Evaluators take a scalar or an array of parameters; vectors gain a trailing axis of 3.
:meth:`ArcLengthCurve.grid` keeps one read-only array per node count, so
every table on the n-node grid is taken at the same array of t.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NonRegularCurve, ToleranceNotMet, VanishingCurvature
from .numerics import Cubic, cumulative_simpson_uniform, first_where, odd_node_count, rownorm
from .numerics import simpson_uniform, spline, stencil_difference

KAPPA_MIN = 1e-9  # bounds kappa L: below it, free of the curve's scale, the Frenet normal/torsion are absent
NEWTON_STEPS = 3  # of the arc-length inversion; two already reach rounding on the test curves
LENGTH_ROUNDING = 64 * np.finfo(float).eps  # relative arc-length error estimate that is Simpson's rounding
_TINY = np.finfo(float).tiny  # the least normal double: speed^5 and the helix's m^3 must reach it

__all__ = [
    "CurveSpec",
    "ArcLengthCurve",
    "HelixParams",
    "TorusKnotParams",
    "arc_length_reparametrize",
    "check_curvature",
    "make_helix",
    "make_torus_knot",
    "curve_from_samples",
]


def _stack3(x, y, z):
    """Components (broadcast together) as vectors along a trailing axis."""
    out = np.empty(np.broadcast(x, y, z).shape + (3,))
    out[..., 0], out[..., 1], out[..., 2] = x, y, z
    return out


def _vectors(value, x):
    """value as floats; InvalidParams unless it has the shape x.shape + (3,)."""
    value = np.asarray(value, dtype=float)
    if value.shape != np.shape(x) + (3,):
        raise InvalidParams(f"a curve map returned shape {value.shape} for parameters of shape {np.shape(x)}")
    return value


class CurveSpec:
    """A regular space curve on a raw parameter interval.

    Parameters
    ----------
    position : callable
        Map x -> point in R^3, called on a scalar or an array x; it must
        return shape x.shape + (3,), else the call raises InvalidParams.
    domain : (float, float)
        Parameter interval [x0, x1].
    jet : callable, optional
        Map x -> (c', c'', c''') in closed form; each of the three must have
        shape x.shape + (3,), as for ``position``.  Without it the three come
        from one call of ``position`` on the 7-point stencils of x: 4th-order
        central differences with step 1e-4 times the domain length.
    speed : callable, optional
        The speed |c'(x)| in closed form, called on a scalar or an array x;
        it must return shape x.shape.  Without it the speed is |``jet(x)[0]``|.
    """

    def __init__(self, position, domain, jet=None, speed=None):
        self.domain = (float(domain[0]), float(domain[1]))
        if self.domain[1] <= self.domain[0]:
            raise InvalidParams("curve domain must have positive length")
        self.position = position
        self._jet = jet
        self._speed = speed

    def point(self, x):
        return _vectors(self.position(x), x)

    def jet(self, x):
        """(c'(x), c''(x), c'''(x)) from the jet map, else from one ``position`` call on the stencils of x."""
        if self._jet is not None:
            c1, c2, c3 = self._jet(x)
            return _vectors(c1, x), _vectors(c2, x), _vectors(c3, x)
        h = 1e-4 * (self.domain[1] - self.domain[0])
        nodes = np.asarray(x, dtype=float)[..., None] + np.arange(-3, 4) * h
        values = np.moveaxis(self.point(nodes.ravel()).reshape(nodes.shape + (3,)), -1, -2)
        return tuple(stencil_difference(values, order, h) for order in (1, 2, 3))

    def speed(self, x):
        """|c'(x)|: the closed-form speed map if the curve has one, else the norm of ``jet(x)[0]``."""
        if self._speed is None:
            return rownorm(self.jet(x)[0])
        value = np.asarray(self._speed(x), dtype=float)
        if value.shape != np.shape(x):
            raise InvalidParams(f"a speed map returned shape {value.shape} for parameters of shape {np.shape(x)}")
        return value[()]


class ArcLengthCurve:
    """A curve parametrized by arc length on [0, L].

    Wraps a :class:`CurveSpec` together with the map s(x) from raw
    parameter to arc length: the values ``s_table`` and slopes ``speeds``
    at ``raw_nodes``.  When the spec is already unit-speed the map is the
    identity and evaluation is exact.
    """

    def __init__(self, spec, length, raw_nodes=None, s_table=None, speeds=None):
        self.spec = spec
        self.length = float(length)
        self._identity = raw_nodes is None
        if not self._identity:
            self._raw_nodes = np.asarray(raw_nodes, dtype=float)
            self._s_table = np.asarray(s_table, dtype=float)
            # s(x) in Hermite form on the node speeds |c'(x_i)|, its exact slopes
            self._s_of_raw = Cubic(self._raw_nodes, self._s_table, speeds)
        self.grid_size = 0 if self._identity else len(self._raw_nodes)
        self._grids = {}

    @classmethod
    def from_unit_speed(cls, spec):
        return cls(spec, spec.domain[1] - spec.domain[0])

    def raw_parameter(self, t):
        """Raw parameter x such that arc length from x0 to x equals t.

        s(x) is the Hermite table on the node speeds.  NEWTON_STEPS Newton
        steps start from the linear interpolant of the same table;
        ToleranceNotMet unless s(x) = clip(t, 0, L) to 1e-12 L.
        """
        if self._identity:
            return self.spec.domain[0] + np.asarray(t, dtype=float)
        target = np.clip(t, 0.0, self.length)
        x = np.interp(target, self._s_table, self._raw_nodes)
        lo, hi = self.spec.domain
        for _ in range(NEWTON_STEPS):
            x = np.clip(x - (self._s_of_raw(x) - t) / self.spec.speed(x), lo, hi)
        miss = float(np.max(np.abs(self._s_of_raw(x) - target)))
        if not miss <= 1e-12 * self.length:  # NaN misses too
            raise ToleranceNotMet(f"arc-length inversion misses t by {miss:.3e}; table and speed disagree")
        return x

    def point(self, t):
        return self.spec.point(self.raw_parameter(t))

    def near_grid(self, n):
        """(t, x): nodes within O(h^2) of ``grid(n)`` whose raw parameters x need no inversion.

        x is the inversion's first guess, the linear interpolant of the table
        at ``grid(n)``, and t = s(x) is read off the same table; a unit-speed
        curve keeps its grid exactly.
        """
        ts = self.grid(n)
        if self._identity:
            return ts, self.spec.domain[0] + ts
        x = np.interp(ts, self._s_table, self._raw_nodes)
        return self._s_of_raw(x), x

    def jet(self, t):
        """(x, speed, gamma', gamma'', gamma''') at arc length t (or a grid): ``raw_jet`` after one inversion."""
        return self.raw_jet(self.raw_parameter(t))

    def raw_jet(self, x):
        """(x, speed, gamma', gamma'', gamma''') at the raw parameter x (or a grid of them).

        speed = |c'(x)|; the derivatives are taken with respect to arc length
        by the chain rule, dx/ds = 1/speed.
        """
        c1, c2, c3 = self.spec.jet(x)
        # the norm of the c' at hand, not the closed-form speed, which differs by up to 2 ulp:
        # a c'/speed off unit length moved the README knot's q = 0.7 width by 1e-12 relative
        speed = rownorm(c1)
        if self._identity:
            return x, speed, c1, c2, c3
        # float_power is the C library's pow per entry, as for a scalar t; ** on an
        # array takes a SIMD pow loop that can differ in the last bit
        v = speed[..., None]
        x1 = 1.0 / v
        v1 = np.vecdot(c1, c2)[..., None] / v
        x2 = -v1 / np.float_power(v, 3)
        v2 = ((np.vecdot(c2, c2) + np.vecdot(c1, c3))[..., None] - np.float_power(v1, 2)) / v
        x3 = (3.0 * np.float_power(v1, 2) - v * v2) / np.float_power(v, 5)
        g2 = c2 * np.float_power(x1, 2) + c1 * x2
        return x, speed, c1 * x1, g2, c3 * np.float_power(x1, 3) + 3.0 * c2 * x1 * x2 + c1 * x3

    def derivative(self, t, order=1):
        """Derivative of gamma with respect to arc length, order 1..3: an entry of ``jet(t)``."""
        if not 1 <= order <= 3:
            raise ValueError("derivative order must be 1, 2, or 3")
        return self.jet(t)[order + 1]

    def grid(self, n):
        """Uniform arc-length grid of ``odd_node_count(n)`` nodes: 4k+1 >= n; one read-only array per node count."""
        n = odd_node_count(n)
        ts = self._grids.get(n)
        if ts is None:
            ts = self._grids[n] = np.linspace(0.0, self.length, n)
            ts.flags.writeable = False
        return ts


def arc_length_reparametrize(curve, grid_size=1001, tol=1e-8, curve_class=ArcLengthCurve, **extra):
    """Reparametrize a raw curve by arc length.

    The arc-length table is built with cumulative Simpson on ``grid_size``
    nodes (rounded up to 4k+1) and keeps the node speeds as its slopes; the
    total-length error is estimated by Richardson extrapolation against the
    half-resolution table and must not exceed ``tol``, or LENGTH_ROUNDING times the length on
    a curve so long that rounding alone exceeds ``tol``.  The result is a ``curve_class``
    (ArcLengthCurve or a subclass) built with the keyword arguments ``extra``.
    """
    n = odd_node_count(grid_size)
    x0, x1 = curve.domain
    nodes = np.linspace(x0, x1, n)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite speed or length is rejected below
        speeds = curve.speed(nodes)
        s_table = cumulative_simpson_uniform(speeds, nodes[1] - nodes[0])
        length = s_table[-1]
        coarse = simpson_uniform(speeds[::2], 2.0 * (nodes[1] - nodes[0]))
        err = abs(length - coarse) / 15.0
        slowest, fastest = speeds.min(), speeds.max()
        # raw_jet divides by speed^5; the factor 2 leaves room for the speeds between the nodes
        low, high = (0.5 * slowest) ** 5, (2.0 * fastest) ** 5
    infinite = ~np.isfinite(speeds)
    if np.any(infinite):
        raise NonRegularCurve(f"curve speed is not finite near parameter {first_where(infinite, nodes):.6g}")
    if not np.isfinite(length):
        raise ToleranceNotMet(f"arc length {length:.3e} is not finite")
    if slowest < 1e-12 * length / (x1 - x0):  # below 1e-12 of the mean speed
        bad = nodes[int(np.argmin(speeds))]
        raise NonRegularCurve(f"curve speed vanishes near parameter {bad:.6g}")
    if not (low >= _TINY and high < np.inf):
        raise NonRegularCurve(f"curve speeds up to {fastest:.3e} put the chain rule's speed^5 out of range")
    if not err <= max(tol, LENGTH_ROUNDING * length):
        raise ToleranceNotMet(
            f"arc-length error estimate {err:.3e} of the {n}-node table exceeds tol {tol:.3e}"
        )
    return curve_class(curve, length, raw_nodes=nodes, s_table=s_table, speeds=speeds, **extra)


def check_curvature(kappa, t, length):
    """Raise VanishingCurvature where the curvature table ``kappa`` at ``t`` has kappa * length <= KAPPA_MIN."""
    flat = kappa * length <= KAPPA_MIN
    if np.any(flat):
        raise VanishingCurvature(f"curvature vanishes at t={first_where(flat, t):.6g}")


@dataclass(frozen=True)
class HelixParams:
    """Circular helix of radius a and pitch 2*pi*b.

    ``length`` is the arc length of the sampled piece; the default covers
    one full turn of the major angle.
    """

    a: float
    b: float
    length: float | None = None

    def arc_length(self):
        if self.length is not None:
            return float(self.length)
        return 2.0 * np.pi * np.hypot(self.a, self.b)


def make_helix(params):
    """Arc-length-parametrized circular helix (the parametrization is exact)."""
    a, b = float(params.a), float(params.b)
    if a <= 0.0:
        raise InvalidParams("helix radius a must be positive")
    if b < 0.0:
        raise InvalidParams("helix reduced pitch b must be nonnegative")
    m = np.hypot(a, b)
    with np.errstate(over="ignore"):  # the jet's a / m^3
        if not _TINY <= m**3 < np.inf:
            raise NonRegularCurve(f"the helix jet's (a^2 + b^2)^(3/2) = {m:.3e}^3 is out of range")
    L = params.arc_length()

    def pos(t):
        return _stack3(a * np.cos(t / m), a * np.sin(t / m), b * t / m)

    def jet(t):
        c, s = np.cos(t / m), np.sin(t / m)
        return (
            _stack3(-a / m * s, a / m * c, b / m),
            _stack3(-a / m**2 * c, -a / m**2 * s, 0.0),
            _stack3(a / m**3 * s, -a / m**3 * c, 0.0),
        )

    spec = CurveSpec(pos, (0.0, L), jet=jet)
    return ArcLengthCurve.from_unit_speed(spec)


@dataclass(frozen=True)
class TorusKnotParams:
    """Curve on the torus of radii (R, rho) winding n times in the minor angle."""

    R: float = 2.0
    rho: float = 1.0
    n: int = 3
    grid_size: int = 4001


class TorusKnotCurve(ArcLengthCurve):
    """Arc-length torus knot that also knows the outward torus normal."""

    def __init__(self, spec, length, raw_nodes, s_table, speeds, params):
        super().__init__(spec, length, raw_nodes=raw_nodes, s_table=s_table, speeds=speeds)
        self.params = params

    def surface_normal_jet(self, phi):
        """(N, dN/dphi): the outward torus normal and its phi-derivative, from one cos and sin of phi and n phi."""
        cn, sn, c, s = _knot_trig(self.params.n, phi)
        n = self.params.n
        return _stack3(cn * c, cn * s, sn), _stack3(-n * sn * c - cn * s, -n * sn * s + cn * c, n * cn)


def _knot_trig(n, phi):
    """cos(n phi), sin(n phi), cos(phi), sin(phi)."""
    return np.cos(n * phi), np.sin(n * phi), np.cos(phi), np.sin(phi)


def make_torus_knot(params=TorusKnotParams()):
    """Trivial torus knot c(phi) = ((R + rho cos n phi) cos phi, ..., rho sin n phi).

    Its speed is sqrt(r^2 + (rho n)^2), r = R + rho cos n phi, in closed form:
    the squares are formed, not a hypot, so the speed overflows to inf where
    |c'|^2 does.
    """
    R, rho, n = float(params.R), float(params.rho), int(params.n)
    if not 0.0 < rho < R:
        raise InvalidParams("torus knot needs 0 < rho < R")

    def pos(phi):
        r = R + rho * np.cos(n * phi)
        return _stack3(r * np.cos(phi), r * np.sin(phi), rho * np.sin(n * phi))

    def speed(phi):
        r = R + rho * np.cos(n * phi)
        rn = np.float64(rho * n)
        return np.sqrt(r * r + rn * rn)

    def jet(phi):
        cn, sn, c, s = _knot_trig(n, phi)
        r, r1, r2, r3 = R + rho * cn, -rho * n * sn, -rho * n**2 * cn, rho * n**3 * sn
        x3 = r3 * c - 3 * r2 * s - 3 * r1 * c + r * s
        y3 = r3 * s + 3 * r2 * c - 3 * r1 * s - r * c
        return (
            _stack3(r1 * c - r * s, r1 * s + r * c, rho * n * cn),
            _stack3(r2 * c - 2 * r1 * s - r * c, r2 * s + 2 * r1 * c - r * s, -rho * n**2 * sn),
            _stack3(x3, y3, -rho * n**3 * cn),
        )

    spec = CurveSpec(pos, (0.0, 2.0 * np.pi), jet=jet, speed=speed)
    return arc_length_reparametrize(spec, grid_size=params.grid_size, curve_class=TorusKnotCurve, params=params)


def curve_from_samples(ts, points, grid_size=1001):
    """Cubic-spline curve through (t, x, y, z) samples, arc-length reparametrized."""
    ts = np.asarray(ts, dtype=float)
    points = np.asarray(points, dtype=float)
    if ts.ndim != 1 or points.shape != (len(ts), 3):
        raise InvalidParams("samples must be rows (t, x, y, z)")
    if len(ts) < 2 or not (np.all(np.isfinite(ts)) and np.all(np.isfinite(points))):
        raise InvalidParams("samples need at least 2 rows of finite values")
    if np.any(np.diff(ts) <= 0.0):
        raise InvalidParams("sample parameters t must be strictly increasing")
    cubic = spline(ts, points)
    spec = CurveSpec(cubic, (ts[0], ts[-1]), jet=cubic.jet, speed=lambda x: rownorm(cubic(x, 1)))
    return arc_length_reparametrize(spec, grid_size=grid_size)
