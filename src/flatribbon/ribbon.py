"""Flat ribbons along a curve: ruling field, width bound, meshing, residuals.

Given a curve and a normal field with kappa_n != 0 (or with removable
zeros), there is a unique flat ribbon normal to the field, parametrized by
sigma(t, u) = gamma(t) + u (mu(t) T(t) + H(t)) with mu = -tau_g / kappa_n.
This module builds that ribbon, bounds the regular half-width through the
area element 1 + u * lambda, tessellates the surface, and measures how
developable the result actually is, by residuals and by the exact Gauss
curvature of the ruled surface, taken in closed form and not off the mesh.
mu and its spline's node slopes are kept on the grid; :meth:`FlatRibbon.rows`
serves mu, mu' and lambda on a grid to the energies and the residuals.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DegenerateMetric, ExtensionOrderExceeded, InvalidParams, SingularRuling, WidthTooLarge
from .numerics import Cubic, arccot, central_difference, cross, nested_stride, read_only, rowdot, spline, spline_slopes
from .numerics import stencil_difference
from .textio import lines

WIDTH_SAFETY = 0.9
LAMBDA_FLAT_TOL = 1e-8  # below this sup|lambda| L, free of the curve's scale, the regular width is unbounded

__all__ = [
    "MuField",
    "FlatRibbon",
    "RibbonMesh",
    "FlatnessReport",
    "mu_field",
    "construct_ribbon",
    "ruling_angle",
    "max_regular_width",
    "tessellate",
    "flatness_residuals",
    "write_obj",
]


class MuField:
    """The ruling slope mu = -tau_g / kappa_n, continuously extended.

    Sampled on a uniform arc-length grid; mu' is the slope of the not-a-knot
    spline through it.  ``slopes``, its node slopes, are solved on first read
    and kept read-only.  On every s-th node of ``ts``, s a power of two
    (:func:`~flatribbon.numerics.nested_stride`), a call and ``with_slope``
    return the views ``values[::s]`` and ``slopes[::s]``, bitwise the spline's
    but perhaps at t = L; any other t reads the spline, built on first use.
    ``frame`` is the :class:`~flatribbon.frames.FrameSample` the slope was
    computed from.  ``lam``, ``flat`` and ``max_width`` are the ribbon's,
    taken on first read and kept.
    """

    def __init__(self, ts, values, frame):
        self.ts = np.asarray(ts, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.frame = frame

    @cached_property
    def slopes(self):  # on ts, read-only
        slopes = spline_slopes(self.ts, self.values)
        slopes.flags.writeable = False
        return slopes

    @cached_property
    def _spline(self):
        return Cubic(self.ts, self.values, self.slopes)

    @cached_property
    def lam(self):  # on ts, read-only
        lam = _lam(self.values, self.slopes, self.frame.kappa_g)
        lam.flags.writeable = False
        return lam

    @cached_property
    def flat(self):  # lambda is rounding noise: the energies take it as 0
        return float(abs(self.lam).max()) * self.ts[-1] < LAMBDA_FLAT_TOL  # ts ends at the curve's length

    @cached_property
    def max_width(self):
        return np.inf if self.flat else WIDTH_SAFETY / float(abs(self.lam).max())

    def __call__(self, t):
        s = nested_stride(self.ts, t)
        return self._spline(t) if s is None else self.values[::s]

    def with_slope(self, t):
        """(mu, mu') at t from one nesting test: the value is bitwise ``self(t)``."""
        s = nested_stride(self.ts, t)
        return (self._spline(t), self._spline(t, 1)) if s is None else (self.values[::s], self.slopes[::s])


def _lam(mu, mup, kappa_g):  # lambda, the rate of the ribbon's area element 1 + u lambda
    return mup - (1.0 + mu**2) * kappa_g


def _extend_at_zero(normal_field, ts, kn_scale, tg_scale):
    """Continuous extension of -tau_g / kappa_n at isolated zeros of kappa_n, at every t of ``ts``.

    L'Hopital with finite-difference derivatives up to order 3, from one
    sample of the stencil nodes of every t: the first order l with
    kappa_n^(l) != 0 must have tau_g^(0..l-1) = 0 as well.  The first t that
    admits no extension raises.
    """
    h = 1e-3 * normal_field.curve.length
    frame = normal_field.sample(ts[:, None] + np.arange(-3, 4) * h)

    def scaled(v):  # row l: the l-th derivative times h^l, l = 0..3, at every t
        return np.stack([v[:, 3]] + [stencil_difference(v, l, h) * h**l for l in (1, 2, 3)])

    kn, tg = scaled(frame.kappa_n), scaled(frame.tau_g)
    found = np.abs(kn[1:]) > 1e-4 * kn_scale
    order = np.where(found.any(axis=0), np.argmax(found, axis=0) + 1, 0)  # 0: none up to order 3
    scale = max(tg_scale, kn_scale)
    lower = np.max(np.abs(tg[:3]) * (np.arange(3)[:, None] < order), axis=0) / scale
    singular = (order > 0) & (lower > 1e-4)
    if np.any(singular | (order == 0)):
        i = int(np.argmax(singular | (order == 0)))
        if singular[i]:
            raise SingularRuling(
                f"kappa_n vanishes at t={ts[i]:.6g} while tau_g (or a lower-order "
                f"derivative) does not; no flat ribbon exists there"
            )
        if abs(tg[0, i]) > 1e-6 * scale:
            raise SingularRuling(
                f"kappa_n vanishes to high order at t={ts[i]:.6g} while tau_g = {tg[0, i]:.3e} does not"
            )
        raise ExtensionOrderExceeded(f"ruling-slope extension at t={ts[i]:.6g} needs derivatives beyond order 3")
    return -np.take_along_axis(tg, order[None], axis=0)[0] / np.take_along_axis(kn, order[None], axis=0)[0]


def mu_field(curve, normal_field, grid_size=2001):
    """Sample mu = -tau_g / kappa_n on the grid, extending through kappa_n zeros.

    Nodes where |kappa_n| is small (the direct quotient would amplify
    round-off) take their value from a spline through the well-conditioned
    nodes; if nearly everything is small, the L'Hopital extension is used
    pointwise.  Either way the extension must satisfy the flat-ribbon
    compatibility mu * kappa_n + tau_g = 0, otherwise SingularRuling.

    ``curve`` must be the field's own curve (InvalidParams otherwise).  The
    slope table is kept on the field per node count (see
    ``NormalField.grid_table``), read-only, so the width bound, the ribbon and
    the energies on one grid share it.
    """
    if curve is not normal_field.curve:
        raise InvalidParams("mu_field needs the normal field's own curve")
    build = lambda ts: read_only(_mu_table(curve, normal_field, ts))
    return normal_field.grid_table("mu", curve.grid(grid_size), build)


def _mu_table(curve, normal_field, ts):
    frame = normal_field.on_grid(len(ts))
    kn, tg = frame.kappa_n, frame.tau_g
    kn_scale = abs(kn).max()
    tg_scale = abs(tg).max()
    floor = 1e-12 / curve.length
    if kn_scale <= max(floor, 1e-10 * tg_scale):
        # kappa_n vanishes identically at working precision
        if tg_scale <= floor:
            return MuField(ts, np.zeros(len(ts)), frame)  # planar strip, X = H
        raise SingularRuling(
            f"kappa_n vanishes identically while tau_g does not "
            f"(sup |tau_g| = {tg_scale:.3e}); no flat ribbon exists"
        )
    good = abs(kn) > 1e-4 * kn_scale
    if good.all():
        return MuField(ts, -tg / kn, frame)
    mu = np.empty(len(ts))
    mu[good] = -tg[good] / kn[good]
    if np.count_nonzero(good) >= max(4, len(ts) // 2):
        mu[~good] = spline(ts[good], mu[good])(ts[~good])
    else:
        mu[~good] = _extend_at_zero(normal_field, ts[~good], kn_scale, tg_scale)
    residual = abs(mu[~good] * kn[~good] + tg[~good])
    worst = float(residual.max())
    if worst > 1e-6 * max(kn_scale, tg_scale):
        i = int(np.flatnonzero(~good)[int(np.argmax(residual))])
        raise SingularRuling(
            f"kappa_n vanishes near t={ts[i]:.6g} while tau_g does not "
            f"(residual {worst:.3e}); no flat ribbon exists there"
        )
    return MuField(ts, mu, frame)


class FlatRibbon:
    """Flat ribbon sigma(t, u) = gamma(t) + u X(t), X = mu T + H, |u| <= w."""

    def __init__(self, curve, normal_field, w, mu):
        self.curve = curve
        self.normal = normal_field
        self.w = float(w)
        self.mu = mu
        self.ts, self.flat = mu.ts, mu.flat

    def ruling(self, t, frame=None):
        """X(t); ``frame`` is the field's sample at t when the caller already has it."""
        fr = self.normal.sample(t) if frame is None else frame
        return self.mu(t)[..., None] * fr.T + fr.H

    def rows(self, n_t=None):
        """(ts, frame, mu, mu', lambda) on ``curve.grid(n_t)``, the ribbon's own grid unless ``n_t`` is given.

        mu and mu' are the slope table's (:class:`MuField`): views of its nodes on a nested grid, else read off its
        spline.  ``frame`` is the field's ``on_grid`` table.  On a flat ribbon lambda is the scalar 0.0.
        """
        ts = self.curve.grid(len(self.ts) if n_t is None else n_t)
        frame = self.normal.on_grid(len(ts))
        mu, mup = self.mu.with_slope(ts)
        return ts, frame, mu, mup, 0.0 if self.flat else _lam(mu, mup, frame.kappa_g)


def construct_ribbon(curve, normal_field, w, grid_size=2001):
    """Build the flat ribbon of half-width w normal to the field along the curve."""
    mu = mu_field(curve, normal_field, grid_size=grid_size)
    if not w < mu.max_width:
        raise WidthTooLarge(f"half-width {w:.6g} exceeds the regularity bound {mu.max_width:.6g}")
    return FlatRibbon(curve, normal_field, w, mu)


def ruling_angle(ribbon, t):
    """Angle in (0, pi) between the ruling X(t) and the tangent T(t).

    alpha = ArcCot(mu) with mu = -tau_g / kappa_n, so cot(alpha) is the
    continuous extension of mu.
    """
    return arccot(ribbon.mu(t))


def max_regular_width(curve, normal_field, grid_size=2001):
    """Largest safe half-width: 0.9 / sup|lambda|, infinite when lambda == 0."""
    return mu_field(curve, normal_field, grid_size=grid_size).max_width


@dataclass(frozen=True)
class RibbonMesh:
    """Quad-grid tessellation of a ribbon; normals are constant along rulings."""

    vertices: np.ndarray  # (n_t, n_u, 3)
    normals: np.ndarray  # (n_t, 3)
    ts: np.ndarray
    us: np.ndarray


def tessellate(ribbon, n_t, n_u):
    """The n_t x n_u vertex grid; WidthTooLarge where eps * max |vertex coordinate| (or NaN) exceeds the length."""
    if n_t < 2 or n_u < 2:
        raise ValueError("tessellation needs n_t >= 2 and n_u >= 2")
    ts = np.linspace(0.0, ribbon.curve.length, n_t)
    us = np.linspace(-ribbon.w, ribbon.w, n_u)
    frame = ribbon.normal.sample(ts)
    base = ribbon.curve.spec.point(frame.x)[:, None, :]  # the points of the frame's one inversion
    vertices = base + us[None, :, None] * ribbon.ruling(ts, frame)[:, None, :]
    spacing = np.finfo(float).eps * float(abs(vertices).max())
    if not spacing <= ribbon.curve.length:
        raise WidthTooLarge(
            f"width {ribbon.w:.6g} is too large for the mesh to carry the curve: eps * max |vertex coordinate| "
            f"= {spacing:.3g} exceeds the curve length {ribbon.curve.length:.6g}"
        )
    return RibbonMesh(vertices, frame.N, ts, us)


def write_obj(mesh, path):
    """Write the mesh as ASCII Wavefront OBJ (triangles, 1-based indices).

    Vertices, normals and faces are one :func:`~flatribbon.textio.lines`
    table each, floats written as f"{x:.17g}" writes them.  The face block
    depends only on the mesh shape, so it is spelled once per shape
    (:func:`_obj_faces`).
    """
    n_t, n_u, _ = mesh.vertices.shape
    vertices = mesh.vertices.reshape(-1, 3)
    with open(path, "wb") as fh:
        fh.write(lines(vertices.T, ("v ", " ", " ", "\n")))
        fh.write(lines(mesh.normals.T, ("vn ", " ", " ", "\n")))
        fh.write(_obj_faces(n_t, n_u))


@lru_cache(maxsize=1)
def _obj_faces(n_t, n_u):
    """The face block of an n_t x n_u mesh as bytes; the last shape written is kept.

    A corner's normal is the one of its vertex's row i, so a corner is "v//n"
    with n = i + 1.  The indices are float cells: below MESH_MAX they spell as '%d'.
    """
    i, j = np.indices((n_t - 1, n_u - 1), dtype=np.float64)
    a = i * n_u + j + 1  # vertex (i, j), 1-based
    b = a + n_u
    na, nb = i + 1, i + 2
    faces = np.stack([a, na, b, nb, b + 1, nb, a, na, b + 1, nb, a + 1, na], axis=-1).reshape(-1, 6)
    return lines(faces.T, ("f ", "//", " ", "//", " ", "//", "\n"))


@dataclass(frozen=True)
class FlatnessReport:
    ruling_in_plane: float  # sup |<X, N>|
    tangent_plane: float  # sup |<X x T, X'>|
    gauss_curvature: float  # sup |K| over the rows and |u| <= w
    rows: tuple = ()  # (t, |<X, N>|, |<X x T, X'>|, sup over |u| <= w of |K|) on the residual grid


def _gauss_sup(n, m, tangent_plane, w):
    """sup over |u| <= w of |K| of sigma = gamma + u X by rows: n = X x T, m = X x X', tangent_plane = |<n, X'>|.

    K = -<n, X'>^2 / (EG - F^2)^2 and EG - F^2 = |n + u m|^2 (do Carmo, 3-5), least at its vertex clipped to
    [-w, w]; formed as a vector it is (1 + u lambda)^2 on a flat ribbon, free of cancellation.
    """
    mm = rowdot(m, m)
    u = np.divide(-rowdot(n, m), mm, out=np.zeros_like(mm), where=mm > 0.0).clip(-w, w)[:, None]
    det = rowdot(n + u * m, n + u * m)
    if not (det > 0.0).all():
        raise DegenerateMetric(f"EG - F^2 = {float(det.min()):.3e}: the surface is singular within |u| <= w")
    return tangent_plane**2 / det**2


def flatness_residuals(ribbon, grid_size, ruling=None):
    """Developability residuals and the exact Gauss curvature of a ribbon on ``curve.grid(grid_size)``.

    ``ruling`` (a map of an array of t to vectors) overrides the ribbon's own
    ruling, its derivative taken by central differences, so a check can show
    that a perturbed one is non-flat.
    """
    ts, frame, mu, mup, _ = ribbon.rows(grid_size)
    if ruling is None:
        x, xp = ribbon.ruling(ts, frame), mup[:, None] * frame.T + mu[:, None] * frame.Tp + frame.Hp
    else:
        h = 1e-5 * ribbon.curve.length
        x, xp = ruling(ts), central_difference(ruling, ts, 1, h)
    in_plane = np.abs(rowdot(x, frame.N))
    n = cross(x, frame.T)
    tangent_plane = np.abs(rowdot(n, xp))
    # a flat ribbon's lambda is 0 (see FlatRibbon.rows), so its own EG - F^2 is the same at every u
    gauss = _gauss_sup(n, cross(x, xp), tangent_plane, 0.0 if ruling is None and ribbon.flat else ribbon.w)
    sups = (float(abs(v).max()) for v in (in_plane, tangent_plane, gauss))
    return FlatnessReport(*sups, (ts, in_plane, tangent_plane, gauss))
