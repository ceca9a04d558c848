"""Darboux frames along a curve with respect to a unit normal field.

The frame is (T, H, N) with H = N x T; its derivative is governed by the
scalars (kappa_g, kappa_n, tau_g).  A normal field implements one hook,
``normal(t, jet) -> (N, N')``, fed by the curve's :meth:`ArcLengthCurve.jet`
at t to the field's ``jet_order``, so a frame sample makes one arc-length inversion.
:meth:`NormalField.sample` tabulates the frame, its derivative and the
scalars on a whole grid of t in one call, a scalar t being its
zero-dimensional case, and raises where the field leaves the normal plane.
Rotating a field about the tangent by an angle function produces a new field
whose scalars transform by :func:`rotate`; its sample takes the scalars so
from the base's sample and builds its H, N, N' and H' only when they are
first read.  ``NormalField.on_grid(n)`` is
the sample on the curve's n-node grid, taken once per field and node count
and kept read-only for the field's lifetime.  A grid of m nodes whose every
node is a node of a kept table's M-node grid, M - 1 = 2^k (m - 1), is not
sampled again: its table is a strided view of the finer one.  The nesting
test is :func:`~flatribbon.numerics.nested_stride`, the same one by which a
``ThetaSolution`` serves its node table and :func:`sampled_scalars`, the
exact reader of the scalars, serves views.
"""

from dataclasses import dataclass

import numpy as np

from .curves import KAPPA_MIN, check_curvature
from .errors import InvalidParams, NonOrthogonalNormal, VanishingCurvature
from .numerics import Cubic, cross, first_where, nested_stride, odd_node_count, read_only, rowdot, rownorm

__all__ = [
    "DarbouxScalars",
    "FrameSample",
    "NormalField",
    "PrincipalNormalField",
    "TorusNormalField",
    "RotationMinimizingField",
    "RotatedNormalField",
    "rotate",
    "sampled_scalars",
    "isometric_partner_angle",
]


@dataclass(frozen=True)
class DarbouxScalars:
    kappa_g: float
    kappa_n: float
    tau_g: float


VECTORS = ("H", "N", "Np", "Hp")


class FrameSample:
    """The frame (T, H, N), T', N', H' and its scalars at each t of a grid; vectors end in an axis of 3.

    H = N x T and H' = N' x T + N x T'.  ``vectors`` is (H, N, N', H'), or a
    map returning them that is called on the first read of any of the four;
    vectors built so are kept read-only.
    """

    def __init__(self, T, Tp, kappa_g, kappa_n, tau_g, x, vectors):
        self.T, self.Tp, self.x = T, Tp, x  # x: the curve's raw parameter, from the sample's one arc-length inversion
        self.kappa_g, self.kappa_n, self.tau_g = kappa_g, kappa_n, tau_g
        if callable(vectors):
            self._vectors = vectors
        else:
            self.H, self.N, self.Np, self.Hp = vectors

    def __getattr__(self, name):  # only where normal lookup fails: a vector not built yet
        if name not in VECTORS or "_vectors" not in vars(self):
            raise AttributeError(name)
        for key, value in zip(VECTORS, self._vectors()):
            value.flags.writeable = False
            setattr(self, key, value)
        del self._vectors
        return getattr(self, name)

    def strided(self, s):
        """Every s-th row, as views; its vectors are views of this table's, taken on their first read."""
        rows = (value[::s] for value in (self.T, self.Tp, self.kappa_g, self.kappa_n, self.tau_g, self.x))
        return FrameSample(*rows, lambda: [getattr(self, key)[::s] for key in VECTORS])


class NormalField:
    """A smooth unit vector field normal to the tangent of ``curve``; ``normal`` reads the jet to ``jet_order``."""

    jet_order = 2

    def __init__(self, curve):
        self.curve = curve
        self._grid_tables = {}

    def grid_table(self, kind, ts, build, keep=None):
        """``build(ts)`` on a uniform grid ``ts`` over the curve, kept per (kind, node count) for the field's life.

        The key is the node count of ``ts``: one grid per count, ``curve.grid(n)``
        for the frame and mu tables.  A build that raises keeps nothing, so it
        raises again on the next call.  With ``keep`` given, a kept table for
        which ``keep(table)`` is false is built again and replaces it.
        """
        key = (kind, len(ts))
        table = self._grid_tables.get(key)
        if table is None or not (keep is None or keep(table)):
            table = self._grid_tables[key] = build(ts)
        return table

    def on_grid(self, n):
        """``sample(curve.grid(n))``, sampled once; arrays read-only.

        Where a finer table of M nodes is kept with M - 1 = 2^k (m - 1), m =
        ``odd_node_count(n)`` and k >= 1, the table is a view of every 2^k-th
        row of it, served only if those nodes equal ``curve.grid(m)`` bitwise.
        """
        build = lambda ts: self._strided(ts) or read_only(self._grid_sample(ts))
        return self.grid_table("frame", self.curve.grid(n), build)

    def _strided(self, ts):
        """Every s-th row of a kept frame table whose every s-th node is ``ts`` (:func:`nested_stride`); else None."""
        for (kind, size), table in self._grid_tables.items():
            s = nested_stride(self.curve.grid(size), ts) if kind == "frame" else None
            if s is not None:
                return table.strided(s)
        return None

    def _grid_sample(self, ts):
        return self.sample(ts)

    def normal(self, t, jet):
        """(N, N') at t, given the curve's ``jet(t, self.jet_order)``."""
        raise NotImplementedError

    def sample(self, ts):
        """Frame, frame derivative and scalars at every t of ``ts``; scalars from T' and H' = N' x T + N x T'.

        Raises NonOrthogonalNormal where |<N, T>| > 1e-8 or is NaN, i.e. where the field leaves the normal plane.
        """
        ts = np.asarray(ts, dtype=float)
        jet = self.curve.jet(ts, self.jet_order)
        T, Tp = jet[2], jet[3]
        N, Np = self.normal(ts, jet)
        off = np.abs(rowdot(N, T))
        bad = ~(off <= 1e-8)  # NaN too
        if np.any(bad):
            raise NonOrthogonalNormal(f"<N, T> = {first_where(bad, off):.3e} at t={first_where(bad, ts):.6g}")
        H = cross(N, T)
        Hp = cross(Np, T) + cross(N, Tp)
        return FrameSample(T, Tp, rowdot(Tp, H), rowdot(Tp, N), rowdot(Hp, N), jet[0], (H, N, Np, Hp))

    def scalars(self, t):
        """(kappa_g, kappa_n, tau_g) at one t: the zero-dimensional :meth:`sample`."""
        frame = self.sample(float(t))
        return DarbouxScalars(frame.kappa_g, frame.kappa_n, frame.tau_g)


class PrincipalNormalField(NormalField):
    """N = gamma''/kappa; requires kappa > 0 wherever evaluated.  N' reads gamma'''."""

    jet_order = 3

    def normal(self, t, jet):
        _, _, _, g2, g3 = jet
        kappa = rownorm(g2)
        check_curvature(kappa, t, self.curve.length)
        kappa = kappa[..., None]
        kappa1 = rowdot(g2, g3)[..., None] / kappa
        Np = g3 / kappa - g2 * (kappa1 / np.float_power(kappa, 2))  # libm pow, as for a scalar t
        return g2 / kappa, Np


class TorusNormalField(NormalField):
    """Outward unit normal of the torus along a torus-knot curve."""

    def normal(self, t, jet):
        phi, speed = jet[0], jet[1]
        N, dN = self.curve.spec.surface_normal_jet(phi)
        return N, dN / speed[..., None]


class RotationMinimizingField(NormalField):
    """Parallel-transported (rotation-minimizing) reference field.

    Discretized by the double-reflection method (Wang et al. 2008) on the
    2001 nodes of ``curve.near_grid``, which need no arc-length inversion.
    A step's two reflections depend only on the curve and turn one node's
    normal plane onto the next by an angle, read in the frames u = T x e /
    |T x e|, v = T x u (e the axis least aligned with T); the normal at
    t = 0 (the principal normal where kappa > 0) turns by their cumulative
    sum (Bishop 1975).  Between the nodes the normals are a Hermite cubic
    on their exact slopes, N' = -<T', N> T, the defining relation of a
    rotation-minimizing frame, projected back onto the normal plane of T
    before normalizing; the derivative uses the same relation.
    """

    def __init__(self, curve):
        super().__init__(curve)
        ts, x = curve.near_grid(2001)
        _, _, tangents, g2 = curve.raw_jet(x, 2)
        kappa = rownorm(g2[0])
        if kappa * curve.length > KAPPA_MIN:
            n = g2[0] / kappa  # the principal normal at t = 0
        else:
            n = np.array([0.0, 1.0, 0.0] if abs(tangents[0, 2]) > 0.9 else [0.0, 0.0, 1.0])
        n = n - np.dot(n, tangents[0]) * tangents[0]
        n /= np.linalg.norm(n)
        # a frame (u, v) of each normal plane: u along T x e, e the axis least aligned with T, so |T x e| >= sqrt(2/3)
        u = cross(tangents, np.eye(3)[np.argmin(np.abs(tangents), axis=1)])
        u /= rownorm(u)[:, None]
        v = cross(tangents, u)
        # reflect u_i in the chord v1, then in v2 = T_{i+1} - (T_i reflected in v1); read its angle in (u, v)_{i+1}
        v1 = np.diff(curve.spec.point(x), axis=0)
        r1 = 2.0 / rowdot(v1, v1)
        v2 = tangents[1:] - (tangents[:-1] - (r1 * rowdot(v1, tangents[:-1]))[:, None] * v1)
        w = u[:-1] - (r1 * rowdot(v1, u[:-1]))[:, None] * v1
        w -= (2.0 / rowdot(v2, v2) * rowdot(v2, w))[:, None] * v2
        delta = np.arctan2(rowdot(w, v[1:]), rowdot(w, u[1:]))
        alpha = np.cumsum(np.concatenate([[np.arctan2(np.dot(n, v[0]), np.dot(n, u[0]))], delta]))
        normals = np.cos(alpha)[:, None] * u + np.sin(alpha)[:, None] * v
        normals[0] = n  # the seed itself
        self._normals = Cubic(ts, normals, -rowdot(g2, normals)[:, None] * tangents)

    def normal(self, t, jet):
        T = jet[2]
        n = self._normals(t)
        n = n - rowdot(n, T)[..., None] * T  # the interpolant leaves the normal plane between nodes
        N = n / rownorm(n)[..., None]
        return N, -rowdot(jet[3], N)[..., None] * T


class RotatedNormalField(NormalField):
    """Base field rotated about the tangent by an angle function theta.

    ``theta`` may be a constant, whose ``theta_prime`` is zero, or a callable
    of an array of t, which must come with its ``theta_prime`` (InvalidParams
    otherwise).  A callable's value must broadcast to the shape of t (so a
    constant map works), else the sample raises InvalidParams.
    The frame table comes from the base field's table: the scalars by
    :func:`rotate`, N, N' and H' by the rotation, built only on their first
    read; on a grid that is the base's ``on_grid`` table, so fields rotated
    from one base share its sample.
    The base's sample is checked, and a rotation within the normal plane
    keeps |<N, T>| at most the base's, so the rotated sample needs no check.
    """

    def __init__(self, base, theta, theta_prime=None):
        super().__init__(base.curve)
        self.base = base
        if not callable(theta):
            q = float(theta)
            theta, theta_prime = (lambda t: q), (lambda t: 0.0)
        elif theta_prime is None:
            raise InvalidParams("a callable theta needs its theta_prime")
        self.theta, self.theta_prime = theta, theta_prime

    def sample(self, ts):
        ts = np.asarray(ts, dtype=float)
        return self._rotated(self.base.sample(ts), ts)

    def _grid_sample(self, ts):
        return self._rotated(self.base.on_grid(len(ts)), ts)

    def _rotated(self, b, ts):
        """The table ``b`` rotated: scalars by :func:`rotate`, vectors on first read, by a map that holds no field."""
        th, dth = _angles(self.theta, ts), _angles(self.theta_prime, ts)
        sc = rotate(b, th, dth)
        return FrameSample(b.T, b.Tp, sc.kappa_g, sc.kappa_n, sc.tau_g, b.x, lambda: _rotated_vectors(b, th, dth))


def _rotated_vectors(b, th, dth):
    """(H, N, N', H') of the frame table ``b`` rotated about T by th, of derivative dth."""
    c, s = np.cos(th)[..., None], np.sin(th)[..., None]
    H = c * b.H + s * b.N  # = N x T for the rotated N below
    N = -s * b.H + c * b.N
    Np = -dth[..., None] * H - s * b.Hp + c * b.Np
    return H, N, Np, cross(Np, b.T) + cross(N, b.Tp)


def _angles(fn, ts):
    """fn(ts) as floats, checked to broadcast to the shape of ts (InvalidParams otherwise)."""
    value = np.asarray(fn(ts), dtype=float)
    if value.shape == np.shape(ts):
        return value
    try:
        np.broadcast_to(value, np.shape(ts))
    except ValueError:
        raise InvalidParams(f"an angle map returned shape {value.shape} for t of shape {np.shape(ts)}") from None
    return value


def rotate(scalars, theta, theta_prime=0.0):
    """Scalars with respect to the field rotated by theta (derivative theta_prime)."""
    c, s = np.cos(theta), np.sin(theta)
    return DarbouxScalars(
        kappa_g=scalars.kappa_g * c + scalars.kappa_n * s,
        kappa_n=-scalars.kappa_g * s + scalars.kappa_n * c,
        tau_g=theta_prime + scalars.tau_g,
    )


def sampled_scalars(normal_field, grid_size=2001):
    """The exact t -> DarbouxScalars reader of ``normal_field``; no scalar is interpolated.

    On a grid of 4k+1 nodes nested in ``curve.grid(grid_size)`` (:func:`nested_stride`)
    it reads ``on_grid``, which serves views of ``on_grid(grid_size)``, taken at
    the call so that grids sampled later nest in it; at any other t, ``sample(t)``.
    """
    nodes = normal_field.curve.grid(grid_size)
    normal_field.on_grid(grid_size)

    def evaluate(t):
        on_grid = nested_stride(nodes, t) is not None and len(t) == odd_node_count(len(t))
        frame = normal_field.on_grid(len(t)) if on_grid else normal_field.sample(t)
        return DarbouxScalars(frame.kappa_g, frame.kappa_n, frame.tau_g)

    return evaluate


def isometric_partner_angle(scalars):
    """Constant rotation angle whose field preserves the geodesic curvature; free of the scalars' scale.

    VanishingCurvature where kappa_g and kappa_n both vanish or either is not finite.
    """
    kg, kn = scalars.kappa_g, scalars.kappa_n
    if not np.all(np.isfinite(kg) & np.isfinite(kn) & ((kg != 0.0) | (kn != 0.0))):
        raise VanishingCurvature("kappa_g and kappa_n both vanish or are not finite")
    return np.pi - 2.0 * np.arctan2(kg, kn)
