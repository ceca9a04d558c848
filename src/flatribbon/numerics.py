"""Shared numerical helpers: quadrature, interpolation, finite differences, ArcCot.

All t-integrals in the package run through composite Simpson on uniform
grids of 4k+1 nodes (:func:`odd_node_count`), so every module sees the same
O(h^4) accuracy.  Every interpolant is one :class:`Cubic` table in Hermite
form: on slopes the caller knows (the arc-length table takes the curve
speeds, the rotation-minimizing normals N' = -<T', N> T), or else on the slopes of the not-a-knot
cubic spline (:func:`spline_slopes`, de Boor 1978; cyclic reduction to a dense bottom that each solve takes
by ``np.linalg.solve``, the factor kept per node count on uniform grids).  The running products of the
theta flow's RK4 step matrices take a parallel prefix scan (:func:`prefix_products`; Hillis & Steele 1986,
Blelloch 1990), rescaled after its first pass, every third pass after it and its last.  Vectors
end in an axis of 3: their dot product is :func:`rowdot`, three column
products summed in order, and their cross product is :func:`cross`, bitwise
``np.cross`` without its axis handling.
"""

from functools import lru_cache

import numpy as np

__all__ = [
    "arccot",
    "simpson_uniform",
    "cumulative_simpson_uniform",
    "Cubic",
    "spline",
    "spline_slopes",
    "central_difference",
    "odd_node_count",
    "rowdot",
    "rownorm",
    "cross",
    "first_where",
    "read_only",
    "nested_stride",
    "stencil_difference",
    "prefix_products",
]


def arccot(x):
    """Inverse cotangent with range (0, pi), continuous across x = 0."""
    return np.arctan2(1.0, x)


def odd_node_count(n):
    """Smallest count of the form 4k+1 >= max(n, 5).

    Simpson needs an odd node count, and the Richardson error estimates take
    Simpson again on every other node, which is odd too only for 4k+1.
    """
    n = max(int(n), 5)
    return n + (1 - n) % 4


def rowdot(a, b):
    """a0 b0 + a1 b1 + a2 b2 over the last axes of 3 (broadcast); ``np.vecdot`` runs a gufunc loop per row."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def rownorm(a):
    """Norm over the last axis of 3: sqrt(:func:`rowdot` (a, a))."""
    return np.sqrt(rowdot(a, a))


def cross(a, b):
    """Cross product of the 3-vectors along the last axes of the arrays a and b, broadcast together.

    Bitwise ``np.cross(a, b)``, which forms the same products and differences
    in the same order, but with none of its axis moves and checks.
    """
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out = np.empty(np.broadcast(a0, b0).shape + (3,))
    out[..., 0] = a1 * b2 - a2 * b1
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def first_where(mask, values):
    """The entry of ``values`` at the first True of ``mask`` (broadcast together)."""
    mask, values = np.broadcast_arrays(mask, values)
    return float(values.flat[int(np.argmax(mask))])


def read_only(table):
    """``table`` with every array attribute flagged read-only, so one copy can be shared."""
    for value in vars(table).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return table


def nested_stride(nodes, t):
    """The power of two s with ``nodes[::s]`` equal to ``t`` bitwise, or None.

    ``t`` qualifies only as a 1-D array of m >= 2 entries with
    len(nodes) - 1 = s (m - 1), so a table kept on ``nodes`` serves it by a
    stride.  Uniform grids of one interval nest bitwise at such s
    (``linspace(0, L, s (m - 1) + 1)[::s]`` is ``linspace(0, L, m)``), but
    for most L not at stride 10, so no other stride is served.
    """
    if not isinstance(t, np.ndarray) or t.ndim != 1 or len(t) < 2:
        return None
    s, rest = divmod(len(nodes) - 1, len(t) - 1)
    if rest or s < 1 or s & (s - 1) or not (nodes[::s] == t).all():  # one length here
        return None
    return s


def simpson_uniform(values, h):
    """Composite Simpson rule on a uniform grid with an odd number of nodes.

    Parameters
    ----------
    values : array_like
        Samples f(x_0), ..., f(x_{n-1}) with n odd, along the last axis;
        the rows of a 2-D array are integrated independently.
    h : float
        Grid spacing.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    if n < 3 or n % 2 == 0:
        raise ValueError(f"Simpson rule needs an odd number of nodes >= 3, got {n}")
    total = h / 3.0 * np.vecdot(values, _simpson_weights(n))
    return float(total) if values.ndim == 1 else total


@lru_cache(maxsize=16)
def _simpson_weights(n):
    """The weights 1, 4, 2, 4, ..., 2, 4, 1 of n nodes, read-only; the last 16 node counts are kept."""
    weights = np.ones(n)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights.flags.writeable = False
    return weights


def cumulative_simpson_uniform(values, h):
    """Cumulative integral on a uniform grid; result[0] = 0, same length as input.

    Each interval takes a 3-point formula: the forward one over it and the
    next node on even intervals, the backward one over it and the previous
    node on odd intervals and on the last one.  The two halves of a panel sum
    to composite Simpson, so every even node carries it exactly, for an odd or
    an even node count.
    """
    f = np.asarray(values, dtype=float)
    n = f.shape[-1]
    if n < 3:
        raise ValueError(f"cumulative Simpson needs at least 3 nodes, got {n}")
    a, b, c = f[..., :-2:2], f[..., 1:-1:2], f[..., 2::2]  # at nodes 2k, 2k + 1, 2k + 2
    parts = np.empty(f.shape[:-1] + (n,))
    parts[..., 0] = 0.0
    parts[..., 1:-1:2] = h / 3 * (5 * a / 4 + 2 * b - c / 4)  # forward, interval 2k
    parts[..., 2::2] = h / 3 * (5 * c / 4 + 2 * b - a / 4)  # backward, interval 2k + 1
    if n % 2 == 0:  # the last interval has no node after it for the forward formula
        parts[..., -1] = h / 3 * (5 * f[..., -1] / 4 + 2 * f[..., -2] - f[..., -3] / 4)
    return np.cumsum(parts, axis=-1)


class Cubic:
    """Piecewise cubic in Hermite form through (x_i, y_i) with slopes s_i.

    ``x`` is strictly increasing; ``y`` and ``slopes`` may carry one trailing
    axis.  Calling ``(t, nu=0)`` gives the nu-th derivative, nu = 0..3, at a
    scalar or an array t, and ``jet(t)`` the first three from one lookup; the
    end pieces extrapolate outside [x_0, x_{n-1}].  The table keeps the
    pieces along its last axis, so each pass of an evaluation runs over the
    points, whatever the trailing axis of ``y``.
    """

    def __init__(self, x, y, slopes):
        self.x = np.asarray(x, dtype=float)
        self._breaks = self.x[1:-1]  # piece i holds x_i <= t < x_{i+1}
        y = _nodes_last(y)
        s = _nodes_last(slopes)
        h = self.x[1:] - self.x[:-1]
        m = (y[..., 1:] - y[..., :-1]) / h
        c = (s[..., :-1] + s[..., 1:] - 2.0 * m) / h
        # per piece i, the coefficients of 1, d, d^2, d^3 in d = t - x_i
        self._table = np.stack([y[..., :-1], s[..., :-1], (m - s[..., :-1]) / h - c, c / h])

    def __call__(self, t, nu=0):
        d, c = self._pieces(t)
        return self._y_axis_last(_derivative(nu, d, *c))

    def jet(self, t):
        """(first, second, third derivative) at t from one interval lookup; each is bitwise ``self(t, nu)``."""
        d, c = self._pieces(t)
        return tuple(self._y_axis_last(_derivative(nu, d, *c)) for nu in (1, 2, 3))

    def _pieces(self, t):
        """d = t - x_i and the coefficients of the piece i that holds each t."""
        t = np.asarray(t, dtype=float)
        i = self._breaks.searchsorted(t, side="right")
        return t - self.x[i], self._table.take(i, axis=-1)

    def _y_axis_last(self, value):
        if self._table.ndim == 2:
            return value
        return value.transpose(*range(1, value.ndim), 0)  # the trailing axis of y last again


def _derivative(nu, d, c0, c1, c2, c3):
    """The nu-th derivative, nu = 0..3, of c0 + c1 d + c2 d^2 + c3 d^3."""
    if nu == 0:
        return c0 + d * (c1 + d * (c2 + d * c3))
    if nu == 1:
        return c1 + d * (2.0 * c2 + d * (3.0 * c3))
    if nu == 2:
        return 2.0 * c2 + d * (6.0 * c3)
    if nu == 3:
        return 6.0 * c3
    raise ValueError(f"derivative order must be 0..3, got {nu}")


def _nodes_last(y):
    """Node values (nodes first, at most one trailing axis) with the nodes last, in contiguous memory."""
    return np.ascontiguousarray(np.asarray(y, dtype=float).T)


def spline(x, y):
    """The not-a-knot cubic spline through (x, y): ``Cubic(x, y, spline_slopes(x, y))``."""
    return Cubic(x, y, spline_slopes(x, y))


def spline_slopes(x, y):
    """Node slopes of the not-a-knot cubic spline through (x, y); ``y`` may have a trailing axis.

    Two nodes give the line and three the parabola.  Otherwise the slopes
    solve the C^2 conditions at the interior nodes and the not-a-knot
    conditions at both ends; each end row shares its end slope's coefficient
    with its neighbour, so subtracting it leaves a diagonally dominant
    tridiagonal system for the interior slopes: h times the kept unit-spacing
    one (:func:`_unit_factor`) where the spacings agree to the rounding of x, else factored per call.
    """
    x = np.asarray(x, dtype=float)
    y = _nodes_last(y)
    h = x[1:] - x[:-1]
    m = (y[..., 1:] - y[..., :-1]) / h
    if len(x) == 2:
        s = np.stack([m[..., 0], m[..., 0]], axis=-1)
    elif len(x) == 3:
        c = (m[..., 1] - m[..., 0]) / (h[0] + h[1])
        s = np.stack([m[..., 0] - c * h[0], m[..., 0] + c * h[0], m[..., 1] + c * h[1]], axis=-1)
    else:
        # row i = 1..n-2: h_i s_{i-1} + 2 (h_{i-1} + h_i) s_i + h_{i-1} s_{i+1} = rhs_i
        rhs = 3.0 * (h[1:] * m[..., :-1] + h[:-1] * m[..., 1:])
        # not-a-knot: h_1 s_0 + d0 s_1 = r0 and d1 s_{n-2} + h_{n-3} s_{n-1} = r1
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        r0 = ((h[0] + 2.0 * d0) * h[1] * m[..., 0] + h[0] ** 2 * m[..., 1]) / d0
        r1 = (h[-1] ** 2 * m[..., -2] + (2.0 * d1 + h[-1]) * h[-2] * m[..., -1]) / d1
        rhs[..., 0] -= r0
        rhs[..., -1] -= r1
        lower, diag, upper = _not_a_knot_system(h, d0, d1)
        if h.max() - h.min() <= _UNIFORM * (x[-1] - x[0]):
            # the unit factor solves for the step from the O(h^2) guess, so the spacings' spread about their
            # mean, n eps of it, errs on that step alone and not on the slopes, whose third difference it swamps
            guess = 0.5 * (m[..., :-1] + m[..., 1:])
            rhs -= diag * guess
            rhs[..., 1:] -= lower[1:] * guess[..., :-1]
            rhs[..., :-1] -= upper[:-1] * guess[..., 1:]
            inner = guess + _substitute(_unit_factor(len(x)), rhs * ((len(x) - 1) / (x[-1] - x[0])))
        else:
            inner = _substitute(_factor(lower, diag, upper), rhs)
        s0 = (r0 - d0 * inner[..., 0]) / h[1]
        s1 = (r1 - d1 * inner[..., -1]) / h[-2]
        s = np.concatenate([s0[..., None], inner, s1[..., None]], axis=-1)
    return s.T


_UNIFORM = 8 * np.finfo(float).eps  # spacings that differ by less, relative to x's span, are one h rounded
_DENSE_ROWS = 48  # below this many rows one dense solve beats another reduction pass


def _not_a_knot_system(h, d0, d1):
    """(lower, diag, upper) of the interior slopes' system on spacings h, the end rows subtracted."""
    lower, diag, upper = h[1:].copy(), 2.0 * (h[:-1] + h[1:]), h[:-1].copy()
    lower[0], diag[0], diag[-1], upper[-1] = 0.0, diag[0] - d0, diag[-1] - d1, 0.0
    return lower, diag, upper


@lru_cache(maxsize=32)
def _unit_factor(n):
    """:func:`_factor` of the n-node system at unit spacing, read-only; 32 n are kept."""
    levels, bottom = _factor(*_not_a_knot_system(np.ones(n - 1), 2.0, 2.0))
    for array in (bottom, *(a for level in levels for a in level[1:])):
        array.flags.writeable = False
    return levels, bottom


def _factor(a, b, c):
    """Cyclic-reduction factor (levels, bottom) of the diagonally dominant tridiagonal matrix (a, b, c).

    a, b, c are the sub-, main and super-diagonal, a[0] = c[-1] = 0.  Each level eliminates the even rows from the
    odd ones, halving the system (an identity row at the end gives every odd row two neighbours), and keeps its row
    count, multipliers and even rows; ``bottom`` is the dense rest of <= ``_DENSE_ROWS`` rows.
    """
    levels = []
    while len(b) > _DENSE_ROWS:
        m = len(b)
        if m % 2 == 0:
            a, b, c = np.append(a, 0.0), np.append(b, 1.0), np.append(c, 0.0)
        alpha = -a[1::2] / b[:-1:2]
        gamma = -c[1::2] / b[2::2]
        levels.append((m, alpha, gamma, a[::2], b[::2], c[::2]))
        a, b, c = alpha * a[:-1:2], b[1::2] + alpha * c[:-1:2] + gamma * a[2::2], gamma * c[2::2]
    bottom = np.zeros((len(b), len(b)))
    bottom.flat[:: len(b) + 1], bottom.flat[1 :: len(b) + 1], bottom.flat[len(b) :: len(b) + 1] = b, c[:-1], a[1:]
    return tuple(levels), bottom


def _substitute(factor, d):
    """Solve the factored system for d, 1-D or 2-D, along the last axis of d; the bottom by ``np.linalg.solve``."""
    levels, bottom = factor
    rhs = []
    for m, alpha, gamma, *_ in levels:
        if m % 2 == 0:  # the level's identity row
            d = np.concatenate([d, np.zeros(d.shape[:-1] + (1,))], axis=-1)
        rhs.append(d)
        d = d[..., 1::2] + alpha * d[..., :-1:2] + gamma * d[..., 2::2]
    x = np.linalg.solve(bottom, d.T).T
    zero = np.zeros(d.shape[:-1] + (1,))
    for (m, _, _, a, b, c), d in zip(reversed(levels), reversed(rhs)):
        full = np.empty_like(d)
        full[..., 1::2] = x
        odd = np.concatenate([zero, x, zero], axis=-1)
        full[..., ::2] = (d[..., ::2] - a * odd[..., :-1] - c * odd[..., 1:]) / b
        x = full[..., :m]
    return x


# 4th-order central stencils: {order: (offsets, coefficients)}.
_STENCILS = {
    1: (np.array([-2, -1, 1, 2]), np.array([1.0, -8.0, 8.0, -1.0]) / 12.0),
    2: (np.array([-2, -1, 0, 1, 2]), np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0),
    3: (np.array([-3, -2, -1, 1, 2, 3]), np.array([1.0, -8.0, 13.0, -13.0, 8.0, -1.0]) / 8.0),
}


def central_difference(f, x, order, h):
    """4th-order-accurate central finite difference of f at x.

    f may return scalars or arrays; order must be 1, 2, or 3.
    """
    if order not in _STENCILS:
        raise ValueError(f"unsupported derivative order {order}")
    samples = [np.asarray(f(x + k * h), dtype=float) for k in _STENCILS[order][0]]
    return stencil_difference(np.stack(samples, axis=-1), order, h)


def stencil_difference(values, order, h):
    """:func:`central_difference` from samples on the last axis: at x + k h for k = -3..3, or at the stencil's k only."""
    offsets, coeffs = _STENCILS[order]
    if values.shape[-1] != len(offsets):
        values = values[..., offsets + 3]
    terms = [c * values[..., i] for i, c in enumerate(coeffs)]
    return sum(terms[1:], terms[0]) / h**order  # summed in stencil order, whatever the memory layout of values


def prefix_products(m):
    """Running products m_k ... m_1 of square matrices, each up to a positive factor.

    ``m`` has shape (r, r, ..., n): matrix k is ``m[:, :, ..., k]`` and the
    axes between are batch axes.  Inclusive Hillis-Steele scan: the pass of
    offset d = 1, 2, 4, ... multiplies every product from entry d on by the
    product d entries earlier, so log2 n einsum passes run over the last
    axis, contiguous in the C-ordered copy the scan takes of ``m``.  The
    first pass, every third pass after it and the last divide every product
    by its largest entry, so the returned products have a largest |entry| of
    exactly 1.  A positive factor keeps the direction of every image vector;
    from entries at most 1 a pass maps the bound b to r b^2, so between
    rescales the entries stay at most r^7 (128 for r = 2), and a hyperbolic
    flow cannot overflow.
    """
    p = np.array(m, dtype=float, order="C")
    passes = (p.shape[-1] - 1).bit_length()
    for k in range(passes):
        d = 2**k
        p[..., d:] = np.einsum("ij...,jk...->ik...", p[..., d:], p[..., :-d])
        if k % 3 == 0 or k == passes - 1:
            p /= np.maximum.reduce(np.abs(p), axis=(0, 1))
    return p
