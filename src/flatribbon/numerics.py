"""Shared numerical helpers: quadrature, finite differences, ArcCot.

All t-integrals in the package run through composite Simpson on uniform
grids (odd node count), so every module sees the same O(h^4) accuracy.
"""

import numpy as np
from scipy.integrate import cumulative_simpson

__all__ = [
    "arccot",
    "simpson_uniform",
    "cumulative_simpson_uniform",
    "central_difference",
    "odd_node_count",
    "rownorm",
    "first_where",
    "read_only",
    "entrywise",
]


def arccot(x):
    """Inverse cotangent with range (0, pi), continuous across x = 0."""
    return np.arctan2(1.0, x)


def odd_node_count(n):
    """Smallest odd integer >= max(n, 3); Simpson needs an even panel count."""
    n = max(int(n), 3)
    return n if n % 2 == 1 else n + 1


def rownorm(a):
    """Norm over the last axis; ``np.vecdot`` is ``np.dot`` per row, so this is ``np.linalg.norm`` per row."""
    return np.sqrt(np.vecdot(a, a))


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


def entrywise(fn, probe, value_shape=()):
    """``fn`` if it maps the 1-D parameter array ``probe`` entrywise, else ``fn`` called per entry.

    Maps written for one scalar thus work on grids; a scalar-valued map may return a constant.
    """
    try:
        shape = np.shape(fn(probe))
    except (TypeError, ValueError, IndexError):
        shape = None
    if shape == probe.shape + value_shape or shape == value_shape == ():
        return fn
    return np.vectorize(fn, otypes=[float], signature="()->(n)" if value_shape else None)


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
    weights = np.ones(n)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    total = h / 3.0 * np.vecdot(values, weights)
    return float(total) if values.ndim == 1 else total


def cumulative_simpson_uniform(values, h):
    """Cumulative integral on a uniform grid; result[0] = 0, same length as input."""
    values = np.asarray(values, dtype=float)
    return cumulative_simpson(values, dx=h, initial=0.0)


# 4th-order central stencils: {order: (offsets, coefficients, h exponent)}.
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
    offsets, coeffs = _STENCILS[order]
    acc = None
    for k, c in zip(offsets, coeffs):
        term = c * np.asarray(f(x + k * h), dtype=float)
        acc = term if acc is None else acc + term
    return acc / h**order
