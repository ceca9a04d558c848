"""The numpy interpolants and cumulative Simpson against scipy as an oracle.

``Cubic`` with ``spline_slopes`` must be scipy's not-a-knot ``CubicSpline``
up to rounding, its ``jet`` the three derivative calls bit for bit, and
``cumulative_simpson_uniform`` scipy's
``cumulative_simpson`` on equal intervals.  scipy is imported here only; the package does not use it.
"""

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline

from flatribbon.numerics import Cubic, cumulative_simpson_uniform, spline, spline_slopes

# bounds on |Cubic - CubicSpline| relative to max(1, max |f^(nu)| at the nodes)
BOUNDS = {0: 1e-12, 1: 1e-10, 2: 1e-8, 3: 1e-6}
SIZES = (2, 3, 4, 5, 33, 34, 49, 201, 202, 2001, 4001)


def grid(n, perturbed):
    x = np.linspace(0.0, 3.0, n)
    if perturbed and n > 2:
        h = x[1] - x[0]
        x[1:-1] += 0.3 * h * np.random.default_rng(n).uniform(-1.0, 1.0, n - 2)
    return x


def data(x, vector):
    if vector:
        return np.stack([np.cos(x), np.sin(3.0 * x), x**3], axis=-1)
    return np.sin(2.0 * x) + x**2


def probes(x):
    """The nodes, the midpoints and a point half a spacing beyond each end."""
    outside = [x[0] - 0.5 * (x[1] - x[0]), x[-1] + 0.5 * (x[-1] - x[-2])]
    return np.concatenate([x, 0.5 * (x[1:] + x[:-1]), outside])


@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
@pytest.mark.parametrize("perturbed", [False, True], ids=["uniform", "perturbed"])
@pytest.mark.parametrize("n", SIZES)
def test_spline_matches_cubic_spline(n, perturbed, vector):
    x = grid(n, perturbed)
    y = data(x, vector)
    want, got = CubicSpline(x, y), Cubic(x, y, spline_slopes(x, y))
    t = probes(x)
    for nu, bound in BOUNDS.items():
        scale = max(1.0, float(np.max(np.abs(want(x, nu)))))
        g, w = got(t, nu), want(t, nu)
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= bound * scale, nu


@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
def test_scalar_argument_keeps_the_value_shape(vector):
    x = grid(33, True)
    y = data(x, vector)
    cubic = spline(x, y)
    for nu in range(4):
        assert np.shape(cubic(1.3, nu)) == np.shape(y[0])
        assert np.array_equal(cubic(1.3, nu), cubic(np.array([1.3]), nu)[0])
    with pytest.raises(ValueError):
        cubic(1.3, 4)


@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
@pytest.mark.parametrize("n", [2, 33, 2001])
def test_jet_is_the_three_derivative_calls_bit_for_bit(n, vector):
    x = grid(n, True)
    cubic = spline(x, data(x, vector))
    for t in (probes(x), 1.3, probes(x).reshape(-1, 1)):
        for nu, value in zip((1, 2, 3), cubic.jet(t)):
            assert np.array_equal(value, cubic(t, nu)), nu  # the shape too


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 4001])
def test_cumulative_simpson_matches_scipy(n):
    values = np.exp(np.sin(np.linspace(0.0, 5.0, n))) - 0.7
    h = 5.0 / (n - 1)
    want = cumulative_simpson(values, dx=h, initial=0.0)
    got = cumulative_simpson_uniform(values, h)
    assert got.shape == want.shape and got[0] == 0.0
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_cumulative_simpson_even_nodes_are_composite_simpson():
    xs = np.linspace(0.0, 2.0, 9)
    values = xs**3 - 2.0 * xs
    table = cumulative_simpson_uniform(values, xs[1] - xs[0])
    exact = xs**4 / 4.0 - xs**2  # Simpson integrates cubics exactly
    assert np.max(np.abs(table[::2] - exact[::2])) <= 1e-14
